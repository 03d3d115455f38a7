# Checks the rounds `coded-incentives simulate` printed: every round's
# decode error, relative to max(1, |Ax|_inf), must be within the round's
# promise of 1e-8, and there must be exactly `rounds` of them.
# Usage: awk -v rounds=N -f .github/decode_errors.awk FILE
/^round / {
  seen++
  split($0, after, "decode error ")
  split(after[2], error, " ")
  if (error[2] != "(relative)," || !(error[1] + 0 <= 1e-8)) {
    print "::error::decode error above 1e-8: " $0
    bad = 1
  }
}
END {
  if (seen != rounds) {
    print "::error::expected " rounds " rounds, found " seen + 0
    bad = 1
  }
  exit bad
}
