#!/usr/bin/env bash
# Flag-range contract: umon_sim rejects every out-of-range value while it
# parses its flags, with exit code 2 and before any simulation runs.
#
#   umon_sim_bad_flags.sh UMON_SIM
set -u

SIM=$1
fails=0

# expect_2 ARGS...: one umon_sim process must exit with exactly 2.
expect_2() {
  "$SIM" "$@" > /dev/null 2>&1
  local rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: umon_sim $* exited $rc, want 2" >&2
    fails=$((fails + 1))
  fi
}

expect_2 --sample-bits -1
expect_2 --sample-bits 32
expect_2 --report-loss -0.1
expect_2 --report-loss 1.5
expect_2 --load 0
expect_2 --load -0.5
expect_2 --load 1.5
expect_2 --ms 0
expect_2 --ms -3
# Removed sketch-geometry flags are unknown options now.
expect_2 --width 0

if [ "$fails" -ne 0 ]; then
  echo "umon_sim_bad_flags: $fails case(s) failed" >&2
  exit 1
fi
echo "umon_sim_bad_flags: every out-of-range flag exits 2"
