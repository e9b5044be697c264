#!/usr/bin/env bash
# Store determinism contract: same-seed umon_sim runs, each writing a
# segment store through the threaded collector, must leave byte-identical
# segment files.
#
#   store_determinism.sh UMON_SIM WORK_DIR
#
# Two plain runs go to WORK_DIR/a and WORK_DIR/b (kept for a follow-up
# read-back). Then each fault-plan case runs three times, once alone and
# twice at the same time: concurrent runs shift the collector's thread
# timing, which must not reach the segment bytes.
set -eu

SIM=$1
WORK=$2
PLANS="$(cd "$(dirname "${BASH_SOURCE[0]}")/../tools/faultplans" && pwd)"

# same_store A B: every segment file of A has a byte-identical twin in B
# and B has no others. Prints the file count.
same_store() {
  local n=0 nb f
  for f in "$1"/*.useg; do
    [ -e "$f" ] || { echo "no segment files in $1" >&2; exit 1; }
    cmp "$f" "$2/$(basename "$f")" >&2 || exit 1
    n=$((n + 1))
  done
  nb=$(find "$2" -maxdepth 1 -name '*.useg' | wc -l)
  if [ "$n" -ne "$nb" ]; then
    echo "segment counts differ: $n in $1, $nb in $2" >&2
    exit 1
  fi
  echo "$n"
}

rm -rf "$WORK"
mkdir -p "$WORK"
for run in a b; do
  "$SIM" --ms 8 --load 0.1 --collector-shards 2 \
      --store-dir "$WORK/$run" > "$WORK/$run.log"
done
n=$(same_store "$WORK/a" "$WORK/b")
echo "store_determinism: plain: $n segment files identical"

# case NAME ARGS...: run umon_sim with ARGS three times (1 alone, then 2
# and 3 concurrently) and compare every store against the first.
case_runs() {
  local name=$1 p2 p3
  shift
  "$SIM" "$@" --store-dir "$WORK/$name-1" > "$WORK/$name-1.log" 2>&1
  "$SIM" "$@" --store-dir "$WORK/$name-2" > "$WORK/$name-2.log" 2>&1 &
  p2=$!
  "$SIM" "$@" --store-dir "$WORK/$name-3" > "$WORK/$name-3.log" 2>&1 &
  p3=$!
  wait "$p2"
  wait "$p3"
  same_store "$WORK/$name-1" "$WORK/$name-2" > /dev/null
  n=$(same_store "$WORK/$name-1" "$WORK/$name-3")
  echo "store_determinism: $name: $n segment files identical in 3 runs"
}

case_runs burst_loss --ms 4 --uplink-reliable \
    --fault-plan "$PLANS/burst_loss.plan"
case_runs corruption_storm --ms 4 \
    --fault-plan "$PLANS/corruption_storm.plan"
