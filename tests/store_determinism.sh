#!/usr/bin/env bash
# Store determinism contract: two same-seed umon_sim runs, each writing a
# segment store through the threaded collector, must leave byte-identical
# segment files.
#
#   store_determinism.sh UMON_SIM WORK_DIR
#
# The stores stay in WORK_DIR/a and WORK_DIR/b for a follow-up read-back.
set -eu

SIM=$1
WORK=$2

rm -rf "$WORK"
mkdir -p "$WORK"
for run in a b; do
  "$SIM" --ms 8 --load 0.1 --collector-shards 2 \
      --store-dir "$WORK/$run" > "$WORK/$run.log"
done

n=0
for f in "$WORK"/a/*.useg; do
  [ -e "$f" ] || { echo "no segment files in $WORK/a" >&2; exit 1; }
  cmp "$f" "$WORK/b/$(basename "$f")"
  n=$((n + 1))
done
nb=$(find "$WORK/b" -maxdepth 1 -name '*.useg' | wc -l)
if [ "$n" -ne "$nb" ]; then
  echo "segment counts differ: $n in a, $nb in b" >&2
  exit 1
fi
echo "store_determinism: $n segment files identical"
