#!/bin/sh
# Samples where a roundbench workload's time goes, by function.
#
# Usage, from anywhere in a checkout:
#
#   scripts/profile_roundbench.sh WORKLOAD SECONDS
#
# Builds roundbench (Release, plus -fno-omit-frame-pointer -g) and the
# LD_PRELOAD sampler scripts/sigprof_sampler.c into build-profile/ at the
# root of the checkout, runs one timed run of WORKLOAD (seed 1, tracing
# off) under the sampler, and prints the self and inclusive tables of
# scripts/sigprof_symbolize.py. The process also runs setup and the
# reference-kernel units timed beside each round (roundbench's speed
# yardstick, roundbench/NOTES.md); the tables count only the samples
# taken inside a round (under `OneCall`), so their shares are shares of
# a round. The raw samples and maps stay in build-profile/ for another
# look (sigprof_symbolize.py --top N, or without --within).
set -eu

if [ $# -ne 2 ]; then
  echo "usage: $0 WORKLOAD SECONDS" >&2
  exit 2
fi
workload=$1
seconds=$2
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/build-profile"
jobs=$(nproc 2>/dev/null || echo 1)
[ "$jobs" -gt 4 ] && jobs=4

mkdir -p "$out/work/$workload"
if [ ! -f "$out/roundbench/CMakeCache.txt" ]; then
  cmake -S "$root/roundbench" -B "$out/roundbench" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-fno-omit-frame-pointer -g" >&2
fi
cmake --build "$out/roundbench" -j "$jobs" --target roundbench >&2
cc -O2 -Wall -Wextra -shared -fPIC -o "$out/sigprof_sampler.so" \
  "$root/scripts/sigprof_sampler.c"

rm -f "$out"/sigprof.*.samples "$out"/sigprof.*.maps
(cd "$out" && LD_PRELOAD="$out/sigprof_sampler.so" \
  "$out/roundbench/roundbench" --workload "$workload" \
  --workdir "$out/work/$workload" \
  --expected "$root/roundbench/expected/$workload.csv" \
  --seed 1 --seconds "$seconds" --trace 0 | tail -n 1 >&2)
samples=$(ls "$out"/sigprof.*.samples)
python3 "$root/scripts/sigprof_symbolize.py" "$samples" \
  "${samples%.samples}.maps" --within OneCall
