#!/usr/bin/env bash
# Kill-and-resume smoke test for the crash-tolerant sweep executor.
#
# For each signal in SIGTERM (graceful drain) and SIGKILL (hard crash —
# nothing flushes, the journal may end in a torn line): starts a
# journaled sweep, signals it as soon as its journal holds a run record,
# resumes from the journal, and requires the resumed stdout to be
# byte-identical to an uninterrupted run — the determinism contract of
# the sweep executor.
#
# The SIGKILL phase additionally appends a torn partial record to the
# journal before resuming, simulating a crash mid-write(2): replay must
# skip the torn tail, never refuse the resume.
#
#   usage: kill_resume_smoke.sh <bench-binary>
#
# Exits 0 on success. The interrupted process must drain (exit 75,
# SIGTERM only) or die by the signal (128+signo). A sweep that finishes
# before the signal lands checks nothing, so it fails the smoke; so does
# one that finishes within a poll interval (10 ms) of its first run
# record, and one that journals no run within POLL_LIMIT polls (about
# 10 s). Raise IPDA_BENCH_RUNS until the signal lands.

set -u

BIN="${1:?usage: kill_resume_smoke.sh <bench-binary>}"

export IPDA_BENCH_RUNS="${IPDA_BENCH_RUNS:-8}"
JOBS=2
POLL_LIMIT=1000  # 10-ms polls for the first run record.
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# Run records in journal $1 (0 before it exists).
run_records() {
  local count
  count="$(grep -c '"type":"run"' "$1" 2>/dev/null)"
  echo "${count:-0}"
}

echo "== kill_resume_smoke: $BIN (runs/point=$IPDA_BENCH_RUNS)"

# Reference: uninterrupted run, no journal.
"$BIN" --jobs "$JOBS" > "$WORK/clean.out" 2> "$WORK/clean.err"
CLEAN_EXIT=$?
if [ "$CLEAN_EXIT" -ne 0 ]; then
  echo "FAIL: clean run exited $CLEAN_EXIT"
  cat "$WORK/clean.err"
  exit 1
fi

for SIG in TERM KILL; do
  JOURNAL="$WORK/sweep_$SIG.jsonl"
  echo "-- phase SIG$SIG"

  # Interrupted run: journal on, signalled once a run is journaled.
  "$BIN" --jobs "$JOBS" --journal "$JOURNAL" \
      > "$WORK/interrupted.out" 2> "$WORK/interrupted.err" &
  PID=$!
  POLLS=0
  while kill -0 "$PID" 2>/dev/null && [ "$(run_records "$JOURNAL")" -lt 1 ]
  do
    POLLS=$((POLLS + 1))
    if [ "$POLLS" -gt "$POLL_LIMIT" ]; then
      kill -KILL "$PID" 2>/dev/null
      wait "$PID" 2>/dev/null
      echo "FAIL: no run record journaled after $POLL_LIMIT polls"
      cat "$WORK/interrupted.err"
      exit 1
    fi
    sleep 0.01
  done
  kill "-$SIG" "$PID" 2>/dev/null
  wait "$PID" 2>/dev/null  # No job-control "Killed" notice.
  INT_EXIT=$?

  # 128+signo: the signal killed it (SIGKILL always; SIGTERM only if the
  # drain handler lost the race).
  SIG_EXIT=143
  [ "$SIG" = "KILL" ] && SIG_EXIT=137
  if [ "$INT_EXIT" -eq 75 ] || [ "$INT_EXIT" -eq "$SIG_EXIT" ]; then
    echo "   interrupted (exit $INT_EXIT), $(run_records "$JOURNAL")" \
        "run records journaled"
  elif [ "$INT_EXIT" -eq 0 ]; then
    echo "FAIL: the sweep finished before SIG$SIG landed;" \
        "raise IPDA_BENCH_RUNS"
    exit 1
  else
    echo "FAIL: interrupted run exited $INT_EXIT (want 75 or $SIG_EXIT)"
    cat "$WORK/interrupted.err"
    exit 1
  fi

  if [ "$SIG" = "KILL" ] && [ -s "$JOURNAL" ]; then
    # Simulate the unluckiest SIGKILL: death mid-write leaves a torn,
    # newline-less record at the journal tail.
    printf '{"type":"run","index":0,"seed":123,"at' >> "$JOURNAL"
  fi

  # Resume and require byte-identical output to the uninterrupted run.
  "$BIN" --jobs "$JOBS" --resume "$JOURNAL" \
      > "$WORK/resumed.out" 2> "$WORK/resumed.err"
  RES_EXIT=$?
  if [ "$RES_EXIT" -ne 0 ]; then
    echo "FAIL: resumed run exited $RES_EXIT"
    cat "$WORK/resumed.err"
    exit 1
  fi
  if ! diff "$WORK/clean.out" "$WORK/resumed.out"; then
    echo "FAIL: resumed output is not byte-identical to the clean run"
    exit 1
  fi
  echo "   resumed output byte-identical to uninterrupted run"
done

# Torn-header resume: a crash before the first fsync'd line completes
# must read as an empty journal (fresh start), not refuse the resume.
printf '{"type":"header","vers' > "$WORK/torn_header.jsonl"
"$BIN" --jobs "$JOBS" --resume "$WORK/torn_header.jsonl" \
    > "$WORK/torn.out" 2> "$WORK/torn.err"
TORN_EXIT=$?
if [ "$TORN_EXIT" -ne 0 ]; then
  echo "FAIL: torn-header resume exited $TORN_EXIT"
  cat "$WORK/torn.err"
  exit 1
fi
if ! diff "$WORK/clean.out" "$WORK/torn.out"; then
  echo "FAIL: torn-header resume output differs from clean run"
  exit 1
fi
echo "-- torn-header journal resumed as a fresh start, byte-identical"

echo "OK: kill-and-resume byte-identical for SIGTERM, SIGKILL, torn header"
