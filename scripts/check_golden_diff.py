#!/usr/bin/env python3
"""Checks that the goldens differ from a base revision only as allowed.

A change to the event queues may shrink scheduler capacities and add the
new kernel instruments, but must leave every simulated outcome alone.
This script compares each file under tests/golden/ and roundbench/expected/
at BASE (a git revision) with the working tree and allows only:

  * sim.sched_heap_capacity and sim.sched_slot_capacity going down
    (gauges in the metrics goldens; the heap column of the cost gate);
  * the new sim.sched_far_capacity gauge / gate column;
  * the new sim.dispatch_digest counter / gate column.

Every other cell (sim.events_run, net.*, crypto.*, ...) must be identical,
and every other golden byte-identical. Each allowed difference is printed.

Usage: scripts/check_golden_diff.py BASE   (run from anywhere in the repo)
Exit status: 0 if only allowed differences, 1 otherwise.
"""

import csv
import io
import json
import pathlib
import subprocess
import sys

SHRINKING = {"sim.sched_heap_capacity", "sim.sched_slot_capacity"}
NEW_GAUGES = {"sim.sched_far_capacity"}
NEW_COUNTERS = {"sim.dispatch_digest"}
GOLDEN_DIRS = ["tests/golden", "roundbench/expected"]


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout


def compare_maps(where, kind, old, new, new_keys, problems, notes):
    for key in sorted(set(old) | set(new)):
        if key not in new:
            problems.append(f"{where}: {kind} {key} removed")
        elif key not in old:
            if key in new_keys:
                notes.append(f"{where}: {kind} {key} added = {new[key]}")
            else:
                problems.append(f"{where}: unexpected new {kind} {key}")
        elif old[key] != new[key]:
            if key in SHRINKING and new[key] < old[key]:
                notes.append(f"{where}: {key} {old[key]} -> {new[key]}")
            else:
                problems.append(
                    f"{where}: {kind} {key} changed {old[key]} -> {new[key]}")


def check_jsonl(name, old_text, new_text, problems, notes):
    old_lines = old_text.splitlines()
    new_lines = new_text.splitlines()
    if len(old_lines) != len(new_lines):
        problems.append(f"{name}: {len(old_lines)} -> {len(new_lines)} lines")
        return
    for number, (old_line, new_line) in enumerate(
            zip(old_lines, new_lines), start=1):
        old, new = json.loads(old_line), json.loads(new_line)
        where = f"{name}:{number}"
        for field in sorted(set(old) | set(new)):
            if field == "counters":
                compare_maps(where, "counter", old[field], new.get(field, {}),
                             NEW_COUNTERS, problems, notes)
            elif field == "gauges":
                compare_maps(where, "gauge", old[field], new.get(field, {}),
                             NEW_GAUGES, problems, notes)
            elif old.get(field) != new.get(field):
                problems.append(f"{where}: field {field} changed")


def check_cost_csv(name, old_text, new_text, problems, notes):
    old_rows = {r["config"]: r for r in csv.DictReader(io.StringIO(old_text))}
    new_rows = {r["config"]: r for r in csv.DictReader(io.StringIO(new_text))}
    if set(old_rows) != set(new_rows):
        problems.append(f"{name}: config rows changed")
        return
    for config in sorted(old_rows):
        old = {k: int(v) for k, v in old_rows[config].items() if k != "config"}
        new = {k: int(v) for k, v in new_rows[config].items() if k != "config"}
        compare_maps(f"{name} {config}", "column", old, new,
                     NEW_GAUGES | NEW_COUNTERS, problems, notes)


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    base = sys.argv[1]
    root = pathlib.Path(git("rev-parse", "--show-toplevel").strip())
    problems, notes = [], []
    for directory in GOLDEN_DIRS:
        old_files = set(git("ls-tree", "--name-only", f"{base}:{directory}")
                        .split())
        new_files = {p.name for p in (root / directory).iterdir()}
        for missing in sorted(old_files - new_files):
            problems.append(f"{directory}/{missing}: removed")
        for added in sorted(new_files - old_files):
            problems.append(f"{directory}/{added}: added")
        for file in sorted(old_files & new_files):
            name = f"{directory}/{file}"
            old_text = git("show", f"{base}:{name}")
            new_text = (root / name).read_text()
            if old_text == new_text:
                continue
            if file.endswith(".jsonl"):
                check_jsonl(name, old_text, new_text, problems, notes)
            elif file == "cost_counters.csv":
                check_cost_csv(name, old_text, new_text, problems, notes)
            else:
                problems.append(f"{name}: changed")
    for note in notes:
        print("allowed:", note)
    for problem in problems:
        print("NOT ALLOWED:", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
