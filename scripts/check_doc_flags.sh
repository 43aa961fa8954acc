#!/usr/bin/env bash
# Doc-lint: keep the flag documentation honest.
#
# Extracts every `--flag` token mentioned in README.md and EXPERIMENTS.md
# and diffs the set against the union of the live `--help` output of
# ipda_sim, metrics_report, and every bench binary. Fails on
#   * phantom flags  — documented but absent from every binary's --help
#   * undocumented flags — live in some --help but never mentioned in docs
#   * table drift — user-facing flags that are alive but appear in no
#     markdown flag-table row (`| `--flag` | ... |`), or table rows
#     naming flags no binary implements. Prose mentions alone don't
#     satisfy this one: the tables are the reference the docs point
#     users at, so that's where every real flag must land.
#
# Usage: scripts/check_doc_flags.sh [build-dir]   (default: ./build)
set -euo pipefail

BUILD_DIR="${1:-build}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"

DOCS=(README.md EXPERIMENTS.md)

# Flags owned by tools outside this repo that the docs legitimately
# mention (ctest/cmake/gtest/google-benchmark command lines).
IGNORE_RE='^--(gtest[a-z_-]*|benchmark[a-z_-]*|build|test-dir|output-on-failure|label-regex|parallel|rerun-failed|version)$'

binaries=()
for bin in "$BUILD_DIR"/src/ipda_sim "$BUILD_DIR"/src/metrics_report \
           "$BUILD_DIR"/bench/*; do
  [[ -f "$bin" && -x "$bin" ]] || continue
  # micro_benchmarks is a google-benchmark binary with its own flag
  # namespace; everything else prints the util::FlagSet usage format.
  [[ "$(basename "$bin")" == micro_benchmarks ]] && continue
  binaries+=("$bin")
done
if [[ ${#binaries[@]} -eq 0 ]]; then
  echo "check_doc_flags: no binaries under '$BUILD_DIR' — build first" >&2
  exit 2
fi

# util::FlagSet usage lines look like:  `  --name (type, default ...): ...`
live_flags="$(
  for bin in "${binaries[@]}"; do
    "$bin" --help
  done | grep -oE '^[[:space:]]+--[a-z][a-z0-9-]+ \(' |
    grep -oE -- '--[a-z][a-z0-9-]+' | sort -u
)"

doc_flags="$(
  grep -ohE -- '--[a-z][a-z0-9_-]+' "${DOCS[@]}" | sort -u |
    grep -vE "$IGNORE_RE" || true
)"

# Flags named inside markdown table rows only — the user-facing tables.
table_flags="$(
  grep -hE '^\|' "${DOCS[@]}" |
    grep -ohE -- '--[a-z][a-z0-9_-]+' | sort -u |
    grep -vE "$IGNORE_RE" || true
)"

phantom="$(comm -23 <(echo "$doc_flags") <(echo "$live_flags"))"
undocumented="$(comm -13 <(echo "$doc_flags") <(echo "$live_flags"))"
not_in_tables="$(comm -13 <(echo "$table_flags") <(echo "$live_flags"))"
stale_table_rows="$(comm -23 <(echo "$table_flags") <(echo "$live_flags"))"

status=0
if [[ -n "$phantom" ]]; then
  echo "PHANTOM flags (documented in ${DOCS[*]} but not in any --help):"
  echo "$phantom" | sed 's/^/  /'
  status=1
fi
if [[ -n "$undocumented" ]]; then
  echo "UNDOCUMENTED flags (in a --help but never mentioned in ${DOCS[*]}):"
  echo "$undocumented" | sed 's/^/  /'
  status=1
fi
if [[ -n "$not_in_tables" ]]; then
  echo "FLAGS MISSING FROM TABLES (live but in no ${DOCS[*]} flag-table row):"
  echo "$not_in_tables" | sed 's/^/  /'
  status=1
fi
if [[ -n "$stale_table_rows" ]]; then
  echo "STALE TABLE ROWS (flag-table entries no binary implements):"
  echo "$stale_table_rows" | sed 's/^/  /'
  status=1
fi
if [[ $status -eq 0 ]]; then
  echo "check_doc_flags: OK ($(echo "$live_flags" | wc -l) flags," \
       "$(echo "$table_flags" | wc -l) in tables)"
fi
exit $status
