#!/usr/bin/env bash
# Smoke run of the two ablation benches at toy size.
#
# Runs `bench_ablation_saim --n 20 --runs 5` and
# `bench_ablation_mkp_feasibility --n 30 --m 3 --runs 5` and checks that
# each exits 0 and prints every one of its row labels. A row whose knob
# was removed from the library breaks the build; a row that silently
# stops printing breaks this check. Each run takes well under a second.
#
# Usage: tests/e2e/ablation_smoke.sh BENCH_ABLATION_SAIM BENCH_ABLATION_MKP
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BENCH_ABLATION_SAIM BENCH_ABLATION_MKP" >&2
  exit 2
fi

fail=0

# check NAME OUTPUT LABEL...: every LABEL must appear in OUTPUT.
check() {
  local name=$1 out=$2
  shift 2
  local label
  for label in "$@"; do
    if ! grep -qF -- "$label" <<<"$out"; then
      echo "FAIL: $name printed no row '$label'" >&2
      fail=1
    fi
  done
}

saim_out=$("$1" --n 20 --runs 5)
check bench_ablation_saim "$saim_out" \
  "A1 eta=0.000000" "A1 eta=1.000000" "A1 eta=5.000000" \
  "A1 eta=20.000000" "A1 eta=50.000000" "A1 eta=200.000000" \
  "A2 alpha=0.500000" "A2 alpha=1.000000" "A2 alpha=2.000000" \
  "A2 alpha=4.000000" "A2 alpha=8.000000" \
  "A3 linear schedule" "A3 geometric schedule" "expected shape:"

mkp_out=$("$2" --n 30 --m 3 --runs 5)
check bench_ablation_mkp_feasibility "$mkp_out" \
  "baseline (P=5dN, B'=B)" "B' = 0.98 B" "B' = 0.95 B" "B' = 0.90 B" \
  "P = 10dN" "P = 20dN" "B'=0.95B + P=10dN" "expected shape:"

if [[ $fail -ne 0 ]]; then
  printf '%s\n\n%s\n' "$saim_out" "$mkp_out" >&2
  exit 1
fi
echo "ablation smoke: both benches printed every row"
