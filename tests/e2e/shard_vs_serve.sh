#!/usr/bin/env bash
# Fleet invariant: sharding must not perturb a job's output.
#
# Streams 12 jobs (3 QKP and 3 MKP instances, 2 seeds each) through one
# `saim_serve --stream` and through `saim_shard --shards 2`, then checks
# that every solver-produced field is bit-identical per job id and that
# the fleet's global seq is exactly 0..11. Only scheduling artifacts
# (seq order, wall time, which shard ran a job) may differ.
#
# The fleet runs twice: with the default window (32: no owner backs up,
# so no job leaves its ring owner) and with --window 1, where owners back
# up at once and bounded-load placement spills jobs to the other shard.
# The --stats summary must show spilled > 0 on that run, and its output
# must match just the same.
#
# Usage: tests/e2e/shard_vs_serve.sh SAIM_SERVE SAIM_SHARD
# (ctest passes the built binaries.)
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 SAIM_SERVE SAIM_SHARD" >&2
  exit 2
fi
serve=$1
shard=$2

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for k in 1 2 3; do
  for j in 1 2; do
    echo "{\"id\":\"k${k}j${j}\",\"gen\":\"qkp:40-25-${k}\",\"iterations\":25,\"sweeps\":150,\"seed\":${j}}"
    echo "{\"id\":\"m${k}j${j}\",\"gen\":\"mkp:30-3-${k}\",\"iterations\":25,\"sweeps\":150,\"seed\":${j}}"
  done
done > "$work/jobs.jsonl"

"$serve" --workers 2 --stream < "$work/jobs.jsonl" > "$work/single.jsonl"

for window in 32 1; do
  "$shard" --serve "$serve" --shards 2 --workers 1 --window "$window" \
    --stats < "$work/jobs.jsonl" > "$work/shard.jsonl" 2> "$work/stats.log"

  python3 - "$work/single.jsonl" "$work/shard.jsonl" "$work/stats.log" \
    "$window" <<'EOF'
import json
import re
import sys

single = {l['id']: l for l in map(json.loads, open(sys.argv[1]))}
shard = {l['id']: l for l in map(json.loads, open(sys.argv[2]))}
window = int(sys.argv[4])
assert set(single) == set(shard) and len(shard) == 12, (set(single), set(shard))
solved = ['instance', 'backend', 'status', 'found_feasible', 'best_cost',
          'feasible_count', 'feasibility_rate', 'first_feasible_iter',
          'final_max_violation', 'lambda_l1', 'iterations', 'total_sweeps',
          'fingerprint']
for id_, want in single.items():
    got = shard[id_]
    for f in solved:
        assert got[f] == want[f], (window, id_, f, want[f], got[f])
seqs = sorted(l['seq'] for l in shard.values())
assert seqs == list(range(12)), (window, seqs)
# --stats prints "shard i: N jobs routed, M spilled" per shard.
spilled = [int(n) for n in
           re.findall(r'jobs routed, (\d+) spilled', open(sys.argv[3]).read())]
assert len(spilled) == 2, spilled
if window == 1:
    assert sum(spilled) > 0, ('no job spilled at window 1', spilled)
print('shard vs serve OK (window %d): 12 jobs bit-identical across 2 '
      'shards, %d spilled' % (window, sum(spilled)))
EOF
done
