#!/usr/bin/env bash
# Socket-fleet invariant: a remote shard reached over TCP must not perturb
# a job's output.
#
# Streams 12 jobs (3 QKP and 3 MKP instances, 2 seeds each) through one
# `saim_serve --stream` and through `saim_shard --shards 2 --connect`,
# whose ring holds two local children plus one `saim_serve --listen`
# server. Checks:
#   * mid-stream, the server's --metrics exposition is well-formed (one
#     TYPE header per series, every series sampled, histogram +Inf bucket
#     equal to its _count) and shows completed jobs;
#   * the fleet's teardown leaves the server running, and a
#     {"cmd":"shutdown"} line is answered with "bye" and the server
#     exits 0;
#   * every solver-produced field is bit-identical per job id and the
#     fleet's global seq is exactly 0..11.
#
# Usage: tests/e2e/socket_fleet.sh SAIM_SERVE SAIM_SHARD
# (ctest passes the built binaries.)
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 SAIM_SERVE SAIM_SHARD" >&2
  exit 2
fi
serve=$1
shard=$2

work=$(mktemp -d)
listen_pid=
trap '[[ -z "$listen_pid" ]] || kill "$listen_pid" 2>/dev/null; rm -rf "$work"' EXIT

for k in 1 2 3; do
  for j in 1 2; do
    echo "{\"id\":\"k${k}j${j}\",\"gen\":\"qkp:40-25-${k}\",\"iterations\":25,\"sweeps\":150,\"seed\":${j}}"
    echo "{\"id\":\"m${k}j${j}\",\"gen\":\"mkp:30-3-${k}\",\"iterations\":25,\"sweeps\":150,\"seed\":${j}}"
  done
done > "$work/jobs.jsonl"

"$serve" --workers 2 --stream < "$work/jobs.jsonl" > "$work/single.jsonl"

"$serve" --listen 127.0.0.1:0 --port-file "$work/lport" \
  --metrics 127.0.0.1:0 --metrics-port-file "$work/mport" \
  --stream --workers 1 &
listen_pid=$!
for _ in $(seq 1 100); do
  [[ -s "$work/lport" && -s "$work/mport" ]] && break
  sleep 0.1
done
port=$(cat "$work/lport")
mport=$(cat "$work/mport")

"$shard" --serve "$serve" --shards 2 --workers 1 \
  --connect "127.0.0.1:$port" --stats \
  < "$work/jobs.jsonl" > "$work/socket.jsonl" &
shard_pid=$!

# Scrape --metrics mid-stream: poll until the remote shard has completed
# work (the consistent hash deterministically routes part of this job set
# to it), then check the exposition is well-formed and consistent.
python3 - "$mport" <<'EOF'
import re
import sys
import time
import urllib.request

url = f'http://127.0.0.1:{sys.argv[1]}/metrics'
deadline = time.time() + 60
while True:
    text = urllib.request.urlopen(url, timeout=5).read().decode()
    m = re.search(r'^saim_jobs_completed_total (\d+)$', text, re.MULTILINE)
    if m and int(m.group(1)) > 0:
        break
    assert time.time() < deadline, 'no completed jobs before deadline'
    time.sleep(0.2)
types, samples = {}, {}
for line in text.splitlines():
    if line.startswith('# TYPE '):
        name, kind = line.split()[2:4]
        assert name not in types, f'duplicate TYPE header: {name}'
        types[name] = kind
    elif not line.startswith('#'):
        sm = re.match(r'^([a-z_0-9]+)(\{[^}]*\})? (\S+)$', line)
        assert sm, f'malformed sample line: {line!r}'
        samples[sm.group(1)] = float(sm.group(3))
for name, kind in types.items():
    if kind == 'histogram':
        assert f'{name}_count' in samples and f'{name}_sum' in samples, name
        inf = [l for l in text.splitlines()
               if l.startswith(f'{name}_bucket') and '+Inf' in l]
        assert inf and float(inf[0].split()[-1]) == samples[f'{name}_count'], name
    else:
        assert name in samples, f'TYPE {name} has no sample'
assert samples['saim_jobs_completed_total'] > 0
print('metrics scrape OK mid-stream:', len(types), 'series,',
      int(samples['saim_jobs_completed_total']), 'jobs completed')
EOF
wait "$shard_pid"

# Fleet teardown only closes its own session: the remote server keeps
# serving (it may have other front doors). Its operator stops it with an
# explicit shutdown control line, after which it must exit 0.
kill -0 "$listen_pid"
python3 - "$port" <<'EOF'
import socket
import sys

s = socket.create_connection(('127.0.0.1', int(sys.argv[1])), timeout=30)
s.sendall(b'{"cmd":"shutdown"}\n')
assert b'"bye":true' in s.makefile('rb').readline()
EOF
wait "$listen_pid"
listen_pid=

python3 - "$work/single.jsonl" "$work/socket.jsonl" <<'EOF'
import json
import sys

single = {l['id']: l for l in map(json.loads, open(sys.argv[1]))}
got = {l['id']: l for l in map(json.loads, open(sys.argv[2]))}
assert set(single) == set(got) and len(got) == 12, (set(single), set(got))
solved = ['instance', 'backend', 'status', 'found_feasible', 'best_cost',
          'feasible_count', 'feasibility_rate', 'iterations', 'total_sweeps',
          'fingerprint']
for id_, want in single.items():
    for f in solved:
        assert got[id_][f] == want[f], (id_, f, want[f], got[id_][f])
assert sorted(l['seq'] for l in got.values()) == list(range(12))
print('socket-fleet smoke OK: 12 jobs bit-identical across '
      '2 local + 1 TCP shard')
EOF
