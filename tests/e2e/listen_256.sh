#!/usr/bin/env bash
# Front-door invariant: 256 concurrent connections to one
# `saim_serve --listen` reactor get the same solver output as one
# stdin/stdout session.
#
# Every connection sends the same two jobs (one QKP, one MKP), half-closes
# and reads to EOF. Checks, per session: the solver-produced fields are
# bit-identical to the stdin session's, and its seq values are exactly
# {0, 1}. Then the stats line shows >= 257 accepted connections (the 256
# plus the stats probe itself) and no rejects or timeouts, and a
# {"cmd":"shutdown"} is answered with "bye" and the server exits 0.
#
# Usage: tests/e2e/listen_256.sh SAIM_SERVE
# (ctest passes the built binary.)
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 SAIM_SERVE" >&2
  exit 2
fi
serve=$1

work=$(mktemp -d)
server_pid=
trap '[[ -z "$server_pid" ]] || kill "$server_pid" 2>/dev/null; rm -rf "$work"' EXIT

printf '%s\n' \
  '{"id":"e1","gen":"qkp:40-25-1","iterations":25,"sweeps":150,"seed":1}' \
  '{"id":"e2","gen":"mkp:30-3-1","iterations":25,"sweeps":150,"seed":2}' \
  > "$work/jobs.jsonl"
"$serve" --stream --workers 2 < "$work/jobs.jsonl" > "$work/single.jsonl"

# One reactor carries all 256 sessions at once.
"$serve" --listen 127.0.0.1:0 --port-file "$work/port" \
  --stream --workers 2 --max-connections 300 &
server_pid=$!
for _ in $(seq 1 100); do
  [[ -s "$work/port" ]] && break
  sleep 0.1
done
port=$(cat "$work/port")

python3 - "$work/jobs.jsonl" "$work/single.jsonl" "$port" <<'PY'
import json
import socket
import sys
import threading

jobs = open(sys.argv[1], 'rb').read()
single = {l['id']: l for l in map(json.loads, open(sys.argv[2]))}
port = int(sys.argv[3])
solved = ['instance', 'backend', 'status', 'found_feasible', 'best_cost',
          'feasible_count', 'feasibility_rate', 'iterations', 'total_sweeps',
          'fingerprint']
results, errors = [None] * 256, []


def session(i):
    try:
        s = socket.create_connection(('127.0.0.1', port), timeout=60)
        s.sendall(jobs)
        s.shutdown(socket.SHUT_WR)
        results[i] = {l['id']: l for l in map(json.loads, s.makefile('rb'))}
        s.close()
    except Exception as e:  # noqa: BLE001 - reported below
        errors.append((i, repr(e)))


threads = [threading.Thread(target=session, args=(i,)) for i in range(256)]
for t in threads:
    t.start()
for t in threads:
    t.join()
assert not errors, errors[:5]
# Only scheduling artifacts (seq order, wall time, cache_hit, batch
# shapes) may differ from the single session.
for i, got in enumerate(results):
    assert set(got) == set(single), (i, set(got))
    for id_, want in single.items():
        for f in solved:
            assert got[id_][f] == want[f], (i, id_, f)
    assert sorted(l['seq'] for l in got.values()) == [0, 1], (i, got)

s = socket.create_connection(('127.0.0.1', port), timeout=10)
s.sendall(b'{"cmd":"stats","id":"s"}\n')
conn = json.loads(s.makefile('rb').readline())['service']['connections']
s.close()
assert conn['accepted'] >= 257, conn
assert conn['rejected'] == 0 and conn['timed_out'] == 0, conn

s = socket.create_connection(('127.0.0.1', port), timeout=10)
s.sendall(b'{"cmd":"shutdown"}\n')
assert b'"bye":true' in s.makefile('rb').readline()
s.close()
print('listen 256 OK: 256 concurrent sessions bit-identical to the single '
      'session;', conn['accepted'], 'accepted')
PY

wait "$server_pid"
server_pid=
