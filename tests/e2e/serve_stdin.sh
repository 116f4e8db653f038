#!/usr/bin/env bash
# saim_serve's stdin/stdout session, end to end.
#
#   1. JSONL smoke: three batch-mode jobs complete in input order; the
#      duplicate instance reports the same fingerprint; result lines carry
#      batch_size and no warm_started field.
#   2. Stream on one instance: seq 0..2, every batch_size is 1 (each job
#      runs alone on its worker).
#   3. Transports: the same jobs from a pipe, from a regular file on
#      stdin and through --input/--output paths give identical solver
#      fields.
#   4. An unterminated last line at EOF is served.
#   5. Input after {"cmd":"shutdown"} is ignored and bye is the last line.
#   6. A malformed line gives an error line and exit 1; a bad --input
#      path and the deleted --warm-start flag give exit 2.
#   7. fd flags: saim_serve runs with a pipe's read end as stdin and
#      another pipe's write end as stdout; the O_NONBLOCK bit of those
#      shared open file descriptions is as before the run once it exits,
#      whether it ends at EOF or is killed by SIGTERM mid-session.
#   8. A reader that leaves early (`| head -1`) makes saim_serve exit 1:
#      results were lost.
#
# Usage: tests/e2e/serve_stdin.sh SAIM_SERVE
# (ctest passes the built binary.)
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 SAIM_SERVE" >&2
  exit 2
fi
serve=$(realpath "$1")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

# 1. JSONL smoke.
printf '%s\n' \
  '{"id":"a","gen":"qkp:40-25-1","iterations":30,"sweeps":200}' \
  '{"id":"b","gen":"mkp:30-3-1","iterations":30,"sweeps":200,"priority":"high"}' \
  '{"id":"a-again","gen":"qkp:40-25-1","iterations":30,"sweeps":200}' \
  | "$serve" --workers 2 --stats > serve_out.jsonl
python3 - <<'EOF'
import json
lines = [json.loads(l) for l in open('serve_out.jsonl')]
assert [l['id'] for l in lines] == ['a', 'b', 'a-again'], lines
assert all(l['status'] == 'completed' for l in lines), lines
assert lines[0]['fingerprint'] == lines[2]['fingerprint'], lines
assert all('batch_size' in l and 'warm_started' not in l for l in lines), lines
EOF

# 2. Stream on one instance.
printf '%s\n' \
  '{"id":"c1","gen":"qkp:40-25-1","iterations":30,"sweeps":200,"seed":1}' \
  '{"id":"c2","gen":"qkp:40-25-1","iterations":30,"sweeps":200,"seed":2}' \
  '{"id":"c3","gen":"qkp:40-25-1","iterations":30,"sweeps":200,"seed":3}' \
  | "$serve" --workers 1 --stream --stats > stream_out.jsonl
python3 - <<'EOF'
import json
lines = [json.loads(l) for l in open('stream_out.jsonl')]
assert len(lines) == 3, lines
assert all(l['status'] == 'completed' for l in lines), lines
assert sorted(l['seq'] for l in lines) == [0, 1, 2], lines
assert all(l['batch_size'] == 1 for l in lines), lines
EOF

# 3. Pipe vs regular file vs --input/--output paths.
for k in 1 2; do
  echo "{\"id\":\"q${k}\",\"gen\":\"qkp:40-25-${k}\",\"iterations\":20,\"sweeps\":150,\"seed\":${k}}"
  echo "{\"id\":\"m${k}\",\"gen\":\"mkp:30-3-${k}\",\"iterations\":20,\"sweeps\":150,\"seed\":${k}}"
done > jobs.jsonl
# The cat is the point: stdin is a pipe here, not the file.
# shellcheck disable=SC2002
cat jobs.jsonl | "$serve" --workers 2 > via_pipe.jsonl
"$serve" --workers 2 < jobs.jsonl > via_file.jsonl
"$serve" --workers 2 --input jobs.jsonl --output via_paths.jsonl
python3 - <<'EOF'
import json
solved = ['id', 'instance', 'backend', 'status', 'found_feasible',
          'best_cost', 'feasible_count', 'feasibility_rate',
          'first_feasible_iter', 'final_max_violation', 'lambda_l1',
          'iterations', 'total_sweeps', 'fingerprint']
runs = {}
for name in ['via_pipe', 'via_file', 'via_paths']:
    lines = [json.loads(l) for l in open(name + '.jsonl')]
    assert [l['id'] for l in lines] == ['q1', 'm1', 'q2', 'm2'], (name, lines)
    runs[name] = [{f: l[f] for f in solved} for l in lines]
assert runs['via_pipe'] == runs['via_file'] == runs['via_paths'], runs
EOF

# 4. Unterminated last line.
printf '%s' '{"id":"tail","gen":"qkp:30-25-1","iterations":2,"sweeps":20}' \
  | "$serve" --stream > tail_out.jsonl
python3 - <<'EOF'
import json
lines = [json.loads(l) for l in open('tail_out.jsonl')]
assert [l['id'] for l in lines] == ['tail'], lines
assert lines[0]['status'] == 'completed', lines
EOF

# 5. Nothing after shutdown is read.
printf '%s\n' \
  '{"id":"before","gen":"qkp:30-25-1","iterations":2,"sweeps":20}' \
  '{"id":"bye","cmd":"shutdown"}' \
  '{"id":"after","gen":"qkp:30-25-1","iterations":2,"sweeps":20}' \
  '{"id":"late","cmd":"ping"}' \
  | "$serve" --stream > shutdown_out.jsonl
python3 - <<'EOF'
import json
lines = [json.loads(l) for l in open('shutdown_out.jsonl')]
assert [l['id'] for l in lines] == ['before', 'bye'], lines
assert lines[-1].get('bye') is True, lines
EOF

# 6. Exit codes.
rc=0
printf '%s\n' 'not json' \
  '{"id":"ok","gen":"qkp:30-25-1","iterations":2,"sweeps":20}' \
  | "$serve" > bad_out.jsonl || rc=$?
[[ $rc -eq 1 ]] || { echo "malformed line: exit $rc, want 1" >&2; exit 1; }
python3 - <<'EOF'
import json
lines = [json.loads(l) for l in open('bad_out.jsonl')]
assert 'error' in lines[0] and lines[1]['status'] == 'completed', lines
EOF
rc=0
"$serve" --input "$work/no/such/file.jsonl" > /dev/null 2>&1 || rc=$?
[[ $rc -eq 2 ]] || { echo "bad --input: exit $rc, want 2" >&2; exit 1; }
rc=0
"$serve" --warm-start < /dev/null > /dev/null 2>&1 || rc=$?
[[ $rc -eq 2 ]] || { echo "--warm-start: exit $rc, want 2" >&2; exit 1; }

# 7. fd flags survive the run, ended by EOF or by SIGTERM.
python3 - "$serve" <<'EOF'
import fcntl
import os
import signal
import subprocess
import sys


def check_flags_restored(kill):
    in_r, in_w = os.pipe()
    out_r, out_w = os.pipe()
    # These two descriptors share their open file descriptions with the
    # child's fds 0 and 1, so they see any O_NONBLOCK the child leaves set.
    before = {fd: fcntl.fcntl(fd, fcntl.F_GETFL) for fd in (in_r, out_w)}
    child = subprocess.Popen([sys.argv[1], '--stream'], stdin=in_r,
                             stdout=out_w)
    os.write(in_w, b'{"id":"f","cmd":"ping"}\n')
    reply = b''
    while b'\n' not in reply:
        reply += os.read(out_r, 4096)
    assert b'"pong":true' in reply, reply
    if kill:
        # Mid-session the child has the flag set; the signal must not
        # leave it behind.
        assert fcntl.fcntl(in_r, fcntl.F_GETFL) & os.O_NONBLOCK
        child.send_signal(signal.SIGTERM)
        assert child.wait(timeout=60) == -signal.SIGTERM
    else:
        os.close(in_w)
        assert child.wait(timeout=60) == 0
    for fd, flags in before.items():
        after = fcntl.fcntl(fd, fcntl.F_GETFL)
        assert after & os.O_NONBLOCK == flags & os.O_NONBLOCK, \
            (kill, fd, flags, after)
    for fd in (in_r, out_r, out_w) + ((in_w,) if kill else ()):
        os.close(fd)


check_flags_restored(kill=False)
check_flags_restored(kill=True)
EOF

# 8. Lost output is a failure.
for k in $(seq 1 400); do
  echo "{\"id\":\"h${k}\",\"gen\":\"qkp:30-25-$((k % 8 + 1))\",\"iterations\":2,\"sweeps\":20,\"seed\":${k}}"
done > many_jobs.jsonl
set +o pipefail
"$serve" --stream < many_jobs.jsonl 2> /dev/null | head -1 > head_out.jsonl
rc=${PIPESTATUS[0]}
set -o pipefail
[[ $rc -eq 1 ]] || { echo "| head -1: exit $rc, want 1" >&2; exit 1; }

echo 'serve stdin OK: smokes, transports, last line, shutdown, exit codes, fd flags, lost output'
