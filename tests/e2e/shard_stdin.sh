#!/usr/bin/env bash
# saim_shard's stdin/stdout front door, end to end.
#
#   1. An unterminated last line at EOF is served.
#   2. fd flags: saim_shard runs with a pipe's read end as stdin and
#      another pipe's write end as stdout; the O_NONBLOCK bit of those
#      shared open file descriptions is as before the run once it exits,
#      whether it ends at EOF or drains after SIGTERM.
#   3. A reader that leaves early (`| head -1`) makes saim_shard exit 1:
#      results were lost.
#   4. A fractional {"cmd":"reshard"} gets an error line (and exit 1).
#   5. The deleted replication flags (--replicas, --gossip-ms),
#      --warm-start and the deleted remote-shard flags (--connect,
#      --auth-token) are bad invocations: exit 2, before any shard starts.
#   6. Supervisor restart: SIGKILL one shard child mid-stream; all 12
#      jobs still answer exactly once, with no error lines, contiguous
#      seq and a respawn in the exit summary.
#
# Usage: tests/e2e/shard_stdin.sh SAIM_SHARD
# (ctest passes the built binary; saim_serve must sit next to it.)
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 SAIM_SHARD" >&2
  exit 2
fi
shard=$(realpath "$1")

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

# 1. Unterminated last line.
printf '%s\n%s' \
  '{"id":"first","gen":"qkp:30-25-1","iterations":2,"sweeps":20}' \
  '{"id":"tail","gen":"qkp:30-25-2","iterations":2,"sweeps":20}' \
  | "$shard" --shards 2 --workers 1 > tail_out.jsonl
python3 - <<'EOF'
import json
lines = [json.loads(l) for l in open('tail_out.jsonl')]
assert sorted(l['id'] for l in lines) == ['first', 'tail'], lines
assert all(l['status'] == 'completed' for l in lines), lines
assert sorted(l['seq'] for l in lines) == [0, 1], lines
EOF

# 2. fd flags survive the run, ended by EOF or by SIGTERM.
python3 - "$shard" <<'EOF'
import fcntl
import os
import signal
import subprocess
import sys


def check_flags_restored(term):
    in_r, in_w = os.pipe()
    out_r, out_w = os.pipe()
    # These two descriptors share their open file descriptions with the
    # child's fds 0 and 1, so they see any O_NONBLOCK the child leaves set.
    before = {fd: fcntl.fcntl(fd, fcntl.F_GETFL) for fd in (in_r, out_w)}
    child = subprocess.Popen([sys.argv[1], '--shards', '1', '--workers', '1'],
                             stdin=in_r, stdout=out_w)
    os.write(in_w, b'{"id":"f","cmd":"ping"}\n')
    reply = b''
    while b'\n' not in reply:
        reply += os.read(out_r, 4096)
    assert b'"pong":true' in reply, reply
    # Mid-session the child has the flag set; the exit must not leave it.
    assert fcntl.fcntl(in_r, fcntl.F_GETFL) & os.O_NONBLOCK
    if term:
        child.send_signal(signal.SIGTERM)  # a graceful drain, not a death
    else:
        os.close(in_w)
    assert child.wait(timeout=60) == 0
    for fd, flags in before.items():
        after = fcntl.fcntl(fd, fcntl.F_GETFL)
        assert after & os.O_NONBLOCK == flags & os.O_NONBLOCK, \
            (term, fd, flags, after)
    for fd in (in_r, out_r, out_w) + ((in_w,) if term else ()):
        os.close(fd)


check_flags_restored(term=False)
check_flags_restored(term=True)
EOF

# 3. Lost output is a failure.
for k in $(seq 1 400); do
  echo "{\"id\":\"h${k}\",\"gen\":\"qkp:30-25-$((k % 8 + 1))\",\"iterations\":2,\"sweeps\":20,\"seed\":${k}}"
done > many_jobs.jsonl
set +o pipefail
"$shard" --shards 2 --workers 1 < many_jobs.jsonl 2> head_err.txt \
  | head -1 > head_out.jsonl
rc=${PIPESTATUS[0]}
set -o pipefail
[[ $rc -eq 1 ]] || { echo "| head -1: exit $rc, want 1" >&2; exit 1; }
[[ $(wc -l < head_out.jsonl) -eq 1 ]]

# 4. A fractional reshard is refused.
rc=0
printf '%s\n' '{"id":"frac","cmd":"reshard","shards":2.5}' \
  | "$shard" --shards 1 --workers 1 > reshard_out.jsonl || rc=$?
[[ $rc -eq 1 ]] || { echo "fractional reshard: exit $rc, want 1" >&2; exit 1; }
python3 - <<'EOF'
import json
lines = [json.loads(l) for l in open('reshard_out.jsonl')]
assert len(lines) == 1 and lines[0]['id'] == 'frac', lines
assert 'error' in lines[0] and 'resharded' not in lines[0], lines
EOF

# 5. Removed flags exit 2.
for flag in "--replicas 2" "--gossip-ms 5" "--warm-start" \
            "--connect 127.0.0.1:1" "--auth-token t"; do
  rc=0
  # shellcheck disable=SC2086  # the flag and its value are two words
  "$shard" --shards 1 $flag < /dev/null > /dev/null 2>&1 || rc=$?
  [[ $rc -eq 2 ]] || { echo "saim_shard $flag: exit $rc, want 2" >&2; exit 1; }
done

# 6. Supervisor restart: SIGKILL a shard mid-stream.
for k in 1 2 3 4 5 6; do for j in 1 2; do
  echo "{\"id\":\"k${k}j${j}\",\"gen\":\"qkp:80-25-${k}\",\"iterations\":150,\"sweeps\":600,\"seed\":${j}}"
done; done > slow_jobs.jsonl
"$shard" --shards 2 --workers 1 --stats < slow_jobs.jsonl \
  > restart_out.jsonl 2> restart_err.txt &
shard_pid=$!
# Mid-stream: the first result is out, the rest are still running.
for _ in $(seq 1 3000); do
  [[ -s restart_out.jsonl ]] && break
  sleep 0.01
done
# -P pins the victim to THIS fleet: under `ctest -j` another case's
# saim_serve may be running too.
victim=$(pgrep -P "$shard_pid" -x saim_serve | head -1)
[[ -n $victim ]] || { echo "no saim_serve child of $shard_pid" >&2; exit 1; }
kill -9 "$victim"
wait "$shard_pid"
grep -E "supervisor: [1-9][0-9]* respawns" restart_err.txt > /dev/null \
  || { cat restart_err.txt >&2; echo "no respawn reported" >&2; exit 1; }
python3 - <<'EOF'
import json
lines = [json.loads(l) for l in open('restart_out.jsonl')]
assert len(lines) == 12 and len({l['id'] for l in lines}) == 12, lines
assert not any('error' in l for l in lines), lines
assert sorted(l['seq'] for l in lines) == list(range(12)), lines
EOF

echo 'shard stdin OK: last line, fd flags, lost output, fractional reshard, restart'
