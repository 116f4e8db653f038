#!/usr/bin/env bash
# Fleet chaos smoke: a two-shard saim_shard loses a shard mid-stream.
#
#   1. A mid-stream scrape of the fleet's --metrics endpoint exposes the
#      shed counter and a well-formed per-shard round-trip histogram
#      (cumulative buckets ending in +Inf, _count equal to the +Inf
#      bucket, a _sum), before any chaos. The front door runs ONE
#      thread with --metrics on: scrapes are served on its own loop
#      (checked where /proc exists).
#   2. Scrapes render on request: once k result lines have reached
#      stdout, one scrape with no wait shows saim_router_emitted_total
#      >= k.
#   3. SIGKILL one saim_serve child once the first result is out: the
#      supervisor reports it "down, respawning", and its unanswered jobs
#      fail over to the survivor. The jobs arrive through a FIFO whose
#      write end stays open until the respawn is reported, so the fleet
#      is still up for steps 1-3 however fast the solves run.
#   4. All 12 jobs are delivered exactly once, with no error lines and
#      contiguous seq 0..11.
#   5. No "WARNING: ThreadSanitizer" line reaches stderr (the tsan CI job
#      runs this script against a -DSAIM_SANITIZE=thread build).
#
# Usage: tests/e2e/replicated_chaos.sh SAIM_SHARD
# (ctest passes the built binary; saim_serve must sit next to it.)
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 SAIM_SHARD" >&2
  exit 2
fi
shard=$(realpath "$1")

work=$(mktemp -d)
shard_pid=
cleanup() {
  if [[ -n $shard_pid ]]; then kill "$shard_pid" 2> /dev/null || true; fi
  rm -rf "$work"
}
trap cleanup EXIT
cd "$work"

for k in 1 2 3 4 5 6; do for j in 1 2; do
  echo "{\"id\":\"k${k}j${j}\",\"gen\":\"qkp:80-25-${k}\",\"iterations\":150,\"sweeps\":600,\"seed\":${j}}"
done; done > slow_jobs.jsonl
mkfifo jobs.fifo
"$shard" --shards 2 --workers 1 \
  --metrics 127.0.0.1:0 --metrics-port-file metrics_port.tmp \
  --stats < jobs.fifo > chaos_out.jsonl 2> chaos_err.txt &
shard_pid=$!
exec 3> jobs.fifo
cat slow_jobs.jsonl >&3

# 1. Mid-stream metrics scrape.
for _ in $(seq 1 3000); do
  [[ -s metrics_port.tmp ]] && break
  sleep 0.01
done
[[ -s metrics_port.tmp ]] || { echo "no metrics port published" >&2; exit 1; }
python3 - "$(cat metrics_port.tmp)" <<'EOF'
import re
import sys
import urllib.request

text = urllib.request.urlopen(
    'http://127.0.0.1:%s/metrics' % sys.argv[1], timeout=10).read().decode()
name = 'saim_router_sheds_total'
assert f'# TYPE {name} counter' in text, name
assert re.search(rf'^{name} \d+$', text, re.MULTILINE), name

hist = 'saim_shard_roundtrip_ms'
assert f'# TYPE {hist} histogram' in text, hist
for shard in ('0', '1'):
    labels = f'shard="{shard}"'
    buckets = re.findall(
        rf'^{hist}_bucket\{{{labels},le="([^"]+)"\}} (\d+)$', text,
        re.MULTILINE)
    assert buckets and buckets[-1][0] == '+Inf', (shard, buckets)
    counts = [int(c) for _, c in buckets]
    assert counts == sorted(counts), (shard, counts)
    count = re.search(rf'^{hist}_count\{{{labels}\}} (\d+)$', text,
                      re.MULTILINE)
    assert count and int(count.group(1)) == counts[-1], shard
    assert re.search(rf'^{hist}_sum\{{{labels}\}} \S+$', text,
                     re.MULTILINE), shard
EOF

if [[ -d /proc/$shard_pid/task ]]; then
  tasks=("/proc/$shard_pid/task"/*)
  [[ ${#tasks[@]} -eq 1 ]] \
    || { echo "saim_shard runs ${#tasks[@]} threads, want 1" >&2; exit 1; }
fi

# 2. A fresh scrape once the first result is out.
for _ in $(seq 1 6000); do
  [[ -s chaos_out.jsonl ]] && break
  sleep 0.01
done
python3 - "$(cat metrics_port.tmp)" <<'EOF'
import re
import sys
import urllib.request

seen = sum(1 for line in open('chaos_out.jsonl') if line.endswith('\n'))
text = urllib.request.urlopen(
    'http://127.0.0.1:%s/metrics' % sys.argv[1], timeout=10).read().decode()
emitted = int(re.search(r'^saim_router_emitted_total (\d+)$', text,
                        re.MULTILINE).group(1))
assert seen >= 1 and emitted >= seen, (seen, emitted)
EOF

# 3. SIGKILL a shard.
# -P pins the victim to THIS fleet: under `ctest -j` another case's
# saim_serve may be running too.
victim=$(pgrep -P "$shard_pid" -x saim_serve | head -1)
[[ -n $victim ]] || { echo "no saim_serve child of $shard_pid" >&2; exit 1; }
kill -9 "$victim"
for _ in $(seq 1 3000); do
  grep -q "down, respawning" chaos_err.txt && break
  sleep 0.01
done
exec 3>&-  # end of input: the fleet drains and exits
wait "$shard_pid"
shard_pid=
grep -q "down, respawning" chaos_err.txt \
  || { cat chaos_err.txt >&2; echo "no respawn reported" >&2; exit 1; }

# 4. Exactly once, contiguous seq.
python3 - <<'EOF'
import json
lines = [json.loads(l) for l in open('chaos_out.jsonl')]
assert len(lines) == 12 and len({l['id'] for l in lines}) == 12, lines
assert not any('error' in l for l in lines), lines
assert sorted(l['seq'] for l in lines) == list(range(12)), lines
EOF

# 5. No sanitizer report.
if grep -q "WARNING: ThreadSanitizer" chaos_err.txt; then
  cat chaos_err.txt >&2
  echo "TSan report during the chaos smoke" >&2
  exit 1
fi

echo "fleet chaos OK: one thread, fresh metrics scrapes, SIGKILL + respawn, 12 jobs exactly once"
