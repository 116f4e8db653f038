#!/usr/bin/env bash
# One long saim_shard session over a few hot instances.
#
# Streams 5000 jobs over the four instances qkp:200-25-{1..4} (1250 each,
# shuffled, distinct seeds) through one `saim_shard --shards 2 --workers 1
# --cache 0` session, then asks for {"cmd":"stats"} and checks:
#   * every id is answered exactly once, with no error line;
#   * seq runs contiguously over 0..n-1;
#   * each shard built each instance's model at most once: with one
#     worker per shard (8 cached models), model_builds is at most the 4
#     distinct instances, and every other job it ran was a reuse
#     (model_builds + model_reuses == routed). Bounded-load placement
#     spills a hot instance's surplus to the other shard, so how many
#     instances each shard sees depends on timing.
#
# Usage: tests/e2e/shard_long_session.sh SAIM_SHARD
# (ctest passes the built binary; saim_serve must sit next to it.)
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 SAIM_SHARD" >&2
  exit 2
fi

python3 - "$1" <<'EOF'
import json
import random
import subprocess
import sys
import threading

PER_INSTANCE = 1250
INSTANCES = (1, 2, 3, 4)
rng = random.Random(7)
order = [k for k in INSTANCES for _ in range(PER_INSTANCE)]
rng.shuffle(order)
n = len(order)
blob = "".join(
    json.dumps({"id": "j%d" % i, "gen": "qkp:200-25-%d" % k,
                "iterations": 2, "sweeps": 30,
                "seed": rng.randrange(1, 1 << 31)}) + "\n"
    for i, k in enumerate(order)).encode()

proc = subprocess.Popen(
    [sys.argv[1], "--shards", "2", "--workers", "1", "--cache", "0"],
    stdin=subprocess.PIPE, stdout=subprocess.PIPE)
killer = threading.Timer(120.0, proc.kill)  # a wedged fleet fails, not hangs
killer.start()


def feed():
    proc.stdin.write(blob)
    proc.stdin.flush()


writer = threading.Thread(target=feed)
writer.start()
seen = {}
seqs = []
while len(seen) < n:
    line = proc.stdout.readline()
    assert line, "saim_shard closed its output after %d of %d" % (len(seen), n)
    msg = json.loads(line)
    assert "error" not in msg, msg
    assert msg["id"] not in seen, ("answered twice", msg["id"])
    seen[msg["id"]] = msg
    seqs.append(msg["seq"])
writer.join()

proc.stdin.write(b'{"cmd":"stats","id":"s"}\n')
proc.stdin.flush()
fleet = json.loads(proc.stdout.readline())["fleet"]
proc.stdin.close()
rest = proc.stdout.read()
code = proc.wait()
killer.cancel()
assert rest == b"", rest
assert code == 0, code

assert sorted(seen) == sorted("j%d" % i for i in range(n))
assert sorted(seqs) == list(range(n)), "seq is not 0..n-1"
builds = 0
for shard in fleet["shards"]:
    routed, service = shard["routed"], shard["service"]
    assert service["model_builds"] <= len(INSTANCES), (shard["shard"], service)
    assert service["executed"] == routed, service
    assert service["model_builds"] + service["model_reuses"] == routed, \
        service
    builds += service["model_builds"]
spilled = sum(shard["spilled"] for shard in fleet["shards"])
print("long session OK: %d jobs, %d model builds, %d spilled"
      % (n, builds, spilled))
EOF
