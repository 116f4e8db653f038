#!/usr/bin/env python3
"""perfbench — the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the SAIM library, saim_serve,
saim_shard and perfbench_algo1 into .bench_build/, runs one workload,
checks its outputs, prints a table of every metric by name and unit and,
as the last line, one JSON object with the metrics BENCHMARK.json lists:
the end-to-end set untraced, the per-layer set with --trace 1. A traced
run measures the workload untraced first, then traced, and reports the
difference as trace.overhead_pct.
"""

import argparse
import collections
import json
import os
import random
import selectors
import shutil
import socket
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import metrics as m  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
SCRATCH = os.path.join(ROOT, ".bench_build", "run")

SETUP_REPS = 21         # server set-ups per run; setup_s is their median
ONLINE_RATE = 200.0     # jobs/s offered by the open loop
ONLINE_WARMUP_S = 1.0   # leading share of the schedule left out of timing
FLEET_WAVE = 1200       # jobs per bulk wave; the first is a warm-up
FLEET_HOT = (1, 2, 3, 4)  # qkp:200-25-k; the ring splits them 3:1
REPLY_TIMEOUT_S = 30.0

CHILDREN = []  # every server process started, stopped in main()


def build():
    """Configures once, then builds incrementally (a no-op when current)."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise SystemExit("perfbench: no SAIM sources at %s; run from the "
                         "repository root" % ROOT)
    os.makedirs(SCRATCH, exist_ok=True)
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                        "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, **quiet)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   **quiet)


def binary(name):
    return os.path.join(BUILD, name)


def reap(proc, timeout):
    """Waits for `proc`, killing it after `timeout`; returns its CPU seconds
    (user + system, its waited-for children included)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, ru = os.wait4(proc.pid, 0)
            break
        time.sleep(0.005)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ru.ru_utime + ru.ru_stime


class Run:
    """What one workload measured: metric values plus the printed table."""

    def __init__(self):
        self.e2e = {}
        self.layers = {}
        self.table = []  # (name, value, unit, note)
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def row(self, name, value, unit, note=""):
        self.table.append((name, value, unit, note))


# ------------------------------------------------------------ algo1_qkp200

def algo1_once(seed, trace):
    out = subprocess.run(
        [binary("perfbench_algo1"), "--seed", str(seed),
         "--trace", str(int(trace))],
        check=True, capture_output=True, text=True, timeout=85)
    lines = [json.loads(x) for x in out.stdout.splitlines() if x]
    return ([x for x in lines if x["kind"] == "setup"],
            [x for x in lines if x["kind"] == "instance"],
            [x for x in lines if x["kind"] == "check"])


def run_algo1(seed, seconds, trace):
    del seconds  # fixed work: 8 instances x K steps, 12-24 s on 4 vCPUs
    r = Run()
    setups, instances, checks = algo1_once(seed, False)
    s = m.algo1_summary(instances)
    r.attempted = len(instances) + len(checks)
    r.failed = sum(not m.check_matches(c) for c in checks)
    r.correct = len(instances) == 8 and len(checks) == 1
    r.e2e = m.algo1_e2e(setups, s)
    r.row("raw.setup_s", m.median([x["total_ms"] for x in setups]) / 1e3,
          "s", "wall clock")
    r.row("raw.p50_ms", m.median([x for i in instances for x in i["step_ms"]]),
          "ms", "wall clock")
    r.row("probe.chunk_ms",
          m.median([x for i in instances for x in i["cal_ms"]]), "ms",
          "reference %.2f" % m.CAL_REF_MS)
    for name, unit in (("solve_s", "s"), ("ttff_s", "s"),
                       ("mcs_to_feasible", "MCS"), ("gap_pct", "%"),
                       ("feasible_pct", "%"), ("never_feasible", "count")):
        r.row(name, s[name], unit)
    r.row("proc.cpu_ms_per_job", 1e3 * s["cpu_s"] / s["samples"], "ms",
          "untraced")
    r.row("proc.cpu_util", s["cpu_s"] / s["solve_s"], "cpu", "untraced")
    r.row("check.stepped_equals_solve", int(r.failed == 0), "bool",
          checks[0]["name"] if checks else "missing")
    if trace:
        setups_t, traced, checks_t = algo1_once(seed, True)
        r.attempted += len(checks_t)
        r.failed += sum(not m.check_matches(c) for c in checks_t)
        r.correct = r.correct and len(checks_t) == 1
        r.layers, rows = m.algo1_layers(setups_t, traced, s["p50_ms"])
        r.table += rows
    r.correct = r.correct and r.failed == 0
    return r


# ------------------------------------------------------------ servers

class Lines:
    """Lines read from a pipe or socket, each under a deadline, so a lost
    reply ends the wait instead of blocking it."""

    def __init__(self, stream):
        self.fd = stream.fileno()
        self.sel = selectors.DefaultSelector()
        self.sel.register(self.fd, selectors.EVENT_READ)
        self.buf = b""
        self.ready = collections.deque()  # (arrival time, line)
        self.arrival = None  # perf_counter() when the last line was read
        self.eof = False

    def next(self, deadline):
        """The next whole line, or None at end of file or once the
        perf_counter() time `deadline` has passed."""
        while not self.ready:
            wait = deadline - time.perf_counter()
            if self.eof or wait <= 0 or not self.sel.select(wait):
                return None
            chunk = os.read(self.fd, 1 << 16)
            got = time.perf_counter()
            self.eof = not chunk
            *done, self.buf = (self.buf + chunk).split(b"\n")
            self.ready.extend((got, line) for line in done)
        self.arrival, line = self.ready.popleft()
        return line

    def close(self):
        self.sel.close()


def spawn_ms():
    """Milliseconds to spawn and reap `true`: the host's process start-up
    speed, which server set-up follows. Timed while no server runs."""
    t0 = time.perf_counter()
    subprocess.run(["true"], check=True)
    return 1e3 * (time.perf_counter() - t0)


def serve_argv(workers, cache):
    return ["--workers", str(workers), "--cache", str(cache)]


def start_listen_server():
    """Spawns saim_serve --listen and returns (proc, socket) once it has
    answered a ping.

    The port file is a FIFO, so the wait for the port is a read with a
    deadline rather than a loop of short sleeps. Scaled by the spawn
    probe, set-up timed this way varied less (CV 5.8%) than with a
    polled file (7.1%).
    """
    fifo = os.path.join(SCRATCH, "port.%d" % os.getpid())
    if os.path.exists(fifo):
        os.unlink(fifo)
    os.mkfifo(fifo)
    # Read-write, so the FIFO reads no end of file before saim_serve opens it.
    with open(os.open(fifo, os.O_RDWR | os.O_NONBLOCK), "rb",
              buffering=0) as port_in:
        proc = subprocess.Popen(
            [binary("saim/saim_serve"), "--listen", "127.0.0.1:0",
             "--port-file", fifo, "--stream"] + serve_argv(2, 0),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        CHILDREN.append(proc)
        reader = Lines(port_in)
        line = reader.next(time.perf_counter() + 10.0)
        reader.close()
    os.unlink(fifo)
    if line is None:
        raise RuntimeError("saim_serve did not publish its port")
    port = int(line)
    sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.sendall(b'{"cmd":"ping"}\n')
    buf = b""
    while b"\n" not in buf:
        chunk = sock.recv(4096)
        if not chunk:
            raise RuntimeError("saim_serve closed before answering ping")
        buf += chunk
    if b"pong" not in buf:
        raise RuntimeError("unexpected ping reply %r" % buf)
    return proc, sock


def stop_listen_server(proc, sock):
    """Shuts the server down, returns its CPU seconds."""
    try:
        sock.settimeout(10.0)
        sock.sendall(b'{"cmd":"shutdown"}\n')
        while sock.recv(65536):
            pass
    except OSError:
        pass
    sock.close()
    return reap(proc, 10.0)


def open_loop(sock, schedule, lines):
    """Sends lines[i] at schedule[i] s after start, sleeping in between,
    and collects replies. Returns (scheduled abs times, lateness s,
    replies, arrival abs time per reply)."""
    sock.setblocking(False)
    reader = Lines(sock)
    start = time.perf_counter() + 0.05
    due = [start + t for t in schedule]
    late = []
    replies, arrivals = [], []
    i = 0
    deadline = due[-1] + REPLY_TIMEOUT_S
    while len(replies) < len(lines) and not reader.eof:
        now = time.perf_counter()
        while i < len(lines) and now >= due[i]:
            late.append(now - due[i])
            view = memoryview(lines[i])
            while view:
                try:
                    view = view[sock.send(view):]
                except BlockingIOError:
                    time.sleep(0.0001)
            i += 1
            now = time.perf_counter()
        if now > deadline:
            break
        line = reader.next(due[i] if i < len(lines) else deadline)
        if line is not None:
            msg = json.loads(line)
            if "status" in msg or "error" in msg:
                replies.append(msg)
                arrivals.append(reader.arrival)
    reader.close()
    sock.setblocking(True)
    return due, late, replies, arrivals


def online_once(seed, seconds, trace):
    rng = random.Random(seed)
    instances = rng.sample(range(1, 1001), 4)
    warm = int(ONLINE_RATE * ONLINE_WARMUP_S)
    n = warm + max(1, int(ONLINE_RATE * seconds))
    ids = ["t%d" % k for k in range(n)]
    lines = []
    for k, job_id in enumerate(ids):
        job = {"id": job_id, "gen": "qkp:30-25-%d" % instances[k % 4],
               "iterations": 2, "sweeps": 30,
               "seed": rng.randrange(1, 1 << 31)}
        if trace:
            job["trace"] = True
        lines.append((json.dumps(job) + "\n").encode())
    schedule = m.poisson_schedule(rng.randrange(1 << 62), ONLINE_RATE, n)

    setups, spawns = [], []
    for rep in range(SETUP_REPS):
        spawns.append(spawn_ms())
        t0 = time.perf_counter()
        proc, sock = start_listen_server()
        setups.append(time.perf_counter() - t0)
        if rep + 1 < SETUP_REPS:
            stop_listen_server(proc, sock)
    t_start = time.perf_counter()
    due, late, replies, arrivals = open_loop(sock, schedule, lines)
    wall = time.perf_counter() - t_start
    cpu = stop_listen_server(proc, sock)
    due_by_id = dict(zip(ids[warm:], due[warm:]))
    lat_by_id = {r["id"]: 1e3 * (a - due_by_id[r["id"]])
                 for r, a in zip(replies, arrivals)
                 if r.get("id") in due_by_id}
    return {"setups": setups, "n": n, "ids": ids, "replies": replies,
            "lat_ms": list(lat_by_id.values()), "lat_by_id": lat_by_id,
            "late_ms": [1e3 * x for x in late[warm:]], "cpu": cpu,
            "wall": wall, "spawn_ms": spawns}


def cpu_rows(r, session):
    """Unscaled set-up and CPU figures of an untraced session."""
    r.row("raw.setup_s", m.median(session["setups"]), "s", "wall clock")
    r.row("probe.spawn_ms", m.median(session["spawn_ms"]), "ms",
          "reference %.2f" % m.SPAWN_REF_MS)
    r.row("proc.cpu_ms_per_job", 1e3 * session["cpu"] / session["n"], "ms",
          "untraced")
    r.row("proc.cpu_util", session["cpu"] / session["wall"], "cpu",
          "untraced")


def echo_rows(r, session, stages):
    """Median of each echoed `timing` stage, as table rows."""
    for stage, name in stages:
        r.row(name, m.median(m.echo_stage(session["replies"], stage)), "ms",
              "p50")


def run_online(seed, seconds, trace):
    r = Run()
    o = online_once(seed, seconds, False)
    r.attempted = o["n"]
    r.failed = m.delivery_failures(o["ids"], o["replies"])
    r.e2e = m.server_e2e(o)
    cpu_rows(r, o)
    r.row("failed_pct", 100.0 * r.failed / r.attempted, "%")
    r.row("samples", len(o["lat_ms"]), "count")
    r.row("client.p99_ms", m.quantile(o["lat_ms"], 0.99), "ms", "untraced")
    r.row("client.send_late_ms", m.quantile(o["late_ms"], 0.99), "ms", "p99")
    r.row("client.send_late_max_ms", max(o["late_ms"]), "ms")
    if trace:
        t = online_once(seed, seconds, True)
        r.attempted += t["n"]
        r.failed += m.delivery_failures(t["ids"], t["replies"])
        r.layers = m.server_layers(t, r.e2e["p50_ms"])
        echo_rows(r, t, (("queue_ms", "service.queue_ms"),
                           ("setup_ms", "service.setup_ms"),
                           ("solve_ms", "service.solve_ms"),
                           ("emit_ms", "saim_serve.emit_ms")))
        lat = t["lat_by_id"]
        residual = [lat[x["id"]] - x["timing"]["total_ms"]
                    - x["timing"]["emit_ms"]
                    for x in t["replies"] if x.get("id") in lat]
        r.row("net.residual_ms", m.median(residual), "ms", "p50")
    r.correct = r.failed == 0
    return r


# ------------------------------------------------------------ fleet_hot

def feed(pipe, blob):
    """Writes all of `blob` to `pipe`; a fleet killed mid-wave ends it."""
    view = memoryview(blob)
    try:
        while view:
            view = view[pipe.write(view):]
    except OSError:
        pass


class Fleet:
    """saim_shard over pipes; answers ping before it counts as set up."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [binary("saim/saim_shard"), "--shards", "2"] + serve_argv(1, 0),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, bufsize=0)
        CHILDREN.append(self.proc)
        self.lines = Lines(self.proc.stdout)
        self.proc.stdin.write(b'{"cmd":"ping"}\n')
        line = self.lines.next(time.perf_counter() + 10.0)
        if line is None or b"pong" not in line:
            raise RuntimeError("saim_shard did not answer ping")

    def stats(self, deadline):
        """The router's `fleet` stats object, or None past `deadline`."""
        self.proc.stdin.write(b'{"cmd":"stats"}\n')
        while True:
            line = self.lines.next(deadline)
            if line is None:
                return None
            msg = json.loads(line)
            if "fleet" in msg:
                return msg["fleet"]

    def close(self):
        """Ends the session; returns the fleet's CPU seconds."""
        self.proc.stdin.close()
        deadline = time.perf_counter() + 10.0
        while self.lines.next(deadline) is not None:
            pass
        self.lines.close()
        return reap(self.proc, 10.0)


def fleet_once(seed, seconds, trace):
    """Bulk waves, each through a fresh fleet whose spawn is one set-up.

    A fresh fleet per wave, because one long session falls, after 3000 to
    7000 jobs, into a regime where the busy shard's queue runs dry and
    batching stops; when that happens varies from run to run, and it
    would make the run's figures bimodal.
    """
    rng = random.Random(seed)
    setups, spawns, ids, replies, lat_ms, walls = [], [], [], [], [], []
    failed, cpu, routed = 0, 0.0, []
    t_begin, t_start = time.perf_counter(), None
    wave = 0
    while t_start is None or time.perf_counter() - t_start < seconds:
        order = [FLEET_HOT[k % len(FLEET_HOT)] for k in range(FLEET_WAVE)]
        rng.shuffle(order)
        wave_ids, blob = [], bytearray()
        for k, inst in enumerate(order):
            job = {"id": "w%d-%d" % (wave, k), "gen": "qkp:200-25-%d" % inst,
                   "iterations": 2, "sweeps": 30,
                   "seed": rng.randrange(1, 1 << 31)}
            if trace:
                job["trace"] = True
            wave_ids.append(job["id"])
            blob += (json.dumps(job) + "\n").encode()
        spawns.append(spawn_ms())
        t0 = time.perf_counter()
        fleet = Fleet()
        setups.append(time.perf_counter() - t0)
        writer = threading.Thread(target=feed, args=(fleet.proc.stdin, blob))
        t0 = time.perf_counter()
        deadline = t0 + REPLY_TIMEOUT_S
        writer.start()
        wave_replies = []
        while len(wave_replies) < FLEET_WAVE:
            line = fleet.lines.next(deadline)
            if line is None:
                break
            msg = json.loads(line)
            if "status" in msg or "error" in msg:
                wave_replies.append(msg)
                if wave:
                    lat_ms.append(1e3 * (fleet.lines.arrival - t0))
        complete = len(wave_replies) == FLEET_WAVE
        if wave:
            walls.append(time.perf_counter() - t0)
        else:
            t_start = time.perf_counter()
        if not complete:
            fleet.proc.kill()  # also ends a write the fleet stopped reading
        writer.join()
        stats = fleet.stats(deadline) if complete else None
        if stats is not None:
            routed.append([s["routed"] for s in stats["shards"]])
        cpu += fleet.close()
        failed += m.delivery_failures(wave_ids, wave_replies)
        ids += wave_ids
        replies += wave_replies
        wave += 1
        if stats is None:
            break  # what went missing counts in `failed`
    if not lat_ms:
        raise RuntimeError("fleet_hot: no reply in a timed wave")
    wall = time.perf_counter() - t_begin
    return {"setups": setups, "n": len(ids), "timed": len(lat_ms),
            "failed": failed, "replies": replies, "lat_ms": lat_ms,
            "walls": walls, "cpu": cpu, "wall": wall, "spawn_ms": spawns,
            "routed": [sum(x) for x in zip(*routed)]}


def run_fleet(seed, seconds, trace):
    r = Run()
    o = fleet_once(seed, seconds, False)
    r.attempted = o["n"]
    r.failed = o["failed"]
    r.e2e = m.server_e2e(o)
    cpu_rows(r, o)
    r.row("jobs_per_s", o["timed"] / sum(o["walls"]), "1/s")
    r.row("failed_pct", 100.0 * r.failed / r.attempted, "%")
    r.row("waves", len(o["walls"]), "count",
          "%d jobs each, after one warm-up wave" % FLEET_WAVE)
    r.row("client.p99_ms", m.quantile(o["lat_ms"], 0.99), "ms", "untraced")
    if o["routed"]:
        r.row("saim_shard.max_shard_share_pct",
              100.0 * max(o["routed"]) / sum(o["routed"]), "%")
    if trace:
        t = fleet_once(seed, seconds, True)
        r.attempted += t["n"]
        r.failed += t["failed"]
        r.layers = m.server_layers(t, r.e2e["p50_ms"])
        echo_rows(r, t, (("setup_ms", "service.setup_ms"),
                           ("solve_ms", "service.solve_ms"),
                           ("emit_ms", "saim_serve.emit_ms")))
        r.row("service.batch_size_mean", m.batch_size_mean(t["replies"]),
              "jobs")
    r.correct = r.failed == 0
    return r


WORKLOADS = {"algo1_qkp200": run_algo1, "online_tiny": run_online,
             "fleet_hot": run_fleet}


def stop_children():
    """Ends any server a failed run left behind. saim_shard gets EOF on
    stdin rather than a signal, so it stops its own children first."""
    for proc in CHILDREN:
        if proc.returncode is not None:
            continue
        if proc.stdin:
            proc.stdin.close()
        else:
            proc.terminate()
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def report(name, args, r, contract):
    units = {s["name"]: s["unit"]
             for s in contract["end_to_end"] + contract["per_layer"]}
    print("%s seed=%d trace=%d: %d attempted, %d failed"
          % (name, args.seed, args.trace, r.attempted, r.failed))
    for metric, value in list(r.e2e.items()) + list(r.layers.items()):
        print("  %-34s %14.6g %s" % (metric, value, units[metric]))
    for metric, value, unit, note in r.table:
        print("  %-34s %14.6g %-6s %s" % (metric, value, unit, note))
    values = r.layers if args.trace else r.e2e
    print(m.result_line(r.correct, r.attempted, r.failed, values,
                        bool(args.trace), contract), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    contract = m.load_contract()
    build()
    try:
        r = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
        report(args.workload, args, r, contract)
    finally:
        stop_children()


if __name__ == "__main__":
    main()
