#!/usr/bin/env python3
"""Serving benchmark for `mpmb serve`, with per-layer attribution.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. One invocation builds `mpmb` and the
in-process layer harness (`perfbench/layers`) from source into
`$CARGO_TARGET_DIR` (default `.bench_build`), launches real
`mpmb serve` processes, drives them from this one client process over
raw TCP, checks every answer, and prints one JSON object as the last
line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With `--trace 0` the metrics are the `end_to_end` list of
BENCHMARK.json, with `--trace 1` the `per_layer` list. A human-readable
report goes to stderr. perfbench/README.md describes every workload and
metric.

The client is closed-loop with at most two connections; each request
opens its own connection (`Connection: close`) and is timed from connect
to the last body byte. Requests are generated from `--seed`; the graphs
are fixed per workload. Any failed, refused or wrong answer makes the
exit code non-zero.
"""

import argparse
import copy
import ctypes
import hashlib
import json
import math
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_SPEC = ROOT / "BENCHMARK.json"

# Graph generation seed, fixed so every request seed runs on the same graphs.
GEN_SEED = 7
SERVER_THREADS = 2

MOVIELENS = "dataset:movielens:0.10:%d" % GEN_SEED
PROTEIN = "dataset:protein:0.02:%d" % GEN_SEED

# Each workload: topology, graphs (requests alternate between them), the
# mix new keys rotate through, which requests repeat an earlier key,
# client connections, latency limit, how many fresh server sets measure
# set-up, and the length of the count pass (a fixed prefix of the
# schedule replayed one request at a time on fresh servers, whose
# server-side work counts must repeat exactly).
WORKLOADS = {
    "interactive": {
        "topology": "single",
        "graphs": {"ml": MOVIELENS},
        "mix": [
            ("/v1/solve", {"method": "fast", "trials": 2000}),
            ("/v1/solve", {"method": "ols", "trials": 2000}),
            ("/v1/solve", {"method": "os", "trials": 500}),
            ("/v1/topk", {"method": "os", "trials": 500}),
            ("/v1/count", {"method": "fast", "trials": 2000}),
        ],
        "repeat_every": 3,
        "limit_ms": 100.0,
        "setups": 15,
        "count_pass": 30,
        "layers": ("movielens", 0.10, {"os": 500, "ols": 2000, "prep": 100, "fast": 2000}),
    },
    "heavy": {
        "topology": "single",
        "graphs": {"prot": PROTEIN},
        "mix": [
            ("/v1/solve", {"method": "os", "trials": 50}),
            ("/v1/solve", {"method": "ols", "trials": 2000, "prep": 100}),
            ("/v1/solve", {"method": "fast", "trials": 100000}),
        ],
        "limit_ms": 1000.0,
        "setups": 5,
        "count_pass": 3,
        "layers": ("protein", 0.02, {"os": 50, "ols": 2000, "prep": 100, "fast": 100000}),
    },
    "cluster": {
        "topology": "cluster",
        "graphs": {"ml": MOVIELENS},
        "mix": [
            ("/v1/solve", {"method": "os", "trials": 20000}),
            ("/v1/solve", {"method": "os", "trials": 20000}),
            ("/v1/solve", {"method": "ols", "trials": 20000}),
        ],
        "limit_ms": 500.0,
        "setups": 15,
        "count_pass": 4,
        "reference_sample": 4,
        # One connection: two concurrent os solves on the worker share
        # both cores with the coordinator and the client, and their
        # contention made the median swing between runs.
        "connections": 1,
        "layers": ("movielens", 0.10, {"os": 20000, "ols": 20000, "prep": 100, "fast": 2000}),
    },
    "churn": {
        "topology": "single",
        "graphs": {"a": ("protein", 0.02, GEN_SEED), "b": ("protein", 0.02, GEN_SEED + 1)},
        "server_flags": ["--mem-budget", "1"],
        "mix": [("/v1/solve", {"method": "fast", "trials": 2000})],
        "repeat_every": 2,
        # One connection: two would keep both graphs pinned and resident.
        "connections": 1,
        "limit_ms": 250.0,
        "setups": 15,
        "count_pass": 8,
        "layers": ("protein", 0.02, {"os": 50, "ols": 2000, "prep": 100, "fast": 2000}),
    },
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failure that ends the run without a result line."""


# ----------------------------------------------------------------------
# Statistics


def quantile(samples, q):
    """Exact nearest-rank quantile: the smallest sample with at least a
    share `q` of all samples at or below it. Never interpolates, so the
    result is always an observed sample and never exceeds the maximum."""
    if not samples:
        raise ValueError("quantile of no samples")
    xs = sorted(samples)
    if q <= 0:
        return xs[0]
    # Rounding first keeps 0.9 * 10 from ceiling to 10.
    rank = math.ceil(round(q * len(xs), 9))
    return xs[min(max(rank, 1), len(xs)) - 1]


def self_test():
    """Property check of `quantile`: q1 <= q2 implies
    quantile(q1) <= quantile(q2) <= max, and fixed known ranks."""
    rng = random.Random(20250417)
    grid = [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0]
    for _ in range(2000):
        n = rng.randint(1, 60)
        xs = [rng.choice([rng.random(), float(rng.randint(0, 5))]) for _ in range(n)]
        qs = sorted(rng.sample(grid, 2) + [rng.random(), rng.random()])
        values = [quantile(xs, q) for q in qs]
        for a, b in zip(values, values[1:]):
            if a > b:
                raise BenchError("quantile not monotone: %r over %r" % (values, qs))
        if values[-1] > max(xs) or values[0] < min(xs):
            raise BenchError("quantile outside the samples: %r" % values)
        if quantile(xs, 1.0) != max(xs):
            raise BenchError("quantile(1.0) is not the maximum")
    ten = list(range(1, 11))
    expect = {0.5: 5, 0.9: 9, 0.99: 10, 0.1: 1, 0.0: 1}
    for q, want in expect.items():
        if quantile(ten, q) != want:
            raise BenchError("quantile(1..10, %s) = %s, want %s" % (q, quantile(ten, q), want))


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


# ----------------------------------------------------------------------
# HTTP over raw TCP


def http_request(method, path, body=b"", rid=None):
    head = ["%s %s HTTP/1.1" % (method, path), "Host: 127.0.0.1", "Connection: close"]
    if rid:
        head.append("X-Request-Id: %s" % rid)
    if body:
        head.append("Content-Type: application/json")
    head.append("Content-Length: %d" % len(body))
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


class Response:
    __slots__ = ("status", "headers", "body", "connect", "sent", "ttfb", "total", "error", "start")

    def __init__(self):
        self.status = 0
        self.headers = {}
        self.body = b""
        # Seconds from the start of the exchange: connected, request
        # written, and the whole exchange; `ttfb` runs from `sent` to
        # the first response byte.
        self.connect = self.sent = self.ttfb = self.total = 0.0
        self.start = 0.0
        self.error = None


def read_response(sock, resp, t_sent=None):
    """Reads one HTTP/1.1 response (Content-Length framed) into `resp`."""
    buf = b""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            raise OSError("connection closed before the response head")
        if t_sent is not None and not buf:
            resp.ttfb = time.perf_counter() - t_sent
        buf += chunk
    head, _, rest = buf.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    resp.status = int(lines[0].split()[1])
    for line in lines[1:]:
        name, _, value = line.partition(":")
        resp.headers[name.strip().lower()] = value.strip()
    length = int(resp.headers.get("content-length", "0"))
    while len(rest) < length:
        chunk = sock.recv(max(65536, length - len(rest)))
        if not chunk:
            raise OSError("connection closed mid-body")
        rest += chunk
    resp.body = rest[:length]


def exchange(port, raw, timeout=30.0):
    """One request on a fresh connection, timed from connect to the last
    body byte. Transport errors land in `error`, never raise."""
    resp = Response()
    t0 = time.perf_counter()
    resp.start = t0
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
            t1 = time.perf_counter()
            resp.connect = t1 - t0
            s.sendall(raw)
            t2 = time.perf_counter()
            resp.sent = t2 - t0
            read_response(s, resp, t2)
    except (OSError, ValueError, IndexError) as e:
        resp.error = "%s: %s" % (type(e).__name__, e)
    resp.total = time.perf_counter() - t0
    return resp


def get(port, path):
    r = exchange(port, http_request("GET", path))
    if r.error or r.status != 200:
        raise BenchError("GET %s on :%d failed: %s" % (path, port, r.error or r.status))
    return r.body


def scrape(port):
    """`/metrics` as {(name, ((label, value), ...)): value}."""
    out = {}
    for line in get(port, "/metrics").decode().splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name, _, labels = series.partition("{")
        pairs = []
        for item in labels.rstrip("}").split('",') if labels else []:
            k, _, v = item.partition("=")
            pairs.append((k.strip(), v.strip().strip('"')))
        out[(name, tuple(sorted(pairs)))] = float(value)
    return out


def series_sum(snapshot, name, **labels):
    want = set(labels.items())
    return sum(v for (n, ls), v in snapshot.items() if n == name and want <= set(ls))


def delta(before, after, name, **labels):
    return series_sum(after, name, **labels) - series_sum(before, name, **labels)


# ----------------------------------------------------------------------
# Processes

CHILDREN = []


def _die_with_parent():
    # Linux: a server outlives no benchmark, even one killed with SIGKILL.
    try:
        ctypes.CDLL(None).prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG
    except (OSError, AttributeError):
        pass


def spawn(argv, log_path):
    with open(log_path, "ab") as err:
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=err, stderr=err, preexec_fn=_die_with_parent
        )
    CHILDREN.append(proc)
    return proc


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc in CHILDREN:
        CHILDREN.remove(proc)


def stop_all():
    for proc in list(CHILDREN):
        stop(proc)


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def proc_cpu_seconds(pid):
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rpartition(")")[2].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


class Node:
    def __init__(self, role, port, proc, trace_file):
        self.role, self.port, self.proc, self.trace_file = role, port, proc, trace_file


class Deployment:
    """The server processes of one workload: `entry`, the last node
    started, is the one the client talks to (the single server, or the
    coordinator)."""

    def __init__(self, nodes):
        self.nodes = nodes
        self.entry = nodes[-1]

    def stop(self):
        for n in self.nodes:
            stop(n.proc)


def wait_ready(node, names, deadline, ready_at, errors):
    """Polls `GET /v1/graphs` until every graph in `names` is listed and
    records the perf_counter time it was. Each poll is a fresh
    connection, as every request of the benchmark is, so set-up counts
    what a new client waits for, accept included."""
    raw = http_request("GET", "/v1/graphs")
    while time.perf_counter() < deadline:
        if node.proc.poll() is not None:
            errors.append("%s exited with %s" % (node.role, node.proc.returncode))
            return
        resp = exchange(node.port, raw, timeout=10.0)
        if resp.error is None and resp.status == 200:
            listed = {g["name"] for g in json.loads(resp.body)["graphs"]}
            if names <= listed:
                ready_at.append(time.perf_counter())
                return
        time.sleep(0.001)
    errors.append("%s not ready in time" % node.role)


def launch(ctx, traced=False, topology=None):
    """Starts the workload's servers and waits until every node lists
    every graph. Returns the deployment and its set-up seconds."""
    wl = ctx.wl
    topology = topology or wl["topology"]
    graph_flags = []
    for name, spec in ctx.graph_specs.items():
        graph_flags += ["--graph", "%s=%s" % (name, spec)]
    base = [str(ctx.mpmb), "serve", "--threads", str(SERVER_THREADS)] + wl.get("server_flags", [])
    ctx.launches += 1
    tag = "%s%d" % ("traced" if traced else "plain", ctx.launches)

    def node_argv(role, port, extra):
        argv = base + ["--listen", "127.0.0.1:%d" % port, "--role", role] + extra + graph_flags
        trace_file = None
        if traced:
            trace_file = ctx.run_dir / ("%s-%s.trace.jsonl" % (tag, role))
            argv += ["--trace", str(trace_file), "--budget-header"]
        return argv, trace_file

    plan = []
    if topology == "cluster":
        wport, cport = free_port(), free_port()
        plan.append(("worker", wport, []))
        plan.append(("coordinator", cport, ["--workers", "127.0.0.1:%d" % wport]))
    else:
        plan.append(("single", free_port(), []))
    t0 = time.perf_counter()
    nodes = []
    for role, port, extra in plan:
        argv, trace_file = node_argv(role, port, extra)
        proc = spawn(argv, ctx.run_dir / ("%s-%s.log" % (tag, role)))
        nodes.append(Node(role, port, proc, trace_file))
    dep = Deployment(nodes)
    ready_at, errors = [], []
    names = set(ctx.graph_specs)
    pollers = [
        threading.Thread(target=wait_ready, args=(n, names, t0 + 150.0, ready_at, errors))
        for n in nodes
    ]
    for p in pollers:
        p.start()
    for p in pollers:
        p.join()
    if errors or len(ready_at) != len(nodes):
        dep.stop()
        raise BenchError("set-up failed: %s" % "; ".join(errors))
    return dep, max(ready_at) - t0


# ----------------------------------------------------------------------
# Request schedule


class Request:
    __slots__ = ("index", "path", "graph", "method", "key", "raw_body", "first")

    def __init__(self, index, path, graph, params, first):
        self.index, self.path, self.graph, self.first = index, path, graph, first
        self.method = params.get("method", "exact")
        body = dict(params, graph=graph)
        self.raw_body = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
        self.key = path + " " + self.raw_body.decode()


class Schedule:
    """The workload's request sequence, a pure function of the seed,
    generated lazily so a faster server never runs out of requests."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.rng = random.Random(seed * 1_000_003 + 17)
        self.items = []
        self.distinct = {}  # graph -> distinct keys in first-seen order
        self.first_of = {}  # key -> index of its first request
        self.seeds = set()
        self.lock = threading.Lock()

    def get(self, i):
        with self.lock:
            while len(self.items) <= i:
                self.items.append(self._next(len(self.items)))
            return self.items[i]

    def _fresh_seed(self):
        while True:
            s = self.rng.randrange(1, 2**31)
            if s not in self.seeds:
                self.seeds.add(s)
                return s

    def _next(self, i):
        wl, rng = self.wl, self.rng
        graphs = sorted(wl["graphs"])
        graph = graphs[i % len(graphs)]
        seen = self.distinct.setdefault(graph, [])
        every = wl.get("repeat_every", 0)
        if seen and every and (i // len(graphs)) % every == every - 1:
            key = rng.choice(seen[-32:])
            req = copy.copy(self.items[self.first_of[key]])
            req.index = i
            return req
        path, params = wl["mix"][i % len(wl["mix"])]
        req = Request(i, path, graph, dict(params, seed=self._fresh_seed()), i)
        self.first_of[req.key] = i
        seen.append(req.key)
        return req


# ----------------------------------------------------------------------
# Answer checks


class Checker:
    """Checks every answer; remembers the first body per key so repeats
    (and the same key on other servers) must match it byte for byte."""

    def __init__(self):
        self.first_body = {}
        self.lock = threading.Lock()
        self.attempted = 0
        self.failures = []

    def check(self, req, resp):
        why = self._why(req, resp)
        with self.lock:
            self.attempted += 1
            if why is None:
                prior = self.first_body.setdefault(req.key, resp.body)
                if prior != resp.body:
                    why = "body differs from the first answer for the same key"
            if why is not None:
                self.failures.append("request %d %s: %s" % (req.index, req.key[:120], why))
        return why is None

    def fail(self, what):
        with self.lock:
            self.attempted += 1
            self.failures.append(what)

    @staticmethod
    def _why(req, resp):
        if resp.error:
            return resp.error
        if resp.status != 200:
            return "status %d: %s" % (resp.status, resp.body[:200])
        try:
            doc = json.loads(resp.body)
        except ValueError as e:
            return "unparseable body: %s" % e
        if not isinstance(doc, dict) or doc.get("graph") != req.graph:
            return "answer is not about graph %s" % req.graph
        if "trials_requested" in doc and doc.get("trials_done") != doc["trials_requested"]:
            return "incomplete: %s of %s trials" % (doc.get("trials_done"), doc["trials_requested"])
        if req.method == "fast":
            vals = [doc.get(k) for k in ("ci_low", "estimate", "ci_high")]
            if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals):
                return "fast answer has non-finite fields %r" % vals
            if not vals[0] <= vals[1] <= vals[2]:
                return "fast answer violates ci_low <= estimate <= ci_high: %r" % vals
        return None


# ----------------------------------------------------------------------
# Load phases


class Sample:
    __slots__ = ("req", "resp", "ok", "rid")

    def __init__(self, req, resp, ok, rid):
        self.req, self.resp, self.ok, self.rid = req, resp, ok, rid


class Loop:
    """A measured phase: its position in the schedule and the keys it
    has answered."""

    def __init__(self, name):
        self.name = name
        self.next = 0
        self.done = {}
        self.lock = threading.Lock()

    def event_for(self, key):
        with self.lock:
            return self.done.setdefault(key, threading.Event())


def drive(ctx, loop, port, seconds):
    """Closed loop on the workload's connections (default 2) for
    `seconds`: each connection takes the next request of the schedule
    when its previous one completes. A repeated key waits until its
    first request has been answered, so whether it can hit the cache
    does not depend on timing. Requests in flight at the deadline finish
    and count; the wall time covers them."""
    samples = []
    start = time.perf_counter()
    deadline = start + seconds

    def client():
        while True:
            with loop.lock:
                if time.perf_counter() >= deadline:
                    return
                i = loop.next
                loop.next += 1
            req = ctx.schedule.get(i)
            if req.first != i:
                loop.event_for(req.key).wait(timeout=30.0)
            rid = "pb-%s-%s-%d" % (ctx.workload, loop.name, i)
            resp = exchange(port, http_request("POST", req.path, req.raw_body, rid))
            ok = ctx.checker.check(req, resp)
            if req.first == i:
                loop.event_for(req.key).set()
            with loop.lock:
                samples.append(Sample(req, resp, ok, rid))

    conns = ctx.wl.get("connections", 2)
    threads = [threading.Thread(target=client, daemon=True) for _ in range(conns)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    samples.sort(key=lambda s: s.req.index)
    return samples, wall


def count_pass(ctx, dep):
    """Replays the schedule's first `count_pass` requests one at a time
    on fresh servers and returns the server-side work counts, which are
    a pure function of the seed."""
    n = ctx.wl["count_pass"]
    before = {node.role: scrape(node.port) for node in dep.nodes}
    for i in range(n):
        req = ctx.schedule.get(i)
        rid = "pb-%s-count-%d" % (ctx.workload, i)
        resp = exchange(dep.entry.port, http_request("POST", req.path, req.raw_body, rid))
        ctx.checker.check(req, resp)
    after = {node.role: scrape(node.port) for node in dep.nodes}
    counts = {"requests": n}
    for node in dep.nodes:
        b, a = before[node.role], after[node.role]
        for label, name, labels in [
            ("cache_hits", "mpmb_cache_hits_total", {}),
            ("cache_misses", "mpmb_cache_misses_total", {}),
            ("materializations", "mpmb_graph_materializations_total", {}),
            ("evictions", "mpmb_graph_evictions_total", {}),
            ("ranges", "mpmb_cluster_ranges_dispatched_total", {}),
            ("trials_executed", "mpmb_trials_executed_total", {}),
        ]:
            counts["%s.%s" % (node.role, label)] = delta(b, a, name, **labels)
        # The listing step is a span, not an engine phase: its item
        # count reaches /debug/trace but not /metrics.
        listing = {
            t["trace_id"]: t["phases"]["ols.listing"]["items"]
            for t in json.loads(get(node.port, "/debug/trace"))["traces"]
            if t["trace_id"].startswith("pb-%s-count-" % ctx.workload) and "ols.listing" in t["phases"]
        }
        counts[node.role + ".listings"] = len(listing)
        counts[node.role + ".listing_items"] = sum(listing.values())
        first = first_ols(ctx)
        if first is not None:
            rid = "pb-%s-count-%d" % (ctx.workload, first.index)
            ctx.first_ols_listing = listing.get(rid, ctx.first_ols_listing)
    return counts


def first_ols(ctx):
    """The schedule's first OLS request, if the count pass holds one."""
    for i in range(ctx.wl["count_pass"]):
        req = ctx.schedule.get(i)
        if req.method == "ols":
            return req
    return None


def binary_digest(path):
    """A short digest of a built binary's bytes, naming the code."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def check_counts(ctx, passes):
    """Deterministic counts must repeat exactly: between the passes of
    this run, and against an earlier run of the same workload and seed
    by the same `mpmb` binary in this build directory. Another binary
    gets a record of its own, so a change that moves a count is
    compared only with itself."""
    first = passes[0]
    for other in passes[1:]:
        if other != first:
            ctx.checker.fail("count pass differs between fresh servers: %r vs %r" % (first, other))
    record = ctx.counts_dir / ("%s-%d-%s.json" % (ctx.workload, ctx.seed, binary_digest(ctx.mpmb)))
    if record.exists():
        earlier = json.loads(record.read_text())
        if earlier != first:
            ctx.checker.fail("counts differ from an earlier run of seed %d: %r vs %r"
                             % (ctx.seed, earlier, first))
    else:
        record.write_text(json.dumps(first, sort_keys=True))
    return first


def reference_check(ctx, samples):
    """Cluster answers must equal a single-node server's, byte for byte,
    on a seeded sample of the keys the cluster answered."""
    answered = sorted({s.req.key: s.req for s in samples if s.ok}.values(), key=lambda r: r.index)
    rng = random.Random(ctx.seed * 7919 + 3)
    sample = rng.sample(answered, min(ctx.wl["reference_sample"], len(answered)))
    if not sample:
        ctx.checker.fail("cluster answered nothing to compare with the single-node reference")
        return
    ref, _ = launch(ctx, topology="single")
    try:
        for req in sorted(sample, key=lambda r: r.index):
            rid = "pb-%s-ref-%d" % (ctx.workload, req.index)
            resp = exchange(ref.entry.port, http_request("POST", req.path, req.raw_body, rid))
            # Same key => the checker compares with the cluster's bytes.
            ctx.checker.check(req, resp)
    finally:
        ref.stop()


def warm_up(ctx, dep):
    """Untimed requests with seeds the schedule never uses, from every
    connection at once as in the measured phase: a server's first
    concurrent solves pay one-off costs that would otherwise land on
    whichever measured requests come first."""
    conns = ctx.wl.get("connections", 2)

    def client(c):
        for graph in sorted(ctx.wl["graphs"]):
            for path, params in ctx.wl["mix"]:
                req = Request(-1, path, graph, dict(params, seed=2**31 + c), -1)
                resp = exchange(dep.entry.port, http_request("POST", req.path, req.raw_body))
                ctx.checker.check(req, resp)

    threads = [threading.Thread(target=client, args=(c,)) for c in range(conns)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def timed_phase(ctx, dep, loop):
    """Measures `loop` on a warmed-up deployment for `--seconds`, with
    the server-side deltas around it."""
    warm_up(ctx, dep)
    cpu0 = sum(proc_cpu_seconds(n.proc.pid) for n in dep.nodes)
    before = {n.role: scrape(n.port) for n in dep.nodes}
    samples, wall = drive(ctx, loop, dep.entry.port, ctx.seconds)
    after = {n.role: scrape(n.port) for n in dep.nodes}
    cpu1 = sum(proc_cpu_seconds(n.proc.pid) for n in dep.nodes)
    hwm = sum(proc_hwm_mb(n.proc.pid) for n in dep.nodes)
    return {
        "samples": samples,
        "wall": wall,
        "before": before,
        "after": after,
        "cpu_s": cpu1 - cpu0,
        "hwm_mb": hwm,
    }


# ----------------------------------------------------------------------
# Metrics


def end_to_end(ctx, run, setups):
    samples, wall = run["samples"], run["wall"]
    ok = [s for s in samples if s.ok]
    lat = [s.resp.total * 1e3 for s in ok]
    limit = ctx.wl["limit_ms"]
    if not lat:
        raise BenchError("no request succeeded")
    return {
        # The mean, not the median: graphs that load within one 50 ms
        # accept poll make single set-ups two-valued (the first connect
        # wins or loses a race with the first accept), and the median of
        # a two-valued sample jumps between the values.
        "setup_s": mean(setups),
        "throughput_rps": len(ok) / wall,
        "goodput_rps": sum(1 for x in lat if x <= limit) / wall,
        "latency_p50_ms": quantile(lat, 0.5),
        "latency_p90_ms": quantile(lat, 0.9),
        "server_peak_rss_mb": run["hwm_mb"],
        "server_cpu_ms_per_req": run["cpu_s"] * 1e3 / len(samples),
    }


BUCKETS = ("queue", "materialize", "prepare", "trials", "network", "finalize")


def budget_of(resp):
    header = resp.headers.get("x-mpmb-budget")
    if header is None:
        return None
    out = {}
    for pair in header.split(";"):
        name, _, value = pair.partition("=")
        out[name] = float(value)
    if set(out) != set(BUCKETS):
        return None
    return out


def worker_compute_s(trace_file, rids):
    """Seconds the worker spent serving range calls of the given
    requests, from the `cluster.range.served` events of its own trace."""
    total = 0.0
    if trace_file is None or not trace_file.exists():
        return total
    with open(trace_file) as f:
        for line in f:
            if "cluster.range.served" not in line:
                continue
            ev = json.loads(line)
            if ev.get("name") == "cluster.range.served" and ev.get("trace") in rids:
                total += ev.get("dur_us", 0) / 1e6
    return total


def phase_rate(before, after, phase, per):
    """Engine phase cost from `/metrics` deltas summed over nodes: per
    trial (`per="trial"`, in us) or per phase run (`per="call"`, in ms)."""
    secs = sum(delta(before[r], after[r], "mpmb_solver_phase_seconds_sum", phase=phase) for r in before)
    if per == "trial":
        n = sum(delta(before[r], after[r], "mpmb_solver_phase_trials_total", phase=phase) for r in before)
        return secs * 1e6 / n if n else 0.0
    n = sum(delta(before[r], after[r], "mpmb_solver_phase_seconds_count", phase=phase) for r in before)
    return secs * 1e3 / n if n else 0.0


def per_layer(plain, traced, dep, counts, layers):
    samples = [s for s in traced["samples"] if s.ok]
    if not samples:
        raise BenchError("no traced request succeeded")
    budgets = [budget_of(s.resp) for s in samples]
    if any(b is None for b in budgets):
        raise BenchError("a traced response lacks a complete X-Mpmb-Budget header")
    lat = [s.resp.total for s in samples]
    unattributed = [(t - sum(b.values())) * 1e3 for t, b in zip(lat, budgets)]
    total_lat = sum(lat)
    n = len(samples)
    entry = dep.entry.role
    b, a = traced["before"], traced["after"]
    m = {}
    m["client.connect_ms"] = quantile([s.resp.connect * 1e3 for s in samples], 0.5)
    m["client.ttfb_ms"] = quantile([s.resp.ttfb * 1e3 for s in samples], 0.5)
    m["server.unattributed_p50_ms"] = quantile(unattributed, 0.5)
    m["server.unattributed_p99_ms"] = quantile(unattributed, 0.99)
    m["server.unattributed_share"] = m["server.unattributed_p50_ms"] / (quantile(lat, 0.5) * 1e3)
    m["server.queue_ms"] = mean([x["queue"] for x in budgets]) * 1e3
    m["server.finalize_ms"] = mean([x["finalize"] for x in budgets]) * 1e3
    m["server.shed_429"] = delta(b[entry], a[entry], "mpmb_load_shed_total")
    # The closing /metrics scrape is one connection of our own.
    conns = delta(b[entry], a[entry], "mpmb_connections_total") - 1
    m["server.connections_per_req"] = conns / len(traced["samples"])
    requests = counts["requests"]
    hits = counts[entry + ".cache_hits"]
    lookups = hits + counts[entry + ".cache_misses"]
    m["cache.hit_ratio"] = hits / lookups if lookups else 0.0
    m["registry.materialize_ms"] = mean([x["materialize"] for x in budgets]) * 1e3
    m["registry.materializations_per_req"] = sum(
        v for k, v in counts.items() if k.endswith(".materializations")) / requests
    m["registry.evictions_per_req"] = sum(
        v for k, v in counts.items() if k.endswith(".evictions")) / requests
    m["storage.attach_ms"] = layers["storage.attach_ms"]
    m["storage.materialize_ms"] = layers["storage.materialize_ms"]
    m["registry.load_spec_ms"] = layers["registry.load_spec_ms"]
    m["datasets.generate_s"] = layers["datasets.generate_s"]
    for name, phase, per in [
        ("os.sample_us_per_trial", "os.sample", "trial"),
        ("ols.prepare_ms", "ols.prepare", "call"),
        ("ols.sample_us_per_trial", "ols.sample", "trial"),
        ("fast.sample_us_per_trial", "fast.sample", "trial"),
    ]:
        m[name + ".traced"] = phase_rate(b, a, phase, per)
        m[name + ".inproc"] = layers[name]
    listings = sum(v for k, v in counts.items() if k.endswith(".listings"))
    items = sum(v for k, v in counts.items() if k.endswith(".listing_items"))
    m["ols.listing_items"] = items / listings if listings else 0.0
    m["ols.listing_items.inproc"] = layers["ols.listing_items"]
    m["engine.trials_per_req"] = sum(
        v for k, v in counts.items() if k.endswith(".trials_executed")) / requests
    m["solve.trials_share"] = sum(x["trials"] for x in budgets) / total_lat
    m["solve.prepare_share"] = sum(x["prepare"] for x in budgets) / total_lat
    m["cluster.network_ms"] = mean([x["network"] for x in budgets]) * 1e3
    m["cluster.ranges_per_req"] = counts.get("coordinator.ranges", 0.0) / requests
    worker = next((nd for nd in dep.nodes if nd.role == "worker"), None)
    compute = worker_compute_s(worker.trace_file if worker else None, {s.rid for s in samples})
    m["cluster.worker_compute_ms"] = compute * 1e3 / n
    m["cluster.worker_wait_ms"] = m["cluster.network_ms"] - m["cluster.worker_compute_ms"] if worker else 0.0
    m["cluster.worker_errors"] = delta(b[entry], a[entry], "mpmb_cluster_worker_errors_total")
    plain_ok = [s.resp.total for s in plain["samples"] if s.ok]
    m["trace.overhead_share"] = mean(lat) / mean(plain_ok) - 1.0 if plain_ok else 0.0
    return m


def write_client_spans(path, samples):
    """The client's own spans of a traced phase, one JSON line each,
    keyed by the request id the server's trace carries too."""
    origin = min(s.resp.start for s in samples) if samples else 0.0
    with open(path, "w") as f:
        for s in samples:
            r = s.resp
            base = (r.start - origin) * 1e6
            first_byte = r.sent + r.ttfb
            for name, begin, end, parent in [
                ("client.request", 0.0, r.total, None),
                ("client.connect", 0.0, r.connect, "client.request"),
                ("client.send", r.connect, r.sent, "client.request"),
                ("client.ttfb", r.sent, first_byte, "client.request"),
                ("client.body", first_byte, r.total, "client.request"),
            ]:
                f.write(json.dumps({"trace": s.rid, "name": name, "parent": parent,
                                    "start_us": base + begin * 1e6,
                                    "end_us": base + end * 1e6}) + "\n")


def run_layers(ctx):
    dataset, scale, trials = ctx.wl["layers"]
    ols = first_ols(ctx)
    seed = json.loads(ols.raw_body)["seed"] if ols else ctx.seed
    argv = [
        str(ctx.layers_bin), "--dataset", dataset, "--scale", str(scale),
        "--gen-seed", str(GEN_SEED), "--seed", str(seed), "--dir", str(ctx.run_dir / "layers"),
        "--os-trials", str(trials["os"]), "--ols-trials", str(trials["ols"]),
        "--prep", str(trials["prep"]), "--fast-trials", str(trials["fast"]),
    ]
    out = subprocess.run(argv, stdout=subprocess.PIPE, timeout=150)
    if out.returncode != 0:
        raise BenchError("layer harness failed with %d" % out.returncode)
    layers = json.loads(out.stdout.decode().strip().splitlines()[-1])
    # Same key, same graph: the in-process listing must be the server's.
    if ctx.first_ols_listing is not None and ctx.first_ols_listing != layers["ols.listing_items"]:
        ctx.checker.fail("in-process OLS listing has %d items, the server's %d"
                         % (layers["ols.listing_items"], ctx.first_ols_listing))
    return layers


# ----------------------------------------------------------------------
# Entry point


class Context:
    pass


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    for argv in (
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "mpmb", "--bin", "mpmb"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(ROOT / "perfbench" / "layers" / "Cargo.toml")],
    ):
        res = subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
        if res.returncode != 0:
            raise BenchError("build failed: %s" % " ".join(argv))


def make_containers(ctx):
    """Churn serves container files; write them with `mpmb generate`."""
    specs = {}
    for name, spec in ctx.wl["graphs"].items():
        if isinstance(spec, str):
            specs[name] = spec
            continue
        dataset, scale, seed = spec
        path = ctx.run_dir / ("%s.ubgc" % name)
        res = subprocess.run(
            [str(ctx.mpmb), "generate", "--dataset", dataset, "--scale", str(scale),
             "--seed", str(seed), "--output", str(path)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL)
        if res.returncode != 0:
            raise BenchError("cannot write container %s" % path)
        specs[name] = str(path)
    return specs


def load_spec_lists():
    spec = json.loads(BENCH_SPEC.read_text())
    return spec["end_to_end"], spec["per_layer"]


def emit(ctx, wanted, values):
    missing = [w["name"] for w in wanted if w["name"] not in values]
    if missing:
        raise BenchError("metrics not computed: %s" % ", ".join(missing))
    metrics = {w["name"]: {"value": float(values[w["name"]]), "unit": w["unit"]} for w in wanted}
    failed = len(ctx.checker.failures)
    for f in ctx.checker.failures[:20]:
        log("FAILED:", f)
    result = {
        "correct": failed == 0,
        "attempted": max(ctx.checker.attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return failed == 0


def report(ctx, name, values):
    log("[%s seed=%d] %s" % (ctx.workload, ctx.seed, name))
    for k in sorted(values):
        log("  %-36s %.6g" % (k, values[k]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true", help="check the quantile code and exit")
    args = ap.parse_args()
    self_test()
    if args.self_test:
        log("quantile self-test passed")
        return 0
    if not args.workload:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "Cargo.toml").exists():
        raise BenchError("no Cargo workspace at %s: run from a full checkout" % ROOT)
    e2e_spec, layer_spec = load_spec_lists()

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()
    build(target)
    ctx = Context()
    ctx.workload, ctx.wl, ctx.seed, ctx.seconds = args.workload, WORKLOADS[args.workload], args.seed, args.seconds
    ctx.mpmb = target / "release" / "mpmb"
    ctx.layers_bin = target / "release" / "perfbench-layers"
    ctx.run_dir = target / "perfbench" / args.workload
    ctx.counts_dir = target / "perfbench" / "counts"
    shutil.rmtree(ctx.run_dir, ignore_errors=True)
    ctx.run_dir.mkdir(parents=True)
    ctx.counts_dir.mkdir(parents=True, exist_ok=True)
    ctx.schedule = Schedule(ctx.wl, args.seed)
    ctx.checker = Checker()
    ctx.launches = 0
    ctx.first_ols_listing = None
    ctx.graph_specs = make_containers(ctx)

    # Fresh server sets: every one measures set-up; the first two also
    # run the count pass, the last one the measured phase.
    setups, passes = [], []
    for i in range(ctx.wl["setups"]):
        dep, secs = launch(ctx)
        setups.append(secs)
        try:
            if i < 2:
                passes.append(count_pass(ctx, dep))
            elif i == ctx.wl["setups"] - 1:
                plain = timed_phase(ctx, dep, Loop("plain"))
        finally:
            dep.stop()
    counts = check_counts(ctx, passes)
    if ctx.wl.get("reference_sample"):
        reference_check(ctx, plain["samples"])
    e2e = end_to_end(ctx, plain, setups)
    report(ctx, "end to end (%d requests, limit %.0f ms, failed share %.4f)" % (
        len(plain["samples"]), ctx.wl["limit_ms"],
        len(ctx.checker.failures) / max(ctx.checker.attempted, 1)), e2e)
    if args.trace == 0:
        return 0 if emit(ctx, e2e_spec, e2e) else 1

    dep, _ = launch(ctx, traced=True)
    try:
        traced = timed_phase(ctx, dep, Loop("traced"))
    finally:
        dep.stop()
    write_client_spans(ctx.run_dir / "client_spans.jsonl", traced["samples"])
    layers = run_layers(ctx)
    values = per_layer(plain, traced, dep, counts, layers)
    report(ctx, "per layer (%d traced requests)" % len(traced["samples"]), values)
    return 0 if emit(ctx, layer_spec, values) else 1


def _terminate(signum, _frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    try:
        code = main()
    except BenchError as e:
        log("error:", e)
        code = 2
    finally:
        stop_all()
    sys.exit(code)
