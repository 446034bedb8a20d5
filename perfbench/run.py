#!/usr/bin/env python3
"""The latency ledger: hubhard's end-to-end serving benchmark.

Run from the root of a hubhard checkout:

    python3 perfbench/run.py --workload point-default --seed 1 --seconds 10 --trace 0

It builds the CLI from source, makes every input from --seed, drives the
real binary (`hubhard label`, `serve loop`, `serve query`, `serve router`),
checks every answer against an independent BFS (perfbench/truth.ml) and
prints the end-to-end metrics (--trace 0) or the per-layer metrics of the
traced in-process run (--trace 1, perfbench/layers.ml). The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
perfbench/README.md documents every metric and workload.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import select
import statistics
import subprocess
import sys
import threading
import time

CLI = os.path.join("_build", "default", "bin", "hubhard_cli.exe")
TRUTH = os.path.join("_build", "default", "perfbench", "truth.exe")
LAYERS = os.path.join("_build", "default", "perfbench", "layers.exe")
WORK = ".perfbench_work"

# The label command's own default seed: the graph (and so the store) is
# the same for every benchmark seed; the seed drives the query inputs.
GRAPH_SEED = 20190721

WORKLOADS = {
    # CLI defaults: the packed file is thawed to assoc labels, verified,
    # and every answer is spot-checked.
    "point-default": {
        "graph": "sparse", "n": 2000, "store": "assoc", "server": "loop",
        "serve_flags": [], "spot_check": 1, "stream_pairs": 16384,
    },
    # A store ~6x the L2 cache, mapped in place, spot-check off: the
    # store merge and its wrappers do the work.
    "point-large": {
        "graph": "road", "n": 10000, "store": "mmap", "server": "loop",
        "serve_flags": ["--mmap", "--spot-check-every", "0"], "spot_check": 0,
        "stream_pairs": 65536,
    },
    # The point-default store behind two forked shard workers.
    "sharded-mixed": {
        "graph": "sparse", "n": 2000, "store": "mmap", "server": "router",
        "serve_flags": ["--mmap", "--shards", "2"], "spot_check": 1,
        "stream_pairs": 16384,
    },
}

# A reader woken for every flushed answer line would cost more than the
# server: the stream reader pauses while fewer than READ_BATCH bytes came.
READ_BATCH = 16384
READ_PAUSE = 0.0005
ROUNDS = 8  # each run interleaves its phases over this many rounds
# store builds per run, spread over the rounds, so that build_s does not
# rest on the host's speed during a single 10-15 s point-large build
BUILDS = 3
WARMUP_QUERIES = 200  # closed-loop answers dropped before timing
# On a shared 2-vCPU virtual machine the client's CPU ran at two speeds
# that alternated every 0.3 to 5 s; a slow spell raised the closed loop's
# p50 by ~35% and its p99 (major-GC slices of the server) by ~70%, and a
# median over rounds landed on whichever speed held for most of a run.
# The closed-loop percentiles are taken per window of WINDOW consecutive
# answers instead, and each metric is a low order statistic, the
# QUIET_PCT-th percentile, of its per-window values: the program at the
# machine's quiet speed.
WINDOW = 2000
QUIET_PCT = 5
OPS_PER_RUN = 96  # timed --op requests per serving invocation
OP_TARGETS = 64  # targets of one-to-many and pairs of batch
TOP_K = 8
# The op kinds in the proportions 1 : 1 : 1 : 5, in a seeded order. With
# one kind above half of the ops, the median lies inside that kind's
# latencies; with equal shares it would sit on the boundary between two
# kinds and jump between them from seed to seed.
OP_MIX = ["ecc", "top-k", "one-to-many"] + ["batch"] * 5
# share of --seconds given to each measured phase
PHASES = {"closed": 0.5, "stream": 0.2, "ops": 0.3}
# reconciliation: the share of the streamed time per query that no
# measured layer accounts for must stay within this bound
RECONCILE_BOUND = 0.4

E2E_UNITS = {
    "query_p50_us": "us", "query_p99_us": "us", "query_qps": "1/s",
    "op_p50_ms": "ms", "op_p99_ms": "ms", "setup_s": "s", "build_s": "s",
    "serve_rss_mb": "MiB", "store_bytes": "bytes",
}

LAYER_UNITS = {
    "graph.parse_ms": "ms", "store.load_ms": "ms", "store.verify_ms": "ms",
    "store.query_ns_p50": "ns", "store.query_ns_p99": "ns",
    "store.query_samples": "count", "store.entries_per_query": "count",
    "store.minor_words_per_query": "words", "backend.self_ns": "ns",
    "obs.self_ns": "ns", "oracle.self_ns": "ns", "oracle.spot_check_ns": "ns",
    "oracle.spot_checks": "count", "oracle.disagreements": "count",
    "oracle.fallback_answers": "count", "oracle.spot_check_yield": "ratio",
    "cli.self_ns": "ns", "cli.loop_ns": "ns", "e2e.stream_ns_per_query": "ns",
    "wire.codec_ns_per_query": "ns", "wire.bytes_per_query": "bytes",
    "router.spawn_ms": "ms", "router.query_ns_per_query.shards1": "ns",
    "router.query_ns_per_query.shards2": "ns", "router.self_ns": "ns",
    "router.retries": "count", "router.restarts": "count",
    "router.degraded": "count", "ops.ecc.ns": "ns", "ops.top-k.ns": "ns",
    "ops.one-to-many.ns": "ns", "ops.batch.ns": "ns",
    "ops.index_build_ms": "ms", "router.op_overhead.ecc": "ns",
    "router.op_overhead.top-k": "ns", "router.op_overhead.one-to-many": "ns",
    "router.op_overhead.batch": "ns", "build.pll_s": "s", "build.pack_s": "s",
    "build.label_entries": "count", "build.avg_label_size": "count",
    "trace.overhead_frac": "ratio", "reconcile.residual_frac": "ratio",
}


def log(msg):
    print(msg, flush=True)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
    sys.exit(2)


# ----------------------------------------------------------------- build


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        fail("run me from the root of a hubhard checkout (no dune-project, "
             "lib/ or bin/ here)")
    targets = [CLI, TRUTH, LAYERS]
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet"]
        + [t[len("_build/default/"):] for t in targets],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        fail(f"dune build failed with exit {r.returncode}")


def label(wl, path):
    """`hubhard label ... --pack path`; its wall time in s."""
    argv = [CLI, "label", "--graph", wl["graph"], "-n", str(wl["n"]),
            "--pack", path, "--seed", str(GRAPH_SEED)]
    t0 = time.perf_counter()
    r = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, preexec_fn=placement(ANY))
    dt = time.perf_counter() - t0
    if r.returncode != 0:
        fail(f"{' '.join(argv)} exited {r.returncode}: {r.stderr.strip()}")
    return dt, argv


# ---------------------------------------------------------------- inputs


def make_inputs(rng, n, pairs, ops):
    """Uniform random pairs, and OPS op requests: the OP_MIX kinds in
    their proportions, in a seeded order."""
    stream = [(rng.randrange(n), rng.randrange(n)) for _ in range(pairs)]
    kinds = (OP_MIX * (ops // len(OP_MIX) + 1))[:ops]
    rng.shuffle(kinds)
    reqs = []
    for k in kinds:
        s = rng.randrange(n)
        if k == "ecc":
            reqs.append(f"ecc:{s}")
        elif k == "top-k":
            reqs.append(f"top-k:{s},{TOP_K}")
        elif k == "one-to-many":
            ts = ",".join(str(rng.randrange(n)) for _ in range(OP_TARGETS))
            reqs.append(f"one-to-many:{s}:{ts}")
        else:
            ps = ";".join(f"{rng.randrange(n)},{rng.randrange(n)}"
                          for _ in range(OP_TARGETS))
            reqs.append(f"batch:{ps}")
    return stream, reqs


def write_lines(path, lines):
    with open(path, "w") as f:
        f.writelines(line + "\n" for line in lines)


def ground_truth(graph, pairs, ops):
    """{(u, v): dist string} and {op: response string} by our own BFS."""
    req = os.path.join(WORK, "truth.req")
    out = os.path.join(WORK, "truth.out")
    uniq = sorted(set(pairs))
    uniq_ops = sorted(set(ops))
    write_lines(req, [f"p {u} {v}" for u, v in uniq]
                + [f"o {o}" for o in uniq_ops])
    r = subprocess.run([TRUTH, "answer", graph, req, out],
                       stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        fail(f"truth.exe exited {r.returncode}: {r.stderr.strip()}")
    with open(out) as f:
        answers = f.read().splitlines()
    return (dict(zip(uniq, answers[:len(uniq)])),
            dict(zip(uniq_ops, answers[len(uniq):])))


# ----------------------------------------------------- process plumbing


def proc_tree_rss_mib(pid):
    """Peak RSS (VmHWM) of pid plus its direct children, in MiB."""
    def hwm(p):
        try:
            with open(f"/proc/{p}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    kids = []
    for d in os.listdir("/proc"):
        if d.isdigit():
            try:
                with open(f"/proc/{d}/stat") as f:
                    stat = f.read()
                if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
                    kids.append(int(d))
            except (OSError, ValueError, IndexError):
                pass
    return (hwm(pid) + sum(hwm(k) for k in kids)) / 1024.0


def allowed_cpus():
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return []


# Placement: this client runs on the first allowed CPU. A server the
# client waits on (closed loop) shares that CPU, so a query is two
# context switches on one CPU rather than a cross-CPU wake-up whose cost
# depends on where the scheduler put them. Streaming servers get the
# second CPU to themselves. Router fleets and builds may use every CPU.
CPUS = allowed_cpus()
CLIENT, SERVER, ANY = 0, 1, None


def placement(where):
    """preexec_fn giving a child the CPU set of a placement."""
    if len(CPUS) < 2:
        return None
    cpus = set(CPUS) if where is ANY else {CPUS[where]}
    return lambda: os.sched_setaffinity(0, cpus)


class Server:
    """One serving process with our end of its stdin and stdout."""

    def __init__(self, argv, stdin=True, where=ANY):
        self.argv = argv
        self.err_path = os.path.join(WORK, "server.err")
        self.t_exec = time.perf_counter()
        with open(self.err_path, "wb") as err:
            self.p = subprocess.Popen(
                argv, stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=err,
                preexec_fn=placement(where))
        self.buf = b""
        self.lines = []  # (arrival time, line)

    def error(self):
        with open(self.err_path) as f:
            return f.read().strip()

    def send(self, data):
        """Write all of data; a server that died gets no more (its
        missing answers count as failures)."""
        view = memoryview(data)
        try:
            while view:
                view = view[os.write(self.p.stdin.fileno(), view):]
        except BrokenPipeError:
            pass

    def read_line(self, timeout=60.0):
        """Block until one more stdout line; None at EOF or timeout."""
        fd = self.p.stdout.fileno()
        while b"\n" not in self.buf:
            if not select.select([fd], [], [], timeout)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return line.decode()

    def read_until(self, count, pred=None, batched=False, timeout=120.0):
        """Read stdout until [count] lines matching pred (every line
        when None) arrived; each line is stamped with its chunk's
        arrival time. The work per chunk is kept small so the reader
        never becomes the bottleneck of a fast stream, and [batched]
        lets a stream's answers pile up between reads."""
        fd = self.p.stdout.fileno()
        got = 0
        deadline = time.perf_counter() + timeout
        while got < count:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return False
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return False
            now = time.perf_counter()
            self.buf += chunk
            if batched and len(chunk) < READ_BATCH:
                # let answers pile up in the pipe rather than waking
                # for every line the server flushes
                time.sleep(READ_PAUSE)
            if b"\n" not in chunk:
                continue
            done, _, self.buf = self.buf.rpartition(b"\n")
            lines = done.decode().split("\n")
            self.lines.extend((now, line) for line in lines)
            got += len(lines) if pred is None else sum(map(pred, lines))
        return True

    def finish(self, timeout=60.0):
        """Close stdin, collect the rest of stdout, reap; the exit code.
        A server that has not exited by the timeout is killed."""
        if self.p.stdin:
            try:
                self.p.stdin.close()
            except OSError:
                pass
            self.p.stdin = None
        try:
            out, _ = self.p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.p.kill()
            out, _ = self.p.communicate()
        now = time.perf_counter()
        rest = (self.buf + out).decode()
        self.buf = b""
        self.lines.extend((now, line) for line in rest.splitlines())
        return self.p.returncode


def parse_point(line):
    """'u v dist source [degraded]' -> ((u, v), dist, degraded) or None."""
    t = line.split()
    if len(t) in (4, 5) and t[0].isdigit() and t[1].isdigit() and " -> " not in line:
        degraded = t[3] != "primary" or (len(t) == 5 and t[4] == "degraded")
        return (int(t[0]), int(t[1])), t[2], degraded
    return None


def parse_op(line):
    """'req -> response source [degraded]' -> (req, response, degraded)."""
    if " -> " not in line:
        return None
    req, rest = line.split(" -> ", 1)
    t = rest.split(" ")
    degraded = t[-1] == "degraded"
    if degraded:
        t = t[:-1]
    return req, " ".join(t[:-1]), degraded or t[-1] != "primary"


class Ledger:
    """Requests sent, answers received, failures. Answers are appended
    to a file that truth.exe checks once the measuring is over; a run
    gets millions of them."""

    def __init__(self, name):
        self.path = os.path.join(WORK, name)
        self.file = open(self.path, "w")
        self.sent = self.answered = self.failed = self.degraded = 0

    def _record(self, sent, lines, code, parse, render):
        ok = code in (0, 12)  # 12: served, some answers marked degraded
        got = 0
        out = []
        for _, line in lines:
            a = parse(line)
            if a is None:
                continue
            got += 1
            self.degraded += a[-1]
            if ok:
                out.append(render(a))
            else:
                self.failed += 1
        self.file.write("".join(out))
        self.sent += sent
        self.answered += got
        self.failed += max(0, sent - got)

    def check_points(self, sent, lines, code):
        self._record(sent, lines, code, parse_point,
                     lambda a: f"p {a[0][0]} {a[0][1]} {a[1]}\n")

    def check_ops(self, sent, lines, code):
        self._record(sent, lines, code, parse_op,
                     lambda a: f"o {a[0]}\t{a[1]}\n")

    def verify(self, graph):
        """Count the recorded answers the BFS truth disagrees with."""
        self.file.close()
        r = subprocess.run([TRUTH, "check", graph, self.path],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True)
        if r.returncode != 0:
            fail(f"truth.exe exited {r.returncode}: {r.stderr.strip()}")
        *shown, wrong = r.stdout.splitlines()
        for line in shown:
            log(line)
        self.failed += int(wrong)


def pct(samples, p):
    """Exact order statistic (nearest rank) of the raw samples."""
    s = sorted(samples)
    k = max(1, -(-len(s) * p // 100))
    return s[int(k) - 1]


def quiet(windows, p):
    """The QUIET_PCT-th percentile over the windows of each window's exact
    p-th percentile."""
    return pct([pct(w, p) for w in windows], QUIET_PCT)


def pair_lines(pairs):
    return "".join(f"{u} {v}\n" for u, v in pairs).encode()


# -------------------------------------------------------------- phases


def serve_argv(wl, graph, store, extra, closed=False):
    if wl["server"] == "router":
        argv = [CLI, "serve", "router"]
    else:
        argv = [CLI, "serve", "loop"]
    argv += ["--graph-file", graph, "--labels-file", store, "--echo"]
    argv += wl["serve_flags"] + extra
    if closed and wl["server"] == "router":
        # one query in flight: the router answers at batch boundaries
        argv += ["--batch", "1"]
    return argv


def ops_argv(wl, graph, store, extra, ops, pairs_file):
    if wl["server"] == "router":
        argv = [CLI, "serve", "router", "--queries", pairs_file, "--echo"]
    else:
        argv = [CLI, "serve", "query"]
    argv += ["--graph-file", graph, "--labels-file", store]
    argv += wl["serve_flags"] + extra
    for o in ops:
        argv += ["--op", o]
    return argv


def first_batch(wl):
    return 64 if wl["server"] == "router" else 1


def server_cpu(wl, where):
    """The router forks its workers: the fleet goes where its router is,
    and only a closed loop confines it to the client's CPU."""
    return where if wl["server"] != "router" or where == CLIENT else ANY


def setup_once(wl, argv, rng, n, ledger):
    """Exec to first answer of a fresh server, in s."""
    pairs = [(rng.randrange(n), rng.randrange(n))
             for _ in range(first_batch(wl))]
    s = Server(argv, where=server_cpu(wl, SERVER))
    s.send(pair_lines(pairs))
    ok = s.read_until(1, lambda l: parse_point(l) is not None)
    t = s.lines[-1][0] - s.t_exec if ok else None
    code = s.finish()
    ledger.check_points(len(pairs), s.lines, code)
    if t is None:
        fail(f"no answer from {' '.join(argv)}: {s.error()}")
    return t


class ClosedLoop:
    """One client, one query in flight, against one server that lives
    for the whole run, as a serving process does: its warm-up (first
    page touches of a mapped store, heap growth) is paid once, in the
    first round, and not timed."""

    def __init__(self, wl, argv):
        self.s = Server(argv, where=server_cpu(wl, CLIENT))
        self.used = 0
        self.dead = False

    def measure(self, rng, n, seconds):
        """Latency samples in us, for [seconds]."""
        s = self.s
        lat = []
        stop = time.perf_counter() + seconds
        while not self.dead and (self.used < WARMUP_QUERIES
                                 or time.perf_counter() < stop):
            line = f"{rng.randrange(n)} {rng.randrange(n)}\n".encode()
            t0 = time.perf_counter_ns()
            s.send(line)
            ans = s.read_line()
            t1 = time.perf_counter_ns()
            self.used += 1
            if ans is None:
                self.dead = True
                break
            s.lines.append((0.0, ans))
            if self.used > WARMUP_QUERIES:
                lat.append((t1 - t0) / 1e3)
        return lat

    def finish(self, ledger):
        ledger.check_points(self.used, self.s.lines, self.s.finish())


def phase_stream(wl, argv, pairs, seconds, ledger):
    """Pipe the pair stream through fresh servers until [seconds] are
    used (at least once); qps and peak RSS of each."""
    qps, rss = [], []
    stop = time.perf_counter() + seconds
    data = pair_lines(pairs)
    while not qps or time.perf_counter() < stop:
        s = Server(argv, where=server_cpu(wl, SERVER))
        writer = threading.Thread(target=s.send, args=(data,), daemon=True)
        writer.start()
        ok = s.read_until(len(pairs), batched=True)
        writer.join(timeout=60)
        if ok:
            answers = [t for t, l in s.lines if parse_point(l) is not None]
            qps.append((len(answers) - 1) / (answers[-1] - answers[0]))
            rss.append(proc_tree_rss_mib(s.p.pid))
        code = s.finish()
        ledger.check_points(len(pairs), s.lines, code)
        if not ok:
            break
    return qps, rss


def phase_ops(wl, argv, seconds, ledger, npairs, make_ops):
    """Serving invocations with an --op list each until [seconds] are
    used (at least once); the intervals between consecutive op answer
    lines, in ms. The first op of an invocation has no predecessor, so
    it is not timed."""
    lat = []
    stop = time.perf_counter() + seconds
    while not lat or time.perf_counter() < stop:
        ops = make_ops()
        # ops may run on the default domain pool, so the server gets
        # every CPU
        s = Server(argv(ops), stdin=False, where=ANY)
        s.read_until(len(ops), lambda l: " -> " in l)
        code = s.finish()
        ledger.check_ops(len(ops), s.lines, code)
        if npairs:
            ledger.check_points(npairs, s.lines, code)
        t = [ts for ts, l in s.lines if parse_op(l) is not None]
        lat += [(b - a) * 1e3 for a, b in zip(t, t[1:])]
        if code not in (0, 12):
            break
    return lat


# ------------------------------------------------------------ provenance


def provenance(args, wl, argvs):
    def cmd(argv):
        try:
            return subprocess.run(argv, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True,
                                  timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            return None

    h = hashlib.sha256()
    for top in ("bin", "lib", "perfbench"):
        for d, _, files in sorted(os.walk(top)):
            for f in sorted(files):
                if f.endswith((".ml", ".mli", "dune")):
                    with open(os.path.join(d, f), "rb") as fh:
                        h.update(f.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "store_kind": wl["store"],
        "jobs": os.environ.get("HUBHARD_JOBS", "default"),
        "nproc": os.cpu_count(),
        "cpus_allowed": CPUS,
        "git_commit": cmd(["git", "rev-parse", "HEAD"]) or "unavailable",
        "source_sha256": h.hexdigest(),
        "ocaml": cmd(["ocamlfind", "ocamlopt", "-version"])
        or cmd(["ocamlopt", "-version"]) or "unknown",
        "python": platform.python_version(),
        "argv": argvs,
    }


# ---------------------------------------------------------------- runs


def run_e2e(args, wl, extra=()):
    """ROUNDS rounds, each with a share of every phase, so that a slow
    spell of the machine touches a minority of the rounds; per-round
    figures are combined by their median."""
    n = wl["n"]

    def rng(phase):
        # one stream per phase: a time-bounded phase that draws more
        # inputs does not shift the inputs of the others
        return random.Random(f"{args.workload}:{args.seed}:{phase}")

    rng_setup, rng_closed, rng_ops = rng("setup"), rng("closed"), rng("ops")
    store = os.path.join(WORK, "store.bin")
    graph = store + ".graph"
    rebuild = os.path.join(WORK, "rebuild.bin")
    stream_pairs, _ = make_inputs(rng("stream"), n, wl["stream_pairs"], 0)
    mixed_pairs_file = os.path.join(WORK, "mixed.pairs")
    mixed_pairs = stream_pairs[:1024] if wl["server"] == "router" else []
    write_lines(mixed_pairs_file, [f"{u} {v}" for u, v in mixed_pairs])
    def make_ops():
        # an untimed eccentricity first: it pays the lazy Hub_index build
        # that the first index-using op would otherwise carry
        _, ops = make_inputs(rng_ops, n, 0, OPS_PER_RUN)
        return [f"ecc:{rng_ops.randrange(n)}"] + ops

    ledger = Ledger("answers.e2e")
    extra = list(extra)
    argv = serve_argv(wl, graph, store, extra)
    closed_argv = serve_argv(wl, graph, store, extra, closed=True)
    ops_cmd = lambda ops: ops_argv(wl, graph, store, extra, ops,
                                   mixed_pairs_file)
    share = {k: args.seconds * v / ROUNDS for k, v in PHASES.items()}
    build_rounds = {r * ROUNDS // BUILDS for r in range(BUILDS)}
    builds, setups, qps, rss, op_lat = [], [], [], [], []
    p50s, p99s, op_p50s, closed_lat = [], [], [], []
    closed = None
    for r in range(ROUNDS):
        if r in build_rounds:
            # later builds write elsewhere: a live server may map the store
            dt, label_argv = label(wl, store if r == 0 else rebuild)
            builds.append(dt)
        setups.append(setup_once(wl, argv, rng_setup, n, ledger))
        closed = closed or ClosedLoop(wl, closed_argv)
        lat = closed.measure(rng_closed, n, share["closed"])
        p50s.append(pct(lat, 50))
        p99s.append(pct(lat, 99))
        closed_lat += lat
        q, m = phase_stream(wl, argv, stream_pairs, share["stream"], ledger)
        qps += q
        rss += m
        ol = phase_ops(wl, ops_cmd, share["ops"], ledger, len(mixed_pairs),
                       make_ops)
        op_p50s.append(pct(ol, 50))
        op_lat += ol
    closed.finish(ledger)
    ledger.verify(graph)
    windows = [closed_lat[i:i + WINDOW]
               for i in range(0, len(closed_lat) - WINDOW + 1, WINDOW)]
    if not windows:
        fail(f"the closed loop answered fewer than {WINDOW} queries")
    metrics = {
        "query_p50_us": quiet(windows, 50),
        "query_p99_us": quiet(windows, 99),
        "query_qps": statistics.median(qps),
        "op_p50_ms": statistics.median(op_p50s),
        "op_p99_ms": pct(op_lat, 99),
        "setup_s": statistics.median(setups),
        "build_s": statistics.median(builds),
        "serve_rss_mb": statistics.median(rss),
        "store_bytes": float(os.path.getsize(store)),
    }
    failed_frac = ledger.failed / max(1, ledger.sent)
    degraded_frac = ledger.degraded / max(1, ledger.answered)
    prov = provenance(args, wl, {
        "label": label_argv, "serve": argv, "closed_loop": closed_argv,
        "ops": ops_cmd(["<OP>"])})
    log("provenance: " + json.dumps(prov))
    log(f"samples: {ROUNDS} rounds; query_p50_us and query_p99_us are the "
        f"{QUIET_PCT}th percentiles over {len(windows)} windows of the "
        f"windows' exact percentiles ({WINDOW} closed-loop answers a window, "
        f"{WINDOW // 100} beyond its p99; {len(closed_lat)} answers in all); "
        f"query_qps the median of {len(qps)} "
        f"streams of {len(stream_pairs)} pairs; op_p50_ms the median of "
        f"per-round medians and op_p99_ms over all {len(op_lat)} op "
        f"intervals; setup_s the median of {len(setups)} servers; build_s "
        f"the median of {len(builds)} builds; serve_rss_mb the median of "
        f"{len(rss)} streaming servers")
    log("per round: query_p50_us " + " ".join(f"{x:.4g}" for x in p50s)
        + "; query_p99_us " + " ".join(f"{x:.4g}" for x in p99s)
        + "; op_p50_ms " + " ".join(f"{x:.4g}" for x in op_p50s))
    if len(windows) < 100 or len(op_lat) < 1000:
        log("warning: fewer than 100 closed-loop windows or 1000 op "
            "intervals (raise --seconds)")
    for k, v in metrics.items():
        log(f"{k} = {v:.6g} {E2E_UNITS[k]}")
    log(f"failed_frac = {failed_frac:.6g} ({ledger.failed} of {ledger.sent} "
        f"requests sent)")
    log(f"degraded_frac = {degraded_frac:.6g} ({ledger.degraded} of "
        f"{ledger.answered} answers)")
    return ledger.failed == 0, ledger.sent, ledger.failed, {
        k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}, {
        "failed_frac": failed_frac, "degraded_frac": degraded_frac}


def run_traced(args, wl):
    rng = random.Random(f"{args.workload}:{args.seed}:layers")
    n = wl["n"]
    store = os.path.join(WORK, "store.bin")
    graph = store + ".graph"
    _, label_argv = label(wl, store)
    pairs, ops = make_inputs(rng, n, 8192, OPS_PER_RUN)
    pairs_file = os.path.join(WORK, "layers.pairs")
    ops_file = os.path.join(WORK, "layers.ops")
    write_lines(pairs_file, [f"{u} {v}" for u, v in pairs])
    write_lines(ops_file, ops)
    truth_p, truth_o = ground_truth(graph, pairs, ops)
    ledger = Ledger("answers.layers")
    # the untraced end-to-end stream this run reconciles against: the
    # workload's store kind and spot-check cadence in 'serve loop'
    loop_wl = dict(wl, server="loop", serve_flags=(
        ["--mmap"] if wl["store"] == "mmap" else [])
        + ["--spot-check-every", str(wl["spot_check"])])
    loop_argv = serve_argv(loop_wl, graph, store, [])
    qps, _ = phase_stream(loop_wl, loop_argv, pairs, 2.0, ledger)
    e2e_ns = 1e9 / statistics.median(qps)
    ledger.verify(graph)
    out = os.path.join(WORK, "layers.json")
    layers_argv = [LAYERS, "--graph", graph, "--store", store,
                   "--kind", wl["store"], "--pairs", pairs_file,
                   "--ops", ops_file, "--spot-check", str(wl["spot_check"]),
                   "--out", out]
    r = subprocess.run(layers_argv, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        fail(f"layers.exe exited {r.returncode}: {r.stderr.strip()}")
    with open(out) as f:
        res = json.load(f)
    m, digests = res["metrics"], res["digests"]
    # every row must answer exactly what the BFS truth says
    truth_sha = hashlib.sha256(",".join(
        truth_p[p] for p in pairs).encode()).hexdigest()
    truth_ops_sha = hashlib.sha256("\n".join(
        truth_o[o] for o in ops).encode()).hexdigest()
    checks = {k: v == (truth_ops_sha if k.endswith("ops") else truth_sha)
              for k, v in digests.items()
              if k not in ("build.store", "store.file")}
    checks["build.store"] = digests["build.store"] == digests["store.file"]
    bad = sorted(k for k, ok in checks.items() if not ok)
    m["e2e.stream_ns_per_query"] = e2e_ns
    m["cli.self_ns"] = e2e_ns - m["stack.mean_ns"]
    residual = (m["cli.self_ns"] - m["cli.loop_ns"]) / e2e_ns
    m["reconcile.residual_frac"] = residual
    spot = m["oracle.spot_check_ns"] if wl["spot_check"] else 0.0
    parts = {
        "store": m["store.mean_ns"], "backend": m["backend.self_ns"], "obs": m["obs.self_ns"],
        "oracle": m["oracle.self_ns"], "spot_check": spot,
        "cli_loop": m["cli.loop_ns"],
    }
    prov = provenance(args, wl, {"label": label_argv, "serve": loop_argv,
                                 "layers": layers_argv})
    log("provenance: " + json.dumps(prov))
    log(f"digests: {len(checks)} rows compared with the BFS truth; "
        f"mismatched: {bad or 'none'}")
    log("self time per query (ns): " + ", ".join(
        f"{k} {v:.0f}" for k, v in parts.items())
        + f"; sum {sum(parts.values()):.0f} against the streamed "
        f"end-to-end {e2e_ns:.0f}; unattributed share {residual:+.3f} "
        f"(bound +-{RECONCILE_BOUND})"
        + ("" if abs(residual) <= RECONCILE_BOUND else " EXCEEDED"))
    log(f"trace overhead: per-call timing adds {m['trace.overhead_frac']:+.3%} "
        f"to the untraced in-process stack ({m['stack.mean_ns']:.0f} ns/query)")
    log(f"store.query_ns_p50/p99 over {m['store.query_samples']:.0f} samples")
    failed = len(bad) + ledger.failed
    metrics = {k: {"value": m[k], "unit": u} for k, u in LAYER_UNITS.items()}
    return failed == 0, len(checks) + ledger.sent, failed, metrics, {}


def self_test(args):
    """The gate's own check, with the CLI's fault-injection flags: silent
    corruption (spot-checks off) must fail the run, and with the default
    spot-checks the same faults must show up as degraded answers."""
    wl = WORKLOADS["point-default"]
    args.workload = "point-default"
    inject = ["--inject-fraction", "0.01", "--inject-mode", "corrupt"]
    log("self-test 1/2: corrupt 1% of primary answers, spot-checks off")
    silent = run_e2e(args, wl, inject + ["--spot-check-every", "0"])
    log("self-test 2/2: the same faults, spot-checks on (the default)")
    checked = run_e2e(args, wl, inject)
    verdicts = {
        "silent corruption reported as a failed run":
            not silent[0] and silent[4]["failed_frac"] > 0,
        "spot-checked corruption reported as degraded":
            checked[4]["degraded_frac"] > 0,
    }
    for what, ok in verdicts.items():
        log(f"self-test: {what}: {'yes' if ok else 'NO'}")
    return all(verdicts.values()), len(verdicts), sum(
        not ok for ok in verdicts.values()), {}, {}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that the correctness gate catches injected "
                    "corruption (runs point-default twice)")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    build()
    os.makedirs(WORK, exist_ok=True)
    if len(CPUS) >= 2:
        os.sched_setaffinity(0, {CPUS[CLIENT]})
    # a collection inside a timed round trip would be measured as the
    # server's latency; nothing here builds reference cycles
    gc.disable()
    if args.self_test:
        result = self_test(args)
    else:
        run = run_traced if args.trace else run_e2e
        result = run(args, WORKLOADS[args.workload])
    correct, attempted, failed, metrics, _ = result
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
