#!/usr/bin/env python3
"""Repository benchmark for the Aurora III reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 20 --trace 0

It builds `aurora-serve` and the benchmark's own probe (`perfbench/probe`)
from source, drives the real daemon from this one client process, checks
every answer against references computed through the repository's own
sweep paths, and prints one JSON result as the last line of standard
output. `perfbench/README.md` describes the workloads,
the metrics and the known-defect ledger.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
import types

WORK = ".perfbench"  # relative to the checkout, so unix socket paths stay short
SCALE = "small"
MODELS = ["small", "baseline", "large"]
ISSUES = ["single", "dual"]
LATENCIES = [17, 35]
PAPER_CONFIGS = [
    {"model": m, "issue": i, "latency": {"fixed": lat}}
    for m in MODELS for i in ISSUES for lat in LATENCIES
]
# What-if values avoid every preset's own value, so a what-if cell is
# never the memoised paper-grid cell under another name.
KNOBS = {
    "mshr_entries": [3, 6, 8],
    "write_cache_lines": [1, 3, 6, 12],
    "prefetch_depth": [1, 2, 4, 6],
    "rob_entries": [3, 4, 12, 16],
}
MIX_MIN_QUERIES = 1000
TRACE_MIX_QUERIES = 300
MIX_WHATIF_EVERY = 10
CLIENTS = 2
GRID_SETUPS = 5
GRID_MIN_PASSES = 4
MIX_SETUPS = 2


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build

def bench_env():
    env = dict(os.environ)
    env.pop("AURORA_TRACE_CACHE", None)  # every run starts trace-cold
    env["CARGO_TARGET_DIR"] = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    return env


def build(env):
    for path in ("Cargo.toml", "crates", "perfbench/probe/Cargo.toml"):
        if not os.path.exists(path):
            raise BenchError(f"`{path}` missing: run from the root of a full checkout")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "aurora-serve", "--bin", "aurora-serve"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", "perfbench/probe/Cargo.toml"],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    return {name: os.path.join(release, name)
            for name in ("aurora-serve", "perfbench-probe")}


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def revision():
    """The git revision when there is one, and always a digest of the
    source tree the binaries were built from."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "src", "vendor", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            if os.path.isfile(p) and "/target/" not in p:
                h.update(p.encode())
                h.update(file_digest(p).encode())
    rev = {"tree": h.hexdigest()[:16]}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if out.returncode == 0:
            rev["git"] = out.stdout.strip()
    except OSError:
        pass
    return rev


# ------------------------------------------------------------ references

def cell_key(config, workload, mode):
    return json.dumps([config, workload, mode or "exact"], sort_keys=True)


def grid_request(configs, workloads, mode=None):
    doc = {"configs": configs, "workloads": workloads, "scale": SCALE}
    if mode:
        doc["mode"] = mode
    return doc


def grid_spec(doc):
    """A request document in the probe's plain grid form (scale `small`)."""
    configs = ",".join(
        ":".join([c["model"], c["issue"], str(c["latency"]["fixed"])]
                 + [f"{k}={v}" for k, v in c.get("overrides", {}).items()])
        for c in doc["configs"])
    return f"{doc.get('mode') or 'exact'} {','.join(doc['workloads'])} {configs}"


def compute_references(bins, env, grids):
    """Reference answers for `grids`: {cell_key: expected stats}."""
    text = "".join(grid_spec(g) + "\n" for g in grids)
    out = subprocess.run([bins["perfbench-probe"], "reference"], input=text,
                         capture_output=True, text=True, env=env)
    if out.returncode != 0:
        raise BenchError(f"reference probe failed: {out.stderr.strip()}")
    lines = out.stdout.splitlines()
    if len(lines) != len(grids):
        raise BenchError("reference probe answered the wrong number of grids")
    refs = {}
    for grid, line in zip(grids, lines):
        rows = json.loads(line)["cells"]
        for config, row in zip(grid["configs"], rows):
            for workload, cell in zip(grid["workloads"], row):
                refs[cell_key(config, workload, grid.get("mode"))] = cell
    return refs


def paper_references(bins, env, kernels):
    """Exact and sampled references over the paper grid, cached per probe
    build: the grid is the same for every seed."""
    path = os.path.join(WORK, f"ref-paper-{file_digest(bins['perfbench-probe'])[:16]}.json")
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)
    refs = compute_references(bins, env, [grid_request(PAPER_CONFIGS, kernels),
                                          grid_request(PAPER_CONFIGS, kernels, "sampled")])
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(refs, f)
    os.replace(tmp, path)
    return refs


def accuracy(refs, kernels):
    """Mean |sampled - exact| / exact CPI in percent, and the share of
    sampled CIs that contain the exact CPI, over the paper grid."""
    errs, covered = [], 0
    for c in PAPER_CONFIGS:
        for w in kernels:
            exact = refs[cell_key(c, w, None)]["cpi"]
            s = refs[cell_key(c, w, "sampled")]
            errs.append(abs(s["cpi"] - exact) / exact * 100)
            covered += abs(s["cpi"] - exact) <= s["ci_half_width"]
    return statistics.fmean(errs), covered / len(errs)


def check_response(doc, lines, refs):
    """Every failure a response can show, as a list of messages."""
    problems = []
    try:
        parsed = [json.loads(line) for line in lines]
    except ValueError as e:
        return [f"unparsable line: {e}"]
    errors = [p for p in parsed if p.get("type") == "error"]
    if errors:
        return [f"error line: {errors[0].get('message')}"]
    if not parsed or parsed[-1].get("type") != "summary":
        problems.append("missing summary")
    n = len(doc["configs"]) * len(doc["workloads"])
    seen = set()
    for p in parsed:
        if p.get("type") != "cell":
            continue
        ci, w = p.get("config"), p.get("workload")
        if (ci, w) in seen:
            problems.append(f"duplicate cell {ci}/{w}")
        seen.add((ci, w))
        if not isinstance(ci, int) or not 0 <= ci < len(doc["configs"]) or w not in doc["workloads"]:
            problems.append(f"cell outside the grid: {ci}/{w}")
            continue
        ref = refs.get(cell_key(doc["configs"][ci], w, doc.get("mode")))
        stats = p.get("stats", {})
        if ref is None:
            problems.append(f"no reference for {ci}/{w}")
        elif doc.get("mode") == "sampled":
            if stats.get("cpi") != ref["cpi"] or stats.get("ci_half_width") != ref["ci_half_width"]:
                problems.append(f"sampled cell {ci}/{w} differs from run_sampled_digest")
        elif stats.get("fingerprint") != ref["fingerprint"]:
            problems.append(f"exact cell {ci}/{w} differs from run_matrix")
    if len(seen) != n:
        problems.append(f"{len(seen)} distinct cells, expected {n}")
    if parsed and parsed[-1].get("type") == "summary":
        s = parsed[-1]
        if s.get("cells") != n or s.get("memo_hits", 0) + s.get("simulated", 0) != n:
            problems.append("summary does not account for every cell")
    return problems


# ------------------------------------------------------------- programs

def reap(proc, started):
    """Waits for `proc`; returns (exit status, wall s, cpu s, peak RSS MB)."""
    _, status, ru = os.wait4(proc.pid, 0)
    proc.returncode = status
    return status, time.perf_counter() - started, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024


class Daemon:
    """A fresh `aurora-serve` on a new, empty store directory."""

    def __init__(self, bins, env, workdir, tag):
        self.store = os.path.join(workdir, f"store-{tag}")
        self.sock = os.path.join(workdir, f"{tag}.sock")
        shutil.rmtree(self.store, ignore_errors=True)
        self.stopped = None
        self.drain = None
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [bins["aurora-serve"], "--store", self.store, "--unix", self.sock],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env)
        for line in self.proc.stdout:
            if line.startswith(b"listening"):
                break
        else:
            self.stop()
            raise BenchError("aurora-serve exited before listening")
        self.ready_s = time.perf_counter() - self.started
        self.drain = threading.Thread(target=self.proc.stdout.read, daemon=True)
        self.drain.start()

    def stop(self):
        """Terminates and reaps the daemon; returns its wall and CPU
        seconds and peak RSS."""
        if self.stopped is None:
            self.proc.terminate()
            _, wall, cpu, rss = reap(self.proc, self.started)
            if self.drain is not None:
                self.drain.join()
            self.proc.stdout.close()
            self.stopped = {"wall_s": wall, "cpu_s": cpu, "rss_mb": rss}
        return self.stopped

    def store_bytes(self):
        return sum(os.path.getsize(os.path.join(self.store, f)) for f in os.listdir(self.store))


def send(sock, doc):
    """One query over the unix socket. Returns (latency s, time to first
    line s or None, response lines)."""
    body = json.dumps(doc).encode() + b"\n"
    t0 = time.perf_counter()
    first = None
    chunks = []
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.connect(sock)
        s.sendall(body)
        s.shutdown(socket.SHUT_WR)
        while True:
            chunk = s.recv(1 << 16)
            if not chunk:
                break
            if first is None and b"\n" in chunk:
                first = time.perf_counter() - t0
            chunks.append(chunk)
    latency = time.perf_counter() - t0
    lines = [l for l in b"".join(chunks).decode().split("\n") if l.strip()]
    return latency, first, lines


# ------------------------------------------------------------- workloads

class Tally:
    """Requests attempted and failed, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.lock = threading.Lock()

    def record(self, problems, what):
        with self.lock:
            self.attempted += 1
            if problems:
                self.failed += 1
                if len(self.messages) < 5:
                    self.messages.append(f"{what}: {problems[0]}")


def grid_query(sock, doc, refs, tally, what):
    try:
        latency, first, lines = send(sock, doc)
        problems = check_response(doc, lines, refs)
    except OSError as e:
        latency, first, lines, problems = 0.0, None, [], [f"connection: {e}"]
    tally.record(problems, what)
    return latency, first, lines


def summaries(lines):
    return [json.loads(l) for l in lines if '"type":"summary"' in l]


def paper_grid_pass(ctx, daemon, rng):
    """The paper grid at both accuracy levels, configs and kernels in a
    seeded order. Returns (exact s, first cell s, sampled s, response
    lines, request documents)."""
    configs = rng.sample(PAPER_CONFIGS, len(PAPER_CONFIGS))
    kernels = rng.sample(ctx.kernels, len(ctx.kernels))
    exact_doc = grid_request(configs, kernels)
    sampled_doc = grid_request(configs, kernels, "sampled")
    ex, first, ex_lines = grid_query(daemon.sock, exact_doc, ctx.refs, ctx.tally, "exact grid")
    sm, _, sm_lines = grid_query(daemon.sock, sampled_doc, ctx.refs, ctx.tally, "sampled grid")
    return ex, first, sm, ex_lines + sm_lines, [exact_doc, sampled_doc]


def run_grid_cold(ctx, seconds):
    rng = random.Random(ctx.seed)
    setups, lat, first, rss, exact, sampled, par, util = [], [], [], [], [], [], [], []
    store_bytes, simulated = 0, 0
    start = time.perf_counter()
    while len(lat) < GRID_MIN_PASSES or time.perf_counter() - start < seconds:
        daemon = Daemon(ctx.bins, ctx.env, ctx.workdir, f"g{len(lat)}")
        try:
            setups.append(daemon.ready_s)
            ex, fc, sm, lines, docs = paper_grid_pass(ctx, daemon, rng)
            store_bytes = daemon.store_bytes()
        finally:
            stopped = daemon.stop()
        lat.append(ex + sm)
        first.append(fc if fc is not None else ex)
        exact.append(ex)
        sampled.append(sm)
        rss.append(stopped["rss_mb"])
        util.append(stopped["cpu_s"] / stopped["wall_s"])
        for s in summaries(lines):
            par.append(s.get("achieved_parallelism", 0.0))
            simulated += s.get("simulated", 0)
        ctx.last_docs = docs
    elapsed = time.perf_counter() - start
    while len(setups) < GRID_SETUPS:
        d = Daemon(ctx.bins, ctx.env, ctx.workdir, f"s{len(setups)}")
        setups.append(d.ready_s)
        d.stop()
    cells = 2 * len(PAPER_CONFIGS) * len(ctx.kernels)
    return {
        "setup": setups, "latency": lat, "first": first, "completed": len(lat),
        "elapsed": elapsed, "rss": rss,
        "extra": {"exact_grid_s": statistics.median(exact),
                  "sampled_grid_s": statistics.median(sampled),
                  "first_cell_s": statistics.median(first),
                  "achieved_parallelism": statistics.fmean(par) if par else 0.0,
                  "cpu_util": statistics.median(util),
                  "store_bytes": store_bytes,
                  "dup_sim_ratio": simulated / (cells * len(lat))},
    }


def mix_queries(seed, kernels, n):
    """The seeded query sequence: memoised sub-grids, and every tenth
    query a what-if that overrides one knob on one config. What-ifs take
    the knobs and the two modes in turn, so every seed asks the same mix
    of them; configs, values and kernels are seeded."""
    rng = random.Random(seed)
    knobs = sorted(KNOBS)
    out = []
    for i in range(n):
        if i % MIX_WHATIF_EVERY == MIX_WHATIF_EVERY - 1:
            k = i // MIX_WHATIF_EVERY
            knob = knobs[(k // 2) % len(knobs)]
            mode = (None, "sampled")[k % 2]
            base = rng.choice(PAPER_CONFIGS)
            configs = [dict(base, overrides={knob: rng.choice(KNOBS[knob])})]
            ws = rng.sample(kernels, rng.randint(1, 2))
            out.append(("what-if", grid_request(configs, ws, mode)))
        else:
            mode = rng.choice([None, "sampled"])
            configs = rng.sample(PAPER_CONFIGS, rng.randint(2, 4))
            ws = rng.sample(kernels, rng.randint(2, 5))
            out.append(("memo", grid_request(configs, ws, mode)))
    return out


def fill(ctx, tag):
    """Set-up for query-mix: a fresh daemon whose store and trace memo
    are filled with both paper-grid answers. Returns (daemon, seconds)."""
    daemon = Daemon(ctx.bins, ctx.env, ctx.workdir, tag)
    try:
        for doc in (grid_request(PAPER_CONFIGS, ctx.kernels),
                    grid_request(PAPER_CONFIGS, ctx.kernels, "sampled")):
            grid_query(daemon.sock, doc, ctx.refs, ctx.tally, "store fill")
        return daemon, time.perf_counter() - daemon.started
    except BaseException:
        daemon.stop()
        raise


def run_query_mix(ctx, seconds):
    setups = []
    daemon = None
    for i in range(MIX_SETUPS):
        if daemon is not None:
            daemon.stop()
        daemon, took = fill(ctx, f"m{i}")
        setups.append(took)
    queries = mix_queries(ctx.seed, ctx.kernels, 20 * MIX_MIN_QUERIES)
    results = {}
    next_index = [0]
    lock = threading.Lock()
    start = time.perf_counter()

    def client():
        while True:
            with lock:
                i = next_index[0]
                if i >= len(queries) or (i >= MIX_MIN_QUERIES
                                         and time.perf_counter() - start >= seconds):
                    return
                next_index[0] += 1
            try:
                results[i] = send(daemon.sock, queries[i][1])
            except OSError as e:
                results[i] = (0.0, None, [], f"connection: {e}")

    try:
        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - start
        store_bytes = daemon.store_bytes()
    finally:
        stopped = daemon.stop()

    # Output checks run after the timed section: what-if references are
    # simulated here, through the harness, for the queries actually sent.
    done = sorted(results)
    whatif_grids = [queries[i][1] for i in done if queries[i][0] == "what-if"]
    refs = dict(ctx.refs)
    if whatif_grids:
        refs.update(compute_references(ctx.bins, ctx.env, whatif_grids))
    lat, first, simulated, cold_cells, par = [], [], 0, set(), []
    for i in done:
        kind, doc = queries[i]
        latency, fl, lines, *conn = results[i]
        problems = conn or check_response(doc, lines, refs)
        ctx.tally.record(problems, f"{kind} query {i}")
        lat.append(latency)
        first.append(fl if fl is not None else latency)
        par += [s["achieved_parallelism"] for s in summaries(lines) if s.get("simulated")]
        for line in lines:
            if '"source":"simulated"' in line:
                p = json.loads(line)
                simulated += 1
                cold_cells.add(cell_key(doc["configs"][p["config"]], p["workload"], doc.get("mode")))
    ctx.mix_done = [queries[i][1] for i in done]
    return {
        "setup": setups, "latency": lat, "first": first, "completed": len(done),
        "elapsed": elapsed, "rss": [stopped["rss_mb"]],
        "extra": {"whatif_queries": len(whatif_grids),
                  "achieved_parallelism": statistics.fmean(par) if par else 0.0,
                  "cpu_util": stopped["cpu_s"] / stopped["wall_s"],
                  "store_bytes": store_bytes,
                  "dup_sim_ratio": simulated / len(cold_cells) if cold_cells else 0.0},
    }


WORKLOADS = {
    "grid-cold": run_grid_cold,
    "query-mix": run_query_mix,
}


# --------------------------------------------------------------- metrics

def tail_percentile(n):
    """The highest whole percentile with at least ten samples beyond it,
    or None when there are fewer than twenty samples."""
    for p in range(99, 49, -1):
        if n * (100 - p) / 100 >= 10:
            return p
    return None


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


def end_to_end(res):
    lat = res["latency"]
    p = tail_percentile(len(lat))
    tail = statistics.quantiles(lat, n=100)[p - 1] if p else max(lat)
    values = {
        "setup_s": statistics.median(res["setup"]),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "first_result_ms": statistics.median(res["first"]) * 1e3,
        "throughput_per_s": res["completed"] / res["elapsed"],
        "peak_rss_mb": statistics.median(res["rss"]),
    }
    samples = {"setup_s": res["setup"], "latency_p50_ms": lat, "first_result_ms": res["first"],
               "peak_rss_mb": res["rss"]}
    stamp = {
        "samples": {k: len(v) for k, v in samples.items()},
        "quartiles": {k: quartiles(v) for k, v in samples.items()},
        "tail_percentile": f"p{p}" if p else "max",
    }
    return values, stamp


def traced(ctx, res, workload):
    """The per-layer metrics: the probe's traced in-process run plus the
    counters only the real processes show."""
    if workload == "grid-cold":
        inputs, setup = ctx.last_docs, 0
    else:
        inputs = [grid_request(PAPER_CONFIGS, ctx.kernels),
                  grid_request(PAPER_CONFIGS, ctx.kernels, "sampled")] + ctx.mix_done[:TRACE_MIX_QUERIES]
        setup = 2
    input_path = os.path.join(ctx.workdir, "trace-input.ndjson")
    with open(input_path, "w") as f:
        f.writelines(json.dumps(d) + "\n" for d in inputs)
    spans = os.path.join(WORK, "spans", f"{workload}-seed{ctx.seed}.json")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    out = subprocess.run(
        [ctx.bins["perfbench-probe"], "trace", "--input", input_path,
         "--setup", str(setup), "--dir", os.path.join(ctx.workdir, "probe"), "--spans", spans],
        capture_output=True, text=True, env=ctx.env)
    if out.returncode != 0:
        raise BenchError(f"trace probe failed: {out.stderr.strip()}")
    m = json.loads(out.stdout.splitlines()[-1])
    extra = res["extra"]
    m["bench.report_cpu_util"] = extra["cpu_util"]
    m["serve.store_bytes"] = float(extra.get("store_bytes", 0))
    m["serve.dup_sim_ratio"] = extra.get("dup_sim_ratio", 0.0)
    m["core.sampled_cpi_err_pct"], m["core.sampled_ci_coverage"] = accuracy(ctx.refs, ctx.kernels)
    m["host.cores"] = float(os.cpu_count())
    return m, spans


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="self-test: flip one expected fingerprint; the run must fail")
    args = ap.parse_args()

    ctx = types.SimpleNamespace(seed=args.seed, env=bench_env())
    ctx.bins = build(ctx.env)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    ctx.workdir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(ctx.workdir, ignore_errors=True)
    os.makedirs(ctx.workdir)
    try:
        kernels = subprocess.run([ctx.bins["perfbench-probe"], "kernels"], capture_output=True,
                                 text=True, env=ctx.env, check=True).stdout.split()
        ctx.kernels = kernels
        ctx.refs = paper_references(ctx.bins, ctx.env, kernels)
        if args.corrupt_reference:
            ctx.refs = dict(ctx.refs)
            key = cell_key(PAPER_CONFIGS[0], kernels[0], None)
            cell = dict(ctx.refs[key])
            cell["fingerprint"] = "%#018x" % (int(cell["fingerprint"], 16) ^ 1)
            ctx.refs[key] = cell
        ctx.tally = Tally()
        res = WORKLOADS[args.workload](ctx, args.seconds)
        values, stamp = end_to_end(res)
        if args.trace:
            layer, spans = traced(ctx, res, args.workload)
            metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                       for m in spec["per_layer"]}
            stamp["spans_file"] = spans
        else:
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)

    stamp.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host_cores": os.cpu_count(), "rev": revision(),
        "pool_threads": min(os.cpu_count(), len(PAPER_CONFIGS) * len(kernels)),
        "detail": res["extra"], "failures": ctx.tally.messages,
    })
    result = {
        "correct": ctx.tally.failed == 0,
        "attempted": ctx.tally.attempted,
        "failed": ctx.tally.failed,
        "metrics": metrics,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump({"stamp": stamp, "result": result}, f, indent=1)
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(str(e))
        sys.exit(2)
