#!/usr/bin/env python3
"""The mbbp benchmark: one command per (workload, seed) run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py compare BASE HEAD
    python3 perfbench/run.py golden CAPTURE...

Run from the root of a checkout. The first run builds the repository
from source (RelWithDebInfo) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench). Every run prints a fingerprint line
and, as its last line, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
perfbench/README.md describes the workloads and metrics.
"""

import argparse
import hashlib
import http.client
import json
import os
import shutil
from statistics import median
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench")
NPROC = len(os.sched_getaffinity(0))

# Trace lengths (instructions per program). paper_repro's is the
# harnesses' MBBP_BENCH_INSTS; PAPER_SIM_INSTS was counted at it. The
# serve session inside traced runs submits jobs at SERVE_INSTS.
PAPER_INSTS = 20000
SWEEP_INSTS = 100000
SERVE_INSTS = 30000

# The 11 paper harnesses of bench/, in the fixed order paper_repro runs
# them, with the instructions each replays through the fetch engines and
# accuracy passes at PAPER_INSTS (counted once by instrumenting the
# engines' run() exits; table7_cost only evaluates cost formulas).
PAPER_SIM_INSTS = {
    "fig6_branch_accuracy": 5760000,
    "fig7_bit_size": 2879440,
    "fig8_selection": 11837696,
    "fig9_bep_breakdown": 359919,
    "table5_target_arrays": 2559488,
    "table6_cache_types": 2159548,
    "table7_cost": 0,
    "ablation_baselines": 1079964,
    "ext_multiblock": 1439676,
    "ext_pht_organizations": 1080000,
    "ext_realism": 1679668,
}
HARNESSES = list(PAPER_SIM_INSTS)

MIN_PASSES = 3              # paper_repro passes per run, at least
PAPER_SETUPS = 25           # harness set-ups timed per paper_repro run
SERVE_SECONDS = 3.0         # serve session length inside traced runs
GEN_LAG_P95_BOUND_MS = 25.0
LEDGER_TOLERANCE = 0.05     # |ledger.unexplained_ratio| must stay within
# compare flags captures whose median hypervisor steal share differs by
# more than this: their wall clocks are not comparable.
STEAL_TOLERANCE = 0.03


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def pct(xs, q):
    """Nearest-rank percentile."""
    s = sorted(xs)
    k = max(0, min(len(s) - 1, int(-(-q * len(s) // 100)) - 1))
    return s[k]


# ---- build --------------------------------------------------------------

def binary(name):
    if name.startswith("perfbench_"):
        return os.path.join(BUILD, name)
    if name == "sweep_serverd":
        return os.path.join(BUILD, "mbbp", "examples", name)
    return os.path.join(BUILD, "mbbp", "bench", name)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("repository sources not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "ab") as logf:
        def step(cmd):
            if subprocess.call(cmd, stdout=logf, stderr=logf) != 0:
                raise BenchError("build failed: see " + logf.name)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            step(["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
        step(["cmake", "--build", BUILD, "-j", str(NPROC), "--target",
              "perfbench_probe", "sweep_serverd"] + HARNESSES
             + ["perfbench_ledger_" + h for h in HARNESSES])


def probe(*args, env=None):
    out = subprocess.run([binary("perfbench_probe")] + [str(a) for a in args],
                         stdout=subprocess.PIPE, env=env, check=False)
    if out.returncode != 0:
        raise BenchError("perfbench_probe %s exited %d"
                         % (args[0], out.returncode))
    return json.loads(out.stdout.decode().strip().splitlines()[-1])


def fingerprint(args, insts):
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if ":" in line and "=" in line and not line.startswith(("#", "//")):
                key, val = line.rstrip("\n").split("=", 1)
                cache[key.split(":")[0]] = val
    cxx = cache.get("CMAKE_CXX_COMPILER", "c++")
    version = subprocess.run([cxx, "--version"], stdout=subprocess.PIPE,
                             check=False).stdout.decode().splitlines()
    info = probe("info")
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": NPROC, "threads": NPROC, "insts": insts,
        "simd_active": info["simd_active"],
        "simd_detected": info["simd_detected"],
        "simd_override": os.environ.get("MBBP_SIMD", ""),
        "compiler": version[0] if version else cxx,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "sanitize": cache.get("MBBP_SANITIZE", ""),
        "obs": cache.get("MBBP_OBS", ""),
        "simd_build": cache.get("MBBP_SIMD", ""),
    }


# ---- golden digests -----------------------------------------------------

GOLDEN = os.path.join(HERE, "golden.json")


def golden_key(workload, seed, insts):
    # paper_repro ignores the seed.
    if workload == "paper_repro":
        return "%s/%d" % (workload, insts)
    return "%s/%d/%d" % (workload, insts, seed)


def golden_digest(key):
    if not os.path.isfile(GOLDEN):
        return None
    with open(GOLDEN) as f:
        return json.load(f).get(key)


# ---- paper_repro --------------------------------------------------------

def paper_pass(env, ledger=None):
    """Each harness as its own process, in order. With a ledger file,
    the layer-timed builds run instead and append their timers to it.
    Returns the pass wall, per-harness walls, (spawn, reap) stamps,
    peak child RSS (MB), stdout digest and failures."""
    times, stamps, rss, failed = {}, [], 0.0, 0
    sha = hashlib.sha256()
    if ledger:
        env = dict(env, PERFBENCH_LEDGER=ledger)
    # time.monotonic reads CLOCK_MONOTONIC, as the timers of
    # ledger_wrap.cpp do.
    t0 = time.monotonic()
    for h in HARNESSES:
        with open(os.path.join(BUILD, "harness.err"), "ab") as err:
            t = time.monotonic()
            p = subprocess.Popen(
                [binary("perfbench_ledger_" + h if ledger else h)],
                stdout=subprocess.PIPE, stderr=err, env=env)
            out = p.stdout.read()
            p.stdout.close()
            _, status, usage = os.wait4(p.pid, 0)
            p.returncode = os.waitstatus_to_exitcode(status)
            stamps.append((t, time.monotonic()))
        times[h] = stamps[-1][1] - t
        rss = max(rss, usage.ru_maxrss / 1024.0)
        if p.returncode != 0:
            failed += 1
        sha.update(h.encode() + b"\0" + out + b"\0")
    return {"wall": time.monotonic() - t0, "times": times,
            "stamps": stamps, "rss": rss, "digest": sha.hexdigest(),
            "failed": failed}


def paper_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("MBBP_BENCH_CSV", "MBBP_BENCH_JSON",
                        "PERFBENCH_LEDGER")}
    env["MBBP_BENCH_INSTS"] = str(PAPER_INSTS)
    env["MBBP_BENCH_THREADS"] = str(NPROC)
    return env


def paper_check(passes, res):
    """Every pass's digest against golden.json (or the first pass)."""
    want = golden_digest(golden_key("paper_repro", 0, PAPER_INSTS))
    res["failed"] += sum(p["failed"] for p in passes)
    res["failed"] += sum(1 for p in passes
                         if p["digest"] != (want or passes[0]["digest"]))
    res["attempted"] += len(passes) * len(HARNESSES)
    res.setdefault("digest", passes[0]["digest"])


def paper_setup_s(env):
    """Median wall of a process that does what every harness does
    before its first simulation: start, then generate the suite
    through benchTraces()."""
    ts = []
    for _ in range(PAPER_SETUPS):
        t = time.monotonic()
        probe("setup", env=env)
        ts.append(time.monotonic() - t)
    return median(ts)


def paper_layers(passes, res):
    """paper.* layers and paper_repro's ledger, from plain passes
    alternating with layer-timed ones. Per-harness walls come from the
    plain passes. A layer-timed pass splits each harness into start-up
    (spawn to its first static constructor), the timed library calls
    and teardown (last static destructor to reap), and sets them
    against the pass wall."""
    path = os.path.join(BUILD, "ledger.jsonl")
    plain, walls, layers = [], [], []
    for _ in range(passes):
        plain.append(paper_pass(paper_env()))
        paper_check(plain[-1:], res)
        if os.path.exists(path):
            os.remove(path)
        p = paper_pass(paper_env(), ledger=path)
        paper_check([p], res)
        with open(path) as f:
            rows = [json.loads(line) for line in f]
        if len(rows) != len(HARNESSES):
            raise BenchError("ledger: %d of %d harnesses reported"
                             % (len(rows), len(HARNESSES)))
        startup = sum(r["init"] - s for r, (s, _) in zip(rows, p["stamps"]))
        teardown = sum(e - r["exit"] for r, (_, e) in zip(rows, p["stamps"]))
        calls = sum(r["any_s"] for r in rows)
        walls.append(p["wall"])
        layers.append({
            "paper.startup_s": startup,
            "paper.generate_s": sum(r["generate_s"] for r in rows),
            "paper.decode_s": sum(r["decode_s"] for r in rows),
            "paper.engine_s": sum(r["replay_s"] for r in rows),
            "ledger.unexplained_ratio":
                1 - (startup + calls + teardown) / p["wall"],
        })
    out = {k: median([l[k] for l in layers]) for k in layers[0]}
    out["ledger.trace_overhead_ratio"] = (
        median(walls) / median([p["wall"] for p in plain]))
    out.update({"paper.%s_s" % h: median([p["times"][h] for p in plain])
                for h in HARNESSES})
    return out


def run_paper(seed, seconds, trace):
    res = {"attempted": 0, "failed": 0, "errors": []}
    env = paper_env()
    if trace:
        layers = paper_layers(MIN_PASSES, res)
        sweep = probe("sweep", "--draw", "paper", "--seed", seed, "--insts",
                      PAPER_INSTS, "--threads", NPROC, "--trace", 1,
                      "--min-reps", 5)
        check_sweep_probe(sweep, res, traced=True)
        layers.update(sweep["layers"])
        layers.update(serve_layers(seed, res))
        res["layers"] = layers
        return res
    passes = []
    start = time.monotonic()
    while len(passes) < MIN_PASSES or time.monotonic() - start < seconds:
        passes.append(paper_pass(env))
    paper_check(passes, res)
    if len({p["digest"] for p in passes}) != 1:
        res["errors"].append("harness output differs between passes")
    walls = [p["wall"] for p in passes]
    # One job is one harness process; its latency is its own wall.
    jobs_ms = [[t * 1e3 for t in p["times"].values()] for p in passes]
    res["e2e"] = {
        "wall_s": median(walls),
        "setup_s": paper_setup_s(env),
        # Derived from the pass walls: instructions counted once.
        "sim_minst_per_s": median(
            [sum(PAPER_SIM_INSTS.values()) / w / 1e6 for w in walls]),
        "peak_rss_mb": max(p["rss"] for p in passes),
        "job_p50_ms": median([median(j) for j in jobs_ms]),
        "job_p95_ms": median([pct(j, 95) for j in jobs_ms]),
    }
    return res


# ---- sweep_grid / sweep_realism -----------------------------------------

def check_sweep_probe(out, res, traced):
    """Digest stability, oracle and coverage checks of a probe sweep."""
    if not out["coverage_ok"]:
        res["errors"].append("draw %s coverage %d permille is not what the "
                             "workload is built for"
                             % (out["draw"], out["coverage_permille"]))
    if out["oracle_mismatched"]:
        res["errors"].append("sweep result differs from the solo engine")
    if traced:
        if out["path_mismatched"]:
            res["errors"].append("per-path probe lane not field-exact")
        if set(out["traced_digests"]) != set(out["digests"][:1]):
            res["errors"].append("traced report digest differs")


def run_sweep(workload, seed, seconds, trace):
    draw = {"sweep_grid": "grid", "sweep_realism": "realism"}[workload]
    out = probe("sweep", "--draw", draw, "--seed", seed, "--insts",
                SWEEP_INSTS, "--seconds", seconds, "--threads", NPROC,
                "--trace", 1 if trace else 0, "--min-reps", 5 if trace else 3)
    want = golden_digest(golden_key(workload, seed, SWEEP_INSTS))
    ref = want or out["digests"][0]
    res = {"attempted": len(out["digests"]),
           "failed": sum(1 for d in out["digests"] if d != ref),
           "digest": out["digests"][0], "errors": []}
    check_sweep_probe(out, res, trace)
    if not trace:
        done = out["job_done_s"]
        res["e2e"] = {
            "wall_s": median(out["wall_s"]),
            "setup_s": median(out["setup_s"]),
            "sim_minst_per_s": median(
                [out["insts_per_rep"] / t / 1e6 for t in out["timed_s"]]),
            # One cold sweep in a process of its own: a long-lived
            # process's high-water mark also counts heap fragmentation
            # left by earlier repetitions.
            "peak_rss_mb": probe("sweep", "--draw", draw, "--seed", seed,
                                 "--insts", SWEEP_INSTS, "--seconds", 0,
                                 "--threads", NPROC, "--min-reps", 0)
                           ["peak_rss_mb"],
            "job_p50_ms": median([median(d) * 1e3 for d in done]),
            "job_p95_ms": median([pct(d, 95) * 1e3 for d in done]),
        }
        return res
    layers = dict(out["layers"])
    layers["ledger.unexplained_ratio"] = (
        1 - out["ledger_explained_s"] / out["ledger_traced_wall_s"])
    layers["ledger.trace_overhead_ratio"] = (
        out["ledger_traced_wall_s"] / out["ledger_untraced_wall_s"])
    # The ledger.* figures are the sweep's; paper_repro checks its own.
    layers.update({k: v for k, v in paper_layers(1, res).items()
                   if not k.startswith("ledger.")})
    layers.update(serve_layers(seed, res))
    res["layers"] = layers
    return res


# ---- serve session: the serve.* layers of every traced run -------------

def request(port, method, target, body=None, timeout=60):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, target, body=body)
        r = conn.getresponse()
        return r.status, r.read()
    finally:
        conn.close()


class Daemon:
    """sweep_serverd --threads nproc --batched on an ephemeral port."""

    def __init__(self):
        self.port_file = os.path.join(BUILD, "serverd.port")
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        self.err = open(os.path.join(BUILD, "serverd.log"), "ab")
        self.proc = subprocess.Popen(
            [binary("sweep_serverd"), "--threads", str(NPROC), "--batched",
             "--quiet", "--port-file", self.port_file],
            stdout=subprocess.DEVNULL, stderr=self.err)
        self.port = None

    def wait_ready(self):
        deadline = time.monotonic() + 60
        while self.port is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise BenchError("sweep_serverd did not start")
            try:
                with open(self.port_file) as f:
                    self.port = int(f.read().strip())
            except (OSError, ValueError):
                time.sleep(0.001)
        while True:
            try:
                if request(self.port, "GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise BenchError("sweep_serverd /healthz never answered")
            time.sleep(0.001)

    def warm_up(self, insts):
        """One job touching every program the session draws from."""
        spec = json.dumps({"name": "warm-up", "instructions": insts,
                           "points": [{"numBlocks": "2"}]})
        status, body = request(self.port, "POST", "/jobs", spec)
        if status != 202:
            raise BenchError("warm-up refused: %d" % status)
        job = json.loads(body)["id"]
        while json.loads(request(self.port, "GET", "/jobs/%d" % job)[1])[
                "state"] not in ("done", "failed", "cancelled"):
            time.sleep(0.002)
        if request(self.port, "GET", "/jobs/%d/result" % job)[0] != 200:
            raise BenchError("warm-up job failed")

    def stop(self):
        try:
            if self.port is not None and self.proc.poll() is None:
                request(self.port, "POST", "/shutdown", timeout=10)
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.err.close()


def serve_layers(seed, res):
    """A short open-loop session against a warmed-up daemon: the
    serve.* layers, from the client and the daemon's own telemetry."""
    d = Daemon()
    try:
        d.wait_ready()
        d.warm_up(SERVE_INSTS)
        out = probe("serve", "--port", d.port, "--seed", seed, "--seconds",
                    SERVE_SECONDS, "--insts", SERVE_INSTS, "--threads", NPROC)
    finally:
        d.stop()
    res["attempted"] += out["jobs"]
    res["failed"] += out["failed"]
    if out["failed"]:
        res["errors"].append("%d serve jobs failed or differ from the "
                             "in-process report" % out["failed"])
    lag_p95 = pct(out["lag_ms"], 95)
    if lag_p95 > GEN_LAG_P95_BOUND_MS:
        res["errors"].append("invalid run: generator lag p95 %.1f ms > %g ms"
                             % (lag_p95, GEN_LAG_P95_BOUND_MS))
    counters = json.loads(out["metrics_json"])["metrics"]["counters"]
    hits = counters.get("serve.result_cache.hits", 0)
    lookups = hits + counters.get("serve.result_cache.misses", 0)
    return {
        "serve.http_rtt_p50_ms": median(out["healthz_ms"]),
        "serve.submit_p50_ms": median(out["submit_ms"]),
        "serve.queue_wait_p95_ms": pct(out["queue_ms"], 95),
        "serve.result_cache_hit_ratio": hits / lookups,
        "serve.result_cache_lookups": lookups,
        "serve.gen_lag_p95_ms": lag_p95,
    }


# ---- main ---------------------------------------------------------------

WORKLOADS = {
    "paper_repro": (run_paper, PAPER_INSTS),
    "sweep_grid": (lambda s, t, tr: run_sweep("sweep_grid", s, t, tr),
                   SWEEP_INSTS),
    "sweep_realism": (lambda s, t, tr: run_sweep("sweep_realism", s, t, tr),
                      SWEEP_INSTS),
}


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def steal_seconds():
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def run(args):
    bench = load_benchmark()
    build()
    fn, insts = WORKLOADS[args.workload]
    t0, s0 = time.monotonic(), steal_seconds()
    res = fn(args.seed, args.seconds, bool(args.trace))
    steal = (steal_seconds() - s0) / (os.cpu_count() * (time.monotonic() - t0))
    values = res["layers"] if args.trace else res["e2e"]
    if args.trace and abs(values["ledger.unexplained_ratio"]) > LEDGER_TOLERANCE:
        res["errors"].append("ledger does not close: unexplained %.3f > %g"
                             % (values["ledger.unexplained_ratio"],
                                LEDGER_TOLERANCE))
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError("metrics not measured: " + ", ".join(missing))
    for e in res["errors"]:
        log(e)
    fp = fingerprint(args, insts)
    fp["digest"] = res["digest"]
    fp["steal_ratio"] = round(steal, 4)
    print(json.dumps({"fingerprint": fp}, sort_keys=True))
    correct = not res["errors"] and res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


# ---- compare / golden ---------------------------------------------------

COMPARED_FIELDS = ("workload", "seconds", "trace", "nproc", "threads",
                   "insts", "simd_active", "simd_override", "compiler",
                   "build_type", "sanitize", "obs", "simd_build")


def read_captures(path):
    """(fingerprint, result) pairs from captured stdout files."""
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    runs = []
    for name in files:
        with open(name) as f:
            lines = [l for l in f.read().splitlines() if l.startswith("{")]
        fps = [json.loads(l)["fingerprint"] for l in lines
               if l.startswith('{"fingerprint"')]
        if not fps:
            raise BenchError("%s: not a captured run" % name)
        runs.append((fps[0], json.loads(lines[-1])))
    return runs


def compare(base_path, head_path):
    bench = load_benchmark()
    base, head = read_captures(base_path), read_captures(head_path)
    ref = base[0][0]
    for fp, result in base + head:
        if not result["correct"] or result["failed"]:
            log("refusing: a capture of seed %s is not a correct run"
                % fp["seed"])
            return 1
        if fp["build_type"] not in ("Release", "RelWithDebInfo") or fp["sanitize"]:
            log("refusing: %s build%s" % (fp["build_type"] or "untyped",
                                          " with sanitizers" if fp["sanitize"]
                                          else ""))
            return 1
        diff = [k for k in COMPARED_FIELDS if fp.get(k) != ref.get(k)]
        if diff:
            log("refusing: fingerprints differ in " + ", ".join(diff))
            return 1
    steal = [median([fp["steal_ratio"] for fp, _ in runs])
             for runs in (base, head)]
    if abs(steal[0] - steal[1]) > STEAL_TOLERANCE:
        log("warning: hypervisor steal share %.3f (BASE) vs %.3f (HEAD); "
            "wall-clock metrics are not comparable" % tuple(steal))
        print("steal differs: %.3f vs %.3f" % tuple(steal))
    metrics = bench["per_layer" if ref["trace"] else "end_to_end"]
    worse = 0
    for m in metrics:
        b = [r["metrics"][m["name"]]["value"] for _, r in base]
        h = [r["metrics"][m["name"]]["value"] for _, r in head]
        mb, mh = median(b), median(h)
        change = (mh - mb) / mb if mb else 0.0
        if m["better"] == "higher":
            change = -change
        bound = m.get("bound")
        verdict = ""
        if bound is not None:
            verdict = "worse" if change > bound else "ok"
            worse += verdict == "worse"
        print("%-40s %14.6g %14.6g %+8.1f%% %s"
              % (m["name"], mb, mh, 100 * change, verdict))
    return 4 if worse else 0


def record_golden(paths):
    """Merge the digests of captured untraced runs into golden.json."""
    golden = {}
    if os.path.isfile(GOLDEN):
        with open(GOLDEN) as f:
            golden = json.load(f)
    for path in paths:
        for fp, result in read_captures(path):
            if not result["correct"]:
                raise BenchError("%s: not a correct run" % path)
            key = golden_key(fp["workload"], fp["seed"], fp["insts"])
            if golden.setdefault(key, fp["digest"]) != fp["digest"]:
                raise BenchError("%s: digest differs from golden" % key)
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] in ("compare", "golden"):
        try:
            if sys.argv[1] == "compare" and len(sys.argv) == 4:
                return compare(sys.argv[2], sys.argv[3])
            if sys.argv[1] == "golden" and len(sys.argv) > 2:
                return record_golden(sys.argv[2:])
        except (BenchError, OSError, ValueError, KeyError) as e:
            log(str(e))
            return 1
        log("usage: run.py compare BASE HEAD | run.py golden CAPTURE...")
        return 2
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        return run(args)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(str(e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
