"""so3g2 benchmark: one closed-loop client per workload, outputs checked.

    python3 bench/run.py --workload acceptance --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one process each

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-module metrics of
a traced run instead.  The exit code is 1 when any output check failed.
See bench/README.md for the metrics and what each one should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# the plain single-threaded run is the baseline: cap BLAS/OpenMP before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 5
HOLDOUT_SEED = 90210   # never used while the benchmark was built; re-check claims on it
# the keys of workloads.WORKLOADS; that module imports so3g2, so it loads after prepare()
WORKLOAD_NAMES = ("acceptance", "curvature-scan", "flow-g2")


def prepare():
    """Thread caps and the checkout's src/ on the path; exits when src/ is absent."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "so3g2" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'so3g2'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import so3g2
    if Path(so3g2.__file__).resolve().parent != SRC / "so3g2":
        sys.exit(f"error: imported so3g2 from {so3g2.__file__}, not from {SRC}")


# runs in a fresh interpreter: import so3g2, make the inputs, report their digest
PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import run
run.prepare()
import workloads
reqs = workloads.WORKLOADS[sys.argv[2]].make_requests(int(sys.argv[3]))
print(workloads.inputs_digest(reqs), flush=True)
"""


def probe_setup(workload: str, seed: int) -> tuple[float, str]:
    """Seconds from starting an interpreter to inputs ready, and their digest."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE, str(BENCH), workload, str(seed)],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    if rc != 0:
        raise RuntimeError(f"set-up probe exited {rc}")
    return elapsed, line


def run_record(args) -> dict:
    import numpy
    import scipy
    rev = "unknown"   # also for an exported tree, which has no .git
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    return {
        "git_rev": rev,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "src_lines": src_lines,
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Stream:
    """Outcome of serving requests in order with one closed-loop client."""

    def __init__(self):
        self.latencies: list[float] = []
        self.fingerprints: list[str] = []   # sha256 of each checked output
        self.failures: list[str] = []
        self.worst_ratio = 0.0
        self.warnings = 0
        self.failed_ops = 0
        self.other_ops = 0   # untimed operations: warm-up and the traced replay

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.other_ops


def verdict(stream: Stream) -> bool:
    """A run is correct when it evaluated something and nothing failed."""
    return stream.attempted > 0 and not stream.failures


def serve_checked(wl, req, stream: Stream, op=None):
    """Serve one request (timed), then check its output (untimed)."""
    from scipy.integrate import IntegrationWarning
    from workloads import CheckFailed

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            if op is None:
                out = wl.serve(req)
            else:
                with op():
                    out = wl.serve(req)
            err = None
        except Exception as exc:   # a raising request is a failed operation
            out, err = None, exc
        stream.latencies.append(time.perf_counter() - t0)
    stream.warnings += sum(issubclass(w.category, IntegrationWarning) for w in caught)
    try:
        if err is not None:
            raise CheckFailed(f"{type(err).__name__}: {err}")
        ratio, fingerprint = wl.check(req, out)
    except Exception as exc:   # malformed output of any kind fails the request
        stream.failures.append(f"request {len(stream.latencies) - 1}: {exc}")
        stream.failed_ops += 1
        stream.fingerprints.append("failed")
        return
    stream.worst_ratio = max(stream.worst_ratio, ratio)
    stream.fingerprints.append(hashlib.sha256(fingerprint.encode()).hexdigest())


def absorb(stream: Stream, other: Stream, label: str):
    """Count another stream's operations and failures in this one."""
    stream.failures += [f"{label} {f}" for f in other.failures]
    stream.other_ops += other.attempted


def measure(wl, requests, seconds: float, min_ops: int = 0) -> Stream:
    """Serve requests in order, wrapping around, until the served time reaches
    `seconds` (and at least min_ops requests) at a batch boundary."""
    stream = Stream()
    busy = 0.0
    i = 0
    while True:
        serve_checked(wl, requests[i % len(requests)], stream)
        busy += stream.latencies[-1]
        i += 1
        if i % wl.batch == 0 and busy >= seconds and i >= min_ops:
            return stream


def tail(latencies) -> tuple[float, float]:
    """(percentile, nearest-rank value): the highest listed percentile with
    at least ten samples beyond it."""
    n = len(latencies)
    pct = next((p for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0, 25.0)
                if n * (1 - p / 100) >= 10), 0.0)
    return pct, sorted(latencies)[max(0, math.ceil(pct / 100 * n) - 1)]


def end_to_end(wl, requests, args, stream: Stream) -> dict:
    """The user-facing metrics; set-up is timed in fresh interpreters."""
    import workloads

    batches = [sum(stream.latencies[k:k + wl.batch])
               for k in range(0, len(stream.latencies) - wl.batch + 1, wl.batch)]
    busy = sum(stream.latencies)
    ok = len(stream.latencies) - stream.failed_ops
    digest = workloads.inputs_digest(requests)   # every request, warm-up included
    setups = []
    for _ in range(SETUP_PROBES):
        seconds, probe_digest = probe_setup(args.workload, args.seed)
        if probe_digest != digest:
            stream.failures.append("inputs differ between processes for one seed")
        setups.append(seconds)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(batches), "s"),
        "ops_per_s": (ok / busy, "1/s"),
        "op_ms_p50": (1e3 * statistics.median(stream.latencies), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(wl, requests, stream: Stream) -> dict:
    """Replay the first trace_block requests under the tracer."""
    import workloads
    from tracer import LAYERS, Tracer

    block = requests[:wl.trace_block]
    traced = Stream()
    tracer = Tracer()
    with tracer:
        for req in block:
            serve_checked(wl, req, traced, op=tracer.op)
    if traced.fingerprints != stream.fingerprints[:len(block)]:
        stream.failures.append("traced outputs differ from untraced outputs")
    untraced_s = sum(stream.latencies[:len(block)])
    ops = len(block)
    pct, tail_s = tail(stream.latencies)

    us = tracer.mean_us
    m = {}
    for suite in workloads.SUITES:
        fn = workloads.verify.ALL_SUITES[suite]
        m[f"verify.{suite}_s"] = (us(f"verify.{fn.__name__}") / 1e6, "s")
    for key in ("exact.mat_det", "exact.mat_rank", "exact.sym_signature",
                "variety.structure_constants.exact", "variety.structure_constants.float",
                "variety.killing_form", "variety.classify", "variety.membership_rank",
                "exterior.d_squared_residual.exact", "exterior.d_squared_residual.float",
                "exterior.apply_d", "exterior.wedge",
                "curvature.levi_civita_oracle", "curvature.ricci_closed_form",
                "binaryform.discriminant", "binaryform.q_invert", "binaryform.act",
                "stableform.hitchin_dual",
                "flow.time_integral", "flow.line_discriminant_poly",
                "flow.integrate_time_grid", "flow.direct_ode_oracle",
                "g2.assemble_g2", "g2.check_closedness", "g2.bs_metric"):
        m[key + "_us"] = (us(key), "us")
    for key in ("cli.curvature", "cli.flow", "cli.bs-metric"):
        m[key + "_ms"] = (us(key) / 1e3, "ms")
    m["variety.killing_form_calls"] = (tracer.calls("variety.killing_form"), "count")
    m["exterior.d_squared_residual_calls"] = (tracer.calls("exterior.d_squared_residual"), "count")
    m["exterior.apply_d_calls_per_op"] = (tracer.calls("exterior.apply_d") / ops, "count")
    m["stableform.hitchin_dual_calls_per_op"] = (tracer.calls("stableform.hitchin_dual") / ops, "count")
    m["flow.integration_warnings_per_op"] = (traced.warnings / ops, "count")
    for layer in LAYERS.values():
        m[layer + ".self_share"] = (tracer.self_share(layer), "ratio")
    m["op_ms_tail"] = (1e3 * tail_s, "ms")
    m["op_ms_tail.pct"] = (pct, "pct")
    m["op.samples"] = (len(stream.latencies), "count")
    m["check.worst_residual_ratio"] = (max(stream.worst_ratio, traced.worst_ratio), "ratio")
    m["trace.overhead_frac"] = (tracer.op_seconds / untraced_s - 1.0, "ratio")
    absorb(stream, traced, "traced")
    return m


def run_one(args) -> int:
    prepare()
    print("record " + json.dumps(run_record(args)), flush=True)
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    requests = wl.make_requests(args.seed)
    timed = requests[:len(requests) - wl.warmup]
    warm = Stream()
    for req in requests[len(timed):]:
        serve_checked(wl, req, warm)
    stream = measure(wl, timed, args.seconds, min_ops=wl.trace_block if args.trace else 0)
    absorb(stream, warm, "warm-up")
    metrics = (per_layer(wl, timed, stream) if args.trace
               else end_to_end(wl, requests, args, stream))

    for msg in stream.failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    failed = len(stream.failures)
    attempted = stream.attempted
    print(f"{args.workload}: {attempted} operations ({len(stream.latencies)} timed), "
          f"failed_frac {failed / attempted:.4g} ratio")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    correct = verdict(stream)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; a summary table, then one JSON line."""
    rc = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        rc = rc or proc.returncode
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):   # the child printed no result
            combined["correct"] = False
            rc = rc or 1
            continue
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined), flush=True)
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="served time to measure; the run ends at the next batch boundary")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
