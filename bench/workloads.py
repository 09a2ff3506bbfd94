"""Inputs, requests and output checks of the benchmark workloads.

Each workload is a list of requests made from the seed, a function that
serves one request through the public so3g2 interface, and a checker
that runs afterwards, outside the timed region.  A checker returns the
worst residual over its tolerance (at most 1) and a fingerprint of the
output, or raises CheckFailed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from so3g2 import binaryform, cli, curvature, flow, g2, variety, verify

SPAN = 2.0   # coordinate range of the float model points, as in the curvature suite


class CheckFailed(Exception):
    """An output that is wrong, or a request that did not complete."""


@dataclass(frozen=True)
class Workload:
    name: str
    make_requests: Callable[[int], list]   # seed -> requests, JSON-serializable
    serve: Callable                        # request -> output
    check: Callable                        # (request, output) -> (ratio, fingerprint)
    batch: int        # requests per run_s sample
    warmup: int       # untimed requests served first, from the end of the list
    trace_block: int  # requests replayed under the tracer


def inputs_digest(requests) -> str:
    """sha256 of the requests; floats are written by repr, so it is exact."""
    return hashlib.sha256(json.dumps(requests).encode()).hexdigest()


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def call_cli(argv) -> str:
    """Run one so3g2 command in-process and return what it printed."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    if rc != 0:
        raise CheckFailed(f"so3g2 {argv[0]} exited {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def _ratio(residual: float, tol: float, what: str) -> float:
    ratio = residual / tol
    if not ratio <= 1.0:   # also rejects NaN
        raise CheckFailed(f"{what}: residual {residual:.3e} over tolerance {tol:.0e}")
    return ratio


# ---------------------------------------------------------------------------
# acceptance: every verification suite with its defaults
# ---------------------------------------------------------------------------

SUITES = ("jacobi", "killing", "classification", "curvature", "einstein",
          "conformal", "flow-clock", "endpoints", "case2-stated",
          "non-completeness", "g2", "triality", "contractions", "hamiltonian")

# the stated exponent 2/3 is a known defect of the paper: this suite must FAIL
EXPECTED_RED = {"case2-stated"}


def acceptance_requests(seed: int) -> list:
    # one request is a full re-verification, every suite in turn; the
    # suites carry tier-1's own seeds and sample counts, so the workload
    # seed does not apply
    missing = set(SUITES) - set(verify.ALL_SUITES)
    if missing:
        raise CheckFailed(f"suites missing from so3g2.verify: {sorted(missing)}")
    return [list(SUITES)]


def serve_acceptance(names):
    return [verify.ALL_SUITES[name]() for name in names]


def check_acceptance(names, results):
    checked = [check_suite(name, res) for name, res in zip(names, results, strict=True)]
    return max(r for r, _ in checked), "\n".join(fp for _, fp in checked)


def check_suite(name: str, res):
    expect_pass = name not in EXPECTED_RED
    if res.passed != expect_pass:
        raise CheckFailed(f"suite {name}: {res.line()}")
    ratio = 0.0
    if expect_pass and res.tolerance > 0:
        ratio = _ratio(res.residual, res.tolerance, f"suite {name}")
    return ratio, repr((res.name, res.passed, res.residual, res.tolerance, res.detail))


# ---------------------------------------------------------------------------
# curvature-scan: `so3g2 curvature` on float model points
# ---------------------------------------------------------------------------

CURVATURE_POOL = 20000
CURVATURE_TOL = 1e-10   # the curvature suite's tolerance, scaled by max(1, |s|)


def _draw_point(rng):
    """The draw of the curvature suite's float points (span 2)."""
    while True:
        x = [rng.uniform(-SPAN, SPAN) for _ in range(2)]
        y = [rng.uniform(-SPAN, SPAN) for _ in range(3)]
        if max(abs(v) for v in x) > 0.1 and max(abs(v) for v in y) > 0.1:
            return x, y


def curvature_requests(seed: int) -> list:
    rng = random.Random(seed)
    out = []
    for _ in range(CURVATURE_POOL):
        x, y = _draw_point(rng)
        # "--x=-1.2" form: argparse reads "--x -1.2" as two flags
        out.append({"x": x, "y": y, "argv": ["curvature", f"--x={_csv(x)}", f"--y={_csv(y)}"]})
    return out


def serve_curvature(req):
    return call_cli(req["argv"])


def check_curvature(req, text: str):
    rep = json.loads(text)
    ricci = np.array(rep["ricci"], dtype=float)
    scalar = float(rep["scalar"])
    m = variety.ModelPoint.make(req["x"], req["y"])
    ric0_close, s_close = curvature.ricci_closed_form(curvature.model_tcoords(m))
    ric0 = ricci - (scalar / 6.0) * np.eye(6)
    scale = max(1.0, abs(scalar))
    residual = max(float(np.max(np.abs(ric0 - ric0_close))), abs(scalar - s_close)) / scale
    return _ratio(residual, CURVATURE_TOL, "curvature vs closed form"), text


# ---------------------------------------------------------------------------
# flow-g2: the half-flat evolution, its G2 metric and the ODE oracle
# ---------------------------------------------------------------------------

FLOW_POOL = 400
Q0 = (1.0 / 3.0, 0.0, -1.0, 0.0)   # so3g2.flow.Q0, passed as "1/3,0,-1,0"
T_END = 0.06
N_T = 61                            # samples of the time grid and the oracle
T_GRID = np.linspace(0.0, T_END, N_T)
MIN_ROOT = 0.25   # nearest discriminant root along the line, so the grid stays inside
CLOCK_TOL = 1e-10
CLOSED_TOL = 1e-6
ORACLE_TOL = 1e-8
BS_TOL = 1e-12


def _first_positive_root(p) -> float:
    """Smallest s > 0 with Delta(Q0 + s p) = 0 (inf when there is none)."""
    q1, q2, q3, q4 = (np.polynomial.Polynomial([a, b]) for a, b in zip(Q0, p))
    disc = (q2 ** 2 * q3 ** 2 - 4 * q1 * q3 ** 3 - 4 * q2 ** 3 * q4
            + 18 * q1 * q2 * q3 * q4 - 27 * q1 ** 2 * q4 ** 2)
    roots = [r.real for r in disc.roots() if abs(r.imag) <= 1e-9 and r.real > 0]
    return min(roots, default=math.inf)


def _draw_halfflat(rng):
    """A float model point whose torsion reading has lambda_2 = lambda_4.

    For the product x*y that is x1 y2 + x2 y1 = x2 y3, linear in y; the
    coordinate with the larger coefficient is solved for.
    """
    while True:
        x, y = _draw_point(rng)
        (x1, x2), (y1, y2, y3) = x, y
        if abs(x2) >= abs(x1):
            y[2] = (x1 * y2 + x2 * y1) / x2
        else:
            y[1] = x2 * (y3 - y1) / x1
        if max(abs(v) for v in y) > SPAN or max(abs(v) for v in y) <= 0.1:
            continue
        y1, y2, y3 = y
        # the d(sigma) reading is minus the product x*y
        p = [-x1 * y1, -(x1 * y2 + x2 * y1), -(x1 * y3 + x2 * y2), -x2 * y3]
        root = _first_positive_root(p)
        if root >= MIN_ROOT:
            return x, y, p, root


def flow_requests(seed: int) -> list:
    rng = random.Random(seed)
    out = []
    for _ in range(FLOW_POOL):
        x, y, p, root = _draw_halfflat(rng)
        lam = rng.uniform(0.5, 2.0)
        zs = sorted(rng.uniform(0.0, 2.0) for _ in range(16))
        # the line up to its first boundary (at most the default 4), located
        # here: with the default, so3g2 flow can sample past the boundary
        # (see "Known defect" in bench/README.md)
        s_max = min(float(root), 4.0)
        out.append({
            "x": x, "y": y, "lam": lam, "z": zs,
            "flow_argv": ["flow", f"--p={_csv(p)}", "--q0=1/3,0,-1,0", f"--s-max={s_max!r}"],
            "bs_argv": ["bs-metric", f"--lam={lam!r}", f"--z={_csv(zs)}"],
        })
    return out


@dataclass
class FlowOutput:
    flow_text: str
    p: object            # the torsion reading, a BinaryForm
    states: list         # FlowState samples on T_GRID
    dphi: float
    dstar: float
    oracle: object       # OracleTrajectory
    bs_text: str


def serve_flow(req) -> FlowOutput:
    flow_text = call_cli(req["flow_argv"])
    d = variety.structure_constants(variety.ModelPoint.make(req["x"], req["y"]))
    p = flow.flow_torsion_cubic(d)
    traj = flow.integrate_time_grid(p, flow.Q0.to_float(), 0.0, T_GRID)
    dphi, dstar = g2.check_closedness(g2.assemble_g2(traj), d)
    oracle = flow.direct_ode_oracle(d, binaryform.GL2.identity(), (0.0, T_END), n_samples=N_T)
    bs_text = call_cli(req["bs_argv"])
    return FlowOutput(flow_text, p, traj.states, dphi, dstar, oracle, bs_text)


def check_flow(req, out: FlowOutput):
    ratios = []
    rows = json.loads(out.flow_text)["rows"]
    if not rows:
        raise CheckFailed("so3g2 flow returned no rows")
    clock = 0.0
    for s, t, q1, q2, q3, q4, detg, disc in rows:
        clock = max(clock, abs(detg ** 6 - 0.75 * disc) / max(1.0, 0.75 * abs(disc)))
    ratios.append(_ratio(clock, CLOCK_TOL, "clock detg^6 = 3/4 Delta"))
    ts = [r[1] for r in rows]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise CheckFailed("flow time is not increasing")

    if len(out.states) != N_T:
        raise CheckFailed(f"time grid has {len(out.states)} samples, expected {N_T}")
    ratios.append(_ratio(out.dphi, CLOSED_TOL, "d phi"))
    ratios.append(_ratio(out.dstar, CLOSED_TOL, "d star phi"))
    # the grid's s(t) against the quadrature clock at the last sample
    last = out.states[-1]
    t_quad = flow.time_integral(flow.Q0.to_float(), out.p, 0.0, last.s)
    ratios.append(_ratio(abs(t_quad - T_END), ORACLE_TOL, "quadrature clock at the grid end"))

    orc = out.oracle
    if orc.status != "ok" or len(orc.qs) != N_T:
        raise CheckFailed(f"ODE oracle stopped early ({orc.status})")
    worst = max(abs(float(a) - float(b))
                for q, st in zip(orc.qs, out.states)
                for a, b in zip(q.coeffs, st.q.coeffs))
    ratios.append(_ratio(worst, ORACLE_TOL, "ODE oracle vs closed-form line"))

    bs_rows = json.loads(out.bs_text)["rows"]
    if len(bs_rows) != len(req["z"]):
        raise CheckFailed("bs-metric row count")
    worst = 0.0
    for z, base, fib in bs_rows:
        r3 = 3.0 * (z * z + req["lam"])
        worst = max(worst, abs(base / r3 ** (2.0 / 3.0) - 1.0),
                    abs(fib / (4.0 * r3 ** (-1.0 / 3.0)) - 1.0))
    ratios.append(_ratio(worst, BS_TOL, "bs-metric vs closed form"))

    fingerprint = repr((out.flow_text, out.p.coeffs,
                        [(st.s, st.t, st.detg, st.q.coeffs) for st in out.states],
                        out.dphi, out.dstar, orc.status, orc.ts.tolist(),
                        [q.coeffs for q in orc.qs], orc.cs.tolist(), out.bs_text))
    return max(ratios), fingerprint


WORKLOADS = {
    "acceptance": Workload("acceptance", acceptance_requests, serve_acceptance,
                           check_acceptance, batch=1, warmup=0, trace_block=1),
    "curvature-scan": Workload("curvature-scan", curvature_requests, serve_curvature,
                               check_curvature, batch=200, warmup=3, trace_block=1000),
    "flow-g2": Workload("flow-g2", flow_requests, serve_flow, check_flow,
                        batch=8, warmup=2, trace_block=24),
}
