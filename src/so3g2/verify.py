"""Verification suites: one callable per acceptance area.

Each suite returns a SuiteResult with the worst residual observed, the
tolerance it was held to, and a pass flag; the command line front end
prints one line per suite and the test suite asserts on them.  Seeds
make every sweep reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._exact import mat_det, mat_rank, sym_signature
from .binaryform import (
    BinaryForm,
    GL2,
    act,
    discriminant,
    resultant,
    sigma3_all,
    split_b1_b2,
)
from .curvature import (
    TCoords,
    levi_civita_oracle,
    model_tcoords,
    ricci_closed_form,
)
from .exterior import CEOperator, KForm, d_squared_residual
from .flow import (
    CANONICAL_GENERATORS,
    InvalidEndpoint,
    Line,
    Q0,
    Trajectory,
    FlowState,
    contraction_plane,
    plane_tangency_defect,
    direct_ode_oracle,
    endpoint_classify,
    flow_torsion_cubic,
    frame_change_torsion,
    hamiltonian,
    integrate_line,
    integrate_time_grid,
    line_cubic,
    line_discriminant_poly,
    no_complete_line_witness,
    plane_is_invariant,
    planes_equal,
    time_integral,
    _poly_deriv,
    _poly_eval,
    _poly_real_roots,
)
from .g2 import (
    assemble_g2,
    case2_family,
    case3_family,
    central_difference,
    check_closedness,
    frame_metric6,
    ricci7,
    smoothness_check,
    triality_action,
    triality_matrix,
)
from .variety import (
    LieAlgebraClass,
    ModelPoint,
    TorsionData,
    act_on_point,
    center_dim,
    classify,
    derived_algebra_dim,
    is_nilpotent,
    kappa,
    killing_form,
    killing_rank,
    killing_signature,
    membership_rank,
    structure_constants,
    torsion_blocks,
    torsion_of,
)

F = Fraction

# the tolerance each suite reports and is held to
CURVATURE_TOL = 1e-10
EINSTEIN_TOL = 1e-10
FLOW_CLOCK_TOL = 1e-10
CLOSED_FORM_TOL = 1e-8
G2_TOL = 1e-6
TRIALITY_TOL = 1e-10
HAMILTONIAN_TOL = 1e-8


@dataclass
class SuiteResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        msg = f"[{flag}] {self.name}: residual {self.residual:.3e} (tol {self.tolerance:.0e})"
        if self.detail:
            msg += f" - {self.detail}"
        return msg


def _random_point_exact(rng, span=6) -> ModelPoint:
    while True:
        x = [F(rng.randint(-span, span)) for _ in range(2)]
        y = [F(rng.randint(-span, span)) for _ in range(3)]
        if any(v != 0 for v in x) and any(v != 0 for v in y):
            return ModelPoint.make(x, y)


def _random_point_float(rng) -> ModelPoint:
    while True:
        x = [rng.uniform(-2.0, 2.0) for _ in range(2)]
        y = [rng.uniform(-2.0, 2.0) for _ in range(3)]
        if max(abs(v) for v in x) > 0.1 and max(abs(v) for v in y) > 0.1:
            return ModelPoint.make(x, y)


# ---------------------------------------------------------------------------
# 1. Jacobi exactness
# ---------------------------------------------------------------------------

def suite_jacobi(seed: int = 0, n_samples: int = 1000, perturb: bool = False) -> SuiteResult:
    """d^2 = 0 exactly on the variety; d^2 != 0 at rank-two torsion data."""
    rng = random.Random(seed)
    worst = 0
    for _ in range(n_samples):
        m = _random_point_exact(rng)
        d = structure_constants(m)
        if perturb:
            imgs = list(d.images)
            imgs[0] = imgs[0] + KForm(2, {(3, 5): F(1, 7)})
            d = CEOperator(tuple(imgs))
        res = d_squared_residual(d)
        worst = max(worst, float(res))
    off_ok = 0
    tried = 0
    while tried < n_samples:
        lam = BinaryForm(3, [F(rng.randint(-6, 6)) for _ in range(4)])
        mu = BinaryForm(1, [F(rng.randint(-6, 6)) for _ in range(2)])
        t = TorsionData(lam, mu)
        if membership_rank(t) != 2:
            continue
        tried += 1
        if d_squared_residual(kappa(t)) != 0:
            off_ok += 1
    passed = worst == 0 and off_ok == n_samples
    detail = f"{off_ok}/{n_samples} rank-2 samples break Jacobi"
    if perturb:
        detail += " (structure constants perturbed on purpose)"
    return SuiteResult("jacobi", passed, worst, 0.0, detail)


# ---------------------------------------------------------------------------
# 2. Killing identity
# ---------------------------------------------------------------------------

def suite_killing(seed: int = 1, n_samples: int = 1000) -> SuiteResult:
    """det F = (4 Delta R^2)^3 exactly; rank in {0,3,6}; signature by sign of Delta."""
    rng = random.Random(seed)
    for _ in range(n_samples):
        m = _random_point_exact(rng, span=4)
        d = structure_constants(m)
        delta = discriminant(m.y)
        res = resultant(m.x, m.y)
        want = (4 * delta * res * res) ** 3
        b = killing_form(d)
        det = mat_det(b)
        if det != want:
            return SuiteResult("killing", False, float(abs(det - want)), 0.0,
                               f"det mismatch at {m}")
        rank = mat_rank(b)
        if rank not in (0, 3, 6):
            return SuiteResult("killing", False, float(rank), 0.0, "rank not in {0,3,6}")
        if delta != 0 and res != 0:
            pos, neg = sym_signature(b)
            if delta > 0 and {pos, neg} != {0, 6}:
                return SuiteResult("killing", False, 1.0, 0.0, "definite signature expected")
            if delta < 0 and (pos, neg) != (3, 3):
                return SuiteResult("killing", False, 1.0, 0.0, "split signature expected")
    return SuiteResult("killing", True, 0.0, 0.0, f"{n_samples} exact samples")


# ---------------------------------------------------------------------------
# 3. Classification
# ---------------------------------------------------------------------------

#: the table of demo 01: a point of each class with its Killing rank and
#: signature, derived algebra and center dimensions, and nilpotency
TABLE_REPRESENTATIVES = (
    (((1, 0), (1, 0, -1)), LieAlgebraClass.SO3xSO3, (6, (0, 6), 6, 0, False)),
    (((1, 0), (1, 0, 1)), LieAlgebraClass.SO3C, (6, (3, 3), 6, 0, False)),
    (((1, 0), (0, 0, 1)), LieAlgebraClass.SO3semidirectR3, (3, (0, 3), 6, 0, False)),
    (((1, 0), (0, 1, 0)), LieAlgebraClass.SO3directR3, (3, (0, 3), 3, 3, False)),
    (((1, 0), (1, 0, 0)), LieAlgebraClass.Nilpotent, (0, (0, 0), 3, 3, True)),
)


def suite_classification(seed: int = 2, n_samples: int = 200) -> SuiteResult:
    rng = random.Random(seed)
    for (x, y), want, want_invariants in TABLE_REPRESENTATIVES:
        m = ModelPoint.make([F(v) for v in x], [F(v) for v in y])
        if classify(m) != want:
            return SuiteResult("classification", False, 1.0, 0.0,
                               f"representative {x}*{y} -> {classify(m)}")
        d = structure_constants(m)
        invariants = (killing_rank(d), killing_signature(d), derived_algebra_dim(d),
                      center_dim(d), is_nilpotent(d))
        if invariants != want_invariants:
            return SuiteResult("classification", False, 1.0, 0.0,
                               f"representative {x}*{y} has invariants {invariants}")
    for _ in range(n_samples):
        m = _random_point_exact(rng)
        while True:
            g = GL2(*[F(rng.randint(-3, 3)) for _ in range(4)])
            if g.det() != 0:
                break
        if classify(m) != classify(act_on_point(g, m)):
            return SuiteResult("classification", False, 1.0, 0.0,
                               f"orbit invariance fails at {m}")
    return SuiteResult("classification", True, 0.0, 0.0,
                       f"5 representatives + {n_samples} orbit pairs")


# ---------------------------------------------------------------------------
# 4. Curvature oracle equivalence
# ---------------------------------------------------------------------------

def suite_curvature(seed: int = 3, n_samples: int = 200) -> SuiteResult:
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(n_samples):
        m = _random_point_float(rng)
        rep = levi_civita_oracle(structure_constants(m))
        ric0_close, s_close = ricci_closed_form(model_tcoords(m))
        ric0_oracle = rep.ricci - (rep.scalar / 6.0) * np.eye(6)
        scale = max(1.0, abs(rep.scalar))
        worst = max(worst,
                    float(np.max(np.abs(ric0_close - ric0_oracle))) / scale,
                    abs(s_close - rep.scalar) / scale)
    # bi-invariant point: Ric0 = 0 and s = 6 in the unit-coframe convention
    m = ModelPoint.make([1.0, 0.0], [1.0, 0.0, -1.0])
    rep = levi_civita_oracle(structure_constants(m))
    worst = max(worst, rep.ricci_traceless_norm, abs(rep.scalar - 6.0))
    return SuiteResult("curvature-oracle", worst <= CURVATURE_TOL, worst, CURVATURE_TOL,
                       f"{n_samples} random points; bi-invariant s = 6")


# ---------------------------------------------------------------------------
# 5. Einstein locus
# ---------------------------------------------------------------------------

EINSTEIN_REPRESENTATIVES = (
    ((1, 0), (1, 0, -1)),
    ((1, 0), (0, 1, 1)),
    ((1, 0), (1, 0, -3)),
)


def _einstein_residual_fast(m: ModelPoint) -> float:
    ric0, _ = ricci_closed_form(model_tcoords(m))
    return float(np.max(np.abs(ric0)))


def _so2(theta: float) -> GL2:
    c, s = math.cos(theta), math.sin(theta)
    return GL2(c, -s, s, c)


def orbit_invariants(t: TCoords):
    """Scale-free invariants of the rotation orbit through t: the norm
    ratio of z1 = t1 + i t2 and the normalized phase of z1 * z2^3, with
    z2 = t3 + i t4.  The rotation by theta multiplies z1 by e^(-3 i theta)
    and z2 by e^(i theta), so z1 * z2^3 is fixed."""
    z1, z2 = complex(t.t1, t.t2), complex(t.t3, t.t4)
    n1, n2 = abs(z1), abs(z2)
    total = math.hypot(n1, n2)
    if total == 0:
        return (0.0, 0.0, 0.0)
    if n1 < 1e-12 * total or n2 < 1e-12 * total:
        return (n1 / total, 0.0, 0.0)
    w = z1 * z2 ** 3 / (n1 * n2 ** 3)
    return (n1 / total, w.real, w.imag)


def suite_einstein(seed: int = 4, n_samples: int = 10000) -> SuiteResult:
    """The Einstein locus is exactly the three rotation orbits of the
    representatives; scanned on a grid of about n_samples points over the
    variety plus orbit samples.

    The grid uses the closed-form traceless Ricci residual (suite 4 pins
    it against the Koszul oracle); hits are confirmed with the oracle.
    """
    rng = random.Random(seed)
    reps = [ModelPoint.make(list(x), list(y)) for x, y in EINSTEIN_REPRESENTATIVES]
    rep_inv = [orbit_invariants(model_tcoords(r)) for r in reps]
    # frame reflections conjugate the phase invariant and give isometric
    # structures; accept both mirror images of each representative orbit
    rep_inv += [(a, b, -c) for a, b, c in rep_inv]

    def on_known_orbit(m: ModelPoint) -> bool:
        inv = orbit_invariants(model_tcoords(m))
        return any(max(abs(a - b) for a, b in zip(inv, ri)) < 1e-6 for ri in rep_inv)

    # grid over the (projective) variety: product of angles
    n_side = max(2, int(round(n_samples ** (1.0 / 3.0))))
    false_positive = 0
    checked = 0
    for i in range(n_side):
        a = math.pi * i / n_side
        x = [math.cos(a), math.sin(a)]
        for j in range(n_side):
            for k in range(n_side):
                b = math.pi * j / n_side
                c = math.pi * k / n_side
                y = [math.cos(b), math.sin(b) * math.cos(c), math.sin(b) * math.sin(c)]
                m = ModelPoint.make(x, y)
                checked += 1
                if _einstein_residual_fast(m) <= EINSTEIN_TOL and not on_known_orbit(m):
                    false_positive += 1
    # orbit samples must pass (with the full oracle) and have positive s
    worst = 0.0
    for r in reps:
        for _ in range(30):
            g = _so2(rng.uniform(0, 2 * math.pi))
            m = act_on_point(g, ModelPoint.make(
                [float(v) for v in r.x.coeffs], [float(v) for v in r.y.coeffs]))
            rep = levi_civita_oracle(structure_constants(m))
            worst = max(worst, rep.ricci_traceless_norm)
            if rep.scalar <= 0:
                return SuiteResult("einstein-locus", False, rep.scalar, EINSTEIN_TOL,
                                   "nonpositive scalar curvature on the locus")
    # the symmetric representative in block coordinates
    m3 = ModelPoint.make([F(1), F(0)], [F(1), F(0), F(-3)])
    cu, li = split_b1_b2(m3.x, m3.y)
    a, b, c, q, p, r = torsion_blocks(TorsionData(cu, li))
    coords_ok = (a, p, b, q, c, r) == (0, 3, 0, 1, 3, 0)
    passed = false_positive == 0 and worst <= 1e-9 and coords_ok
    detail = (f"{checked} grid points, {false_positive} false positives; "
              f"orbit residual {worst:.1e}; symmetric point blocks [0:3:0:1:3:0] {coords_ok}")
    return SuiteResult("einstein-locus", passed, worst, EINSTEIN_TOL, detail)


# ---------------------------------------------------------------------------
# 6. Conformal flatness
# ---------------------------------------------------------------------------

def suite_conformal(seed: int = 5, n_samples: int = 150) -> SuiteResult:
    rng = random.Random(seed)
    min_weyl = float("inf")
    for _ in range(n_samples):
        m = _random_point_float(rng)
        if torsion_of(m).norm() < 0.05:
            continue
        rep = levi_civita_oracle(structure_constants(m))
        min_weyl = min(min_weyl, rep.weyl_norm / max(1.0, abs(rep.scalar)))
    zero = ModelPoint.make([0.0, 0.0], [0.0, 0.0, 0.0])
    rep0 = levi_civita_oracle(structure_constants(zero))
    passed = min_weyl > 1e-6 and rep0.weyl_norm == 0.0
    return SuiteResult("conformal-flatness", passed, rep0.weyl_norm, 1e-11,
                       f"min scaled Weyl norm {min_weyl:.3e} over nonzero torsion")


# ---------------------------------------------------------------------------
# 7. Flow clock and oracle
# ---------------------------------------------------------------------------

def suite_flow_clock(seed: int = 6, n_samples: int = 20) -> SuiteResult:
    rng = random.Random(seed)
    worst_clock = 0.0
    for _ in range(n_samples):
        lam = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        p = BinaryForm(3, [lam[0], lam[1], lam[2], lam[1]])
        poly = [float(v) for v in line_discriminant_poly(Q0.to_float(), p)]
        s_hi = 0.0
        step = 0.02
        while s_hi < 1.0:
            nxt = s_hi + step
            if _poly_eval(poly, nxt) <= 1e-6:
                break
            s_hi = nxt
        if s_hi < 3 * step:
            continue
        svals = np.linspace(0.0, s_hi, 9)
        traj = integrate_line(p, Q0.to_float(), svals)
        for st in traj.states:
            worst_clock = max(worst_clock,
                              abs(st.detg ** 6 - 0.75 * float(discriminant(st.q))))
    # monotonicity away from the Hermitian locus + stationarity at it
    p_h = BinaryForm(3, [1.0, 0.0, 1.0, 0.0])  # Hermitian at the identity frame
    c = [float(v) for v in line_discriminant_poly(Q0.to_float(), p_h)]
    dc = _poly_deriv(c)

    def dpoly(s):
        return _poly_eval(dc, s)

    herm_stationary = abs(dpoly(0.0))
    mono_ok = all(dpoly(s) < 0 for s in np.linspace(0.05, 0.5, 12))
    mono_ok = mono_ok and all(dpoly(s) > 0 for s in np.linspace(-0.25, -0.05, 8))
    # direct integration against the closed-form line, one half-flat
    # representative per model class
    from scipy.optimize import brentq

    representatives = [
        ([1.0, 0.0], [-1.0, 0.0, 1.0]),    # compact semisimple
        ([1.0, 0.0], [-1.0, 0.0, -1.0]),   # complex semisimple
        ([1.0, 0.0], [0.0, 0.0, -1.0]),    # semidirect collapse
        ([0.0, 1.0], [0.0, 1.0, 0.0]),     # direct sum with center
        ([1.0, 0.0], [-1.0, 0.0, 0.0]),    # nilpotent
    ]
    worst_oracle = 0.0
    for x, y in representatives:
        d = structure_constants(ModelPoint.make(x, y))
        p_read = flow_torsion_cubic(d)
        orc = direct_ode_oracle(d, GL2.identity(), (0.0, 0.15), n_samples=7)
        line = Line(Q0.to_float(), p_read)
        for i, t in enumerate(orc.ts):
            s_t = brentq(lambda s: line.time(0.0, s) - t, -0.2, 0.9, xtol=1e-13)
            q_closed = line.cubic(s_t)
            worst_oracle = max(worst_oracle, max(
                abs(float(aa) - float(bb))
                for aa, bb in zip(q_closed.coeffs, orc.qs[i].coeffs)))
    passed = (worst_clock <= FLOW_CLOCK_TOL and worst_oracle <= 1e-8 and mono_ok
              and herm_stationary < 1e-12)
    detail = (f"clock {worst_clock:.1e}; oracle-vs-line {worst_oracle:.1e} "
              f"(5 model classes); Hermitian stationarity {herm_stationary:.1e}")
    return SuiteResult("flow-clock", passed, max(worst_clock, worst_oracle), FLOW_CLOCK_TOL,
                       detail)


# ---------------------------------------------------------------------------
# 8. Endpoint lemma
# ---------------------------------------------------------------------------

ADMISSIBLE_ENDPOINTS = (
    ((1.0, 0.0, 1.0, 0.0), (2.0, 0, 0, 0)),      # one-real-root direction, triple root
    ((0.0, 0.0, 1.0, 0.0), (2.0, 0, 0, 0)),      # double-root direction, triple root
    ((1.0, 0.0, -1.0, 0.0), (1.0, 3.0, 3.0, 1.0)),  # split direction, (u1+u2)^3
)

RULED_OUT_ENDPOINTS = (
    ((1.0, 0.0, 0.0, 0.0), (2.0, 0, 0, 0)),      # direction with triple root itself
    ((0.0, 0.0, 1.0, 0.0), (0, 0, 0, 2.0)),      # root not dividing the line positively
    ((1.0, 0.0, 1.0, 0.0), (0.0, 0, 0, 0)),      # zero cubic on a negative line
)


def _double_root_residual(exponent: float) -> float:
    """Worst |s - s(t)| on the double-root collapse line for the closed
    form s(t) = -t^2 (3 lam)^exponent / 4, with t from the quadrature clock."""
    lam = 1.0
    p2 = BinaryForm(3, [0.0, 0.0, 1.0, 0.0])
    q2 = BinaryForm(3, [lam, 0.0, 0.0, 0.0])
    worst = 0.0
    for s in (-0.2, -0.7, -1.5):
        t = time_integral(q2, p2, 0.0, s)
        s_closed = -0.25 * t * t * (3 * lam) ** exponent
        worst = max(worst, abs(s - s_closed))
    return worst


def suite_endpoints() -> SuiteResult:
    for p, q in ADMISSIBLE_ENDPOINTS:
        try:
            endpoint_classify(BinaryForm(3, list(p)), BinaryForm(3, list(q)))
        except InvalidEndpoint as exc:
            return SuiteResult("endpoints", False, 1.0, CLOSED_FORM_TOL,
                               f"admissible rejected: {exc}")
    for p, q in RULED_OUT_ENDPOINTS:
        try:
            endpoint_classify(BinaryForm(3, list(p)), BinaryForm(3, list(q)))
            return SuiteResult("endpoints", False, 1.0, CLOSED_FORM_TOL,
                               f"ruled-out accepted: {p} {q}")
        except InvalidEndpoint:
            pass
    # double-root collapse: closed-form s(t) against integration.
    # The verified closed form is s = -t^2 (3 lam)^(1/3) / 4 (see LEDGER.md);
    # the stated exponent 2/3 is checked by suite_case2_stated below.
    worst = _double_root_residual(1.0 / 3.0)
    return SuiteResult("endpoints", worst <= CLOSED_FORM_TOL, worst, CLOSED_FORM_TOL,
                       "3 admissible + 3 ruled out; verified closed form")


def suite_case2_stated() -> SuiteResult:
    """The double-root closed form with the stated exponent 2/3.

    Known defect: the clock identity forces exponent 1/3 (see
    LEDGER.md); this check is expected to fail and is reported
    separately so the defect stays visible.
    """
    worst = _double_root_residual(2.0 / 3.0)
    return SuiteResult("case2-stated", worst <= CLOSED_FORM_TOL, worst, CLOSED_FORM_TOL,
                       "expected to fail: stated exponent 2/3 vs clock-consistent 1/3")


# ---------------------------------------------------------------------------
# 9. Non-completeness
# ---------------------------------------------------------------------------

def suite_noncomplete(seed: int = 7, n_samples: int = 100) -> SuiteResult:
    """Criterion 9 on sampled lines, each witness checked on the exact line:
    Delta(s) < 0 in Fractions, or a real root.  The residual is the
    largest Delta at a witness (0 at a root)."""
    rng = random.Random(seed)
    values, kinds = [], [0, 0]
    certified = True
    for _ in range(n_samples):
        lam = [rng.uniform(-2, 2) for _ in range(3)]
        p = BinaryForm(3, [lam[0], lam[1], lam[2], lam[1]])
        if p.norm() < 0.05:
            continue
        s, k = no_complete_line_witness(p)
        exact = BinaryForm(3, [F(c) for c in p.coeffs])
        if k == 0:
            val = discriminant(line_cubic(Q0, exact, F(s)))
            certified = certified and val < 0
        else:
            val = 0
            certified = certified and (s, k) in _poly_real_roots(
                line_discriminant_poly(Q0, exact))
        values.append(float(val))
        kinds[k > 0] += 1
    return SuiteResult("non-completeness", certified, max(values, default=0.0), 0.0,
                       f"{len(values)} of {n_samples} half-flat directions certified "
                       f"exactly: {kinds[0]} with Delta(s) < 0, {kinds[1]} at a root")


# ---------------------------------------------------------------------------
# 10. G2 closedness and smoothness
# ---------------------------------------------------------------------------

def suite_g2_closedness() -> SuiteResult:
    m = ModelPoint.make([1.0, 0.0], [-1.0, 0.0, 1.0])
    d = structure_constants(m)
    p = flow_torsion_cubic(d)
    q_b = BinaryForm(3, [1.0, 0.0, 0.0, 0.0])
    h = 1e-3
    t0 = time_integral(q_b, p, 0.0, 0.5)
    tg = t0 + np.arange(0.0, 0.06 + h / 2, h)
    traj = integrate_time_grid(p, q_b, 0.5, tg)
    samples = assemble_g2(traj)
    dphi, dstar = check_closedness(samples, d)
    # perturbed negative control
    pert = Trajectory(p=traj.p, q_start=traj.q_start)
    for st, g in zip(traj.states, traj.frames):
        qp = BinaryForm(3, [st.q.coeffs[0], st.q.coeffs[1] + 0.01 * math.sin(40 * st.t),
                            st.q.coeffs[2], st.q.coeffs[3]])
        pert.states.append(FlowState(q=qp, p=st.p, s=st.s, t=st.t, detg=st.detg))
        pert.frames.append(g)
    dphi_p, _ = check_closedness(assemble_g2(pert), d)
    smooth3 = all(smoothness_check(case3_family(lam)) for lam in (0.5, 1.0, 2.0))
    smooth2 = ([lam for lam in (1.0 / 3.0, 0.5, 1.0, 2.0)
                if smoothness_check(case2_family(lam))] == [1.0 / 3.0])
    ricci_worst = max(float(np.max(np.abs(ricci7(case3_family(1.0), d, z))))
                      for z in (0.01, 0.4, 0.9, 1.6))
    passed = (max(dphi, dstar) < G2_TOL and dphi_p > 1e-3 and smooth3 and smooth2
              and ricci_worst < 1e-5)
    detail = (f"dphi {dphi:.1e}, dstar {dstar:.1e}, perturbed {dphi_p:.1e}, "
              f"Ricci7 {ricci_worst:.1e}, smooth cases {smooth3}/{smooth2}")
    return SuiteResult("g2-closedness", passed, max(dphi, dstar), G2_TOL, detail)


# ---------------------------------------------------------------------------
# 11. Triality
# ---------------------------------------------------------------------------

def suite_triality() -> SuiteResult:
    ell3 = triality_matrix(3)
    exact = max(abs(ell3.x - 1), abs(ell3.y), abs(ell3.z), abs(ell3.w - 1)) == 0.0
    m = ModelPoint.make([1.0, 0.0], [1.0, 0.0, -1.0])
    orbit = [triality_action(k, m) for k in range(3)]
    torsions_equal = all(
        max(abs(float(a) - float(b)) for a, b in
            zip(torsion_of(mk).coeffs, torsion_of(m).coeffs)) < 1e-12
        for mk in orbit)
    # the boundary cubics of the three presentations are the symmetry
    # images of lam u1^3 (multiples of u1^3, (u1-u2)^3, (u1+u2)^3); the
    # metric families coincide after the frame identification
    lam = 1.0
    p = BinaryForm(3, [1.0, 0.0, -1.0, 0.0])
    q_b = BinaryForm(3, [lam, 0.0, 0.0, 0.0])
    svals = np.linspace(0.3, 2.0, 7)
    traj0 = integrate_line(p, q_b, svals)
    mets0 = [frame_metric6(g)[:2, :2] for g in traj0.frames]
    worst = 0.0
    roots_seen = []
    for k in (1, 2):
        ellk = triality_matrix(k)
        qk = q_b.substitute(ellk.x, ellk.y, ellk.z, ellk.w)
        pk = p.substitute(ellk.x, ellk.y, ellk.z, ellk.w)
        worst = max(worst, max(abs(float(a) - float(b))
                               for a, b in zip(pk.coeffs, p.coeffs)))
        # which linear cube the boundary is a multiple of
        info = endpoint_classify(p, qk)
        roots_seen.append(tuple(round(float(v), 6) for v in info.root.coeffs))
        trajk = integrate_line(p, qk, svals)
        lk = ellk.to_array()
        for i, g in enumerate(trajk.frames):
            mk = frame_metric6(g)[:2, :2]
            ident = lk.T @ mets0[i] @ lk
            worst = max(worst, float(np.max(np.abs(mk - ident))))
    # in its own adapted frame each family has the closed coefficient
    # functions of the complete metric
    for i, s in enumerate(svals):
        base = (3.0 * (s + lam)) ** (2.0 / 3.0)
        fib = s * (3.0 * (s + lam)) ** (-1.0 / 3.0)
        ev = np.sort(np.linalg.eigvalsh(mets0[i]))
        worst = max(worst, abs(ev[1] - base), abs(ev[0] - fib))
    cycled = len(set(roots_seen)) == 2 and all(
        r not in ((1.0, 0.0),) for r in roots_seen)
    passed = exact and torsions_equal and worst <= TRIALITY_TOL and cycled
    return SuiteResult("triality", passed, worst, TRIALITY_TOL,
                       "orbit of 3 products; frame-identified metric families equal; "
                       f"boundary roots cycle {roots_seen}")


# ---------------------------------------------------------------------------
# 12. Contractions
# ---------------------------------------------------------------------------

def suite_contractions() -> SuiteResult:
    canonical = [contraction_plane(*gen) for gen in CANONICAL_GENERATORS]
    # rational grid; the irrational qualifying families (b = c = +-sqrt3 a
    # and a = +-sqrt3 b / 2, permutation images of the rational ones) are
    # appended explicitly since no rational grid can contain them
    s3 = math.sqrt(3.0)
    grid = set()
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                if (a, b, c) != (0, 0, 0):
                    grid.add((F(a), F(b), F(c)))
    irrational = [(1.0, s3, s3), (1.0, -s3, -s3), (s3 / 2.0, 1.0, 0.0),
                  (s3 / 2.0, -1.0, 0.0), (-s3 / 2.0, 1.0, 0.0)]
    qualifying = [gen for gen in grid if plane_is_invariant(*gen)]
    qualifying_f = [gen for gen in irrational
                    if plane_tangency_defect(*gen) < 1e-10]
    if not qualifying or len(qualifying_f) != len(irrational):
        return SuiteResult("contractions", False, 1.0, 0.0,
                           "qualifying generator families missing")
    # near-miss generators must fail the float tangency test too
    near = [(1.0, s3 * 1.01, s3), (1.0, 0.2, 0.0), (0.5, 1.0, 2.9)]
    if any(plane_tangency_defect(*gen) < 1e-6 for gen in near):
        return SuiteResult("contractions", False, 1.0, 0.0,
                           "non-solution generator passed the tangency scan")
    # every qualifying plane must be (a scalar multiple of) one of the
    # canonical families or a permutation-image of one
    sigma_mats = sigma3_all()

    def matches_canonical(basis_rows) -> bool:
        for cb in canonical:
            for smat in sigma_mats:
                img = [list(act(smat, BinaryForm(3, [float(x) for x in v])).coeffs)
                       for v in cb]
                rows = basis_rows + img
                if np.linalg.matrix_rank(np.array(rows, dtype=float), tol=1e-8) == 2:
                    return True
        return False

    bad = []
    for gen in qualifying + qualifying_f:
        basis = contraction_plane(*gen)
        if any(planes_equal(basis, cb) for cb in canonical):
            continue
        if not matches_canonical([[float(x) for x in v] for v in basis]):
            bad.append(gen)
    found = [any(planes_equal(contraction_plane(*gen), cb) for gen in qualifying)
             for cb in canonical]
    # the flow preserves the first plane and exits the other two; the
    # written-out frame change must agree with the substitution action
    act_gaps = []

    def lambda_path(p, s_max):
        svals = np.linspace(0.0, s_max, 5)
        traj = integrate_line(p, Q0.to_float(), svals)
        lams = [frame_change_torsion(p, g) for g in traj.frames]
        act_gaps.extend(abs(float(x) - float(y)) for g, l in zip(traj.frames, lams)
                        for x, y in zip(l.coeffs, act(g, p).coeffs))
        return lams

    lams = lambda_path(BinaryForm(3, [0.7, 0.0, -1.3, 0.0]), 0.25)
    keep = max(max(abs(float(l.coeffs[1])), abs(float(l.coeffs[3]))) for l in lams)
    lams = lambda_path(BinaryForm(3, [0.1, 0.3, 0.9, 0.3]), 0.1)
    exit_013 = abs(9 * float(lams[-1].coeffs[0]) - float(lams[-1].coeffs[2]))
    start_013 = abs(9 * float(lams[0].coeffs[0]) - float(lams[0].coeffs[2]))
    lams = lambda_path(BinaryForm(3, [0.8, 0.4, 0.8, 0.4]), 0.1)
    exit_01m1 = abs(float(lams[-1].coeffs[0]) - float(lams[-1].coeffs[2]))
    start_01m1 = abs(float(lams[0].coeffs[0]) - float(lams[0].coeffs[2]))
    flow_ok = (keep < 1e-10 and start_013 < 1e-10 and exit_013 > 1e-4
               and start_01m1 < 1e-10 and exit_01m1 > 1e-4 and max(act_gaps) <= 1e-12)
    passed = not bad and all(found) and flow_ok
    detail = (f"{len(qualifying)} qualifying generators on the grid, "
              f"{len(bad)} unmatched; canonical found {found}; "
              f"flow keeps plane 1 ({keep:.1e}) exits 2,3 ({exit_013:.1e}, {exit_01m1:.1e})")
    return SuiteResult("contractions", passed, float(len(bad)), 0.0, detail)


# ---------------------------------------------------------------------------
# 13. Hamiltonian
# ---------------------------------------------------------------------------

def suite_hamiltonian(seed: int = 9, n_samples: int = 6) -> SuiteResult:
    rng = random.Random(seed)
    worst_h = 0.0
    worst_rate = 0.0
    for _ in range(n_samples):
        lam = [rng.uniform(-0.8, 0.8) for _ in range(3)]
        p = BinaryForm(3, [lam[0], lam[1], lam[2], lam[1]])
        if p.norm() < 0.05:
            continue
        h = 2e-3
        tg = np.arange(0.0, 0.12 + h / 2, h)
        try:
            traj = integrate_time_grid(p, Q0.to_float(), 0.0, tg)
        except ValueError:
            continue
        svals = [st.s for st in traj.states]
        for i, st in enumerate(traj.states):
            a1 = st.s
            a2 = st.detg ** 2 - 1.0
            worst_h = max(worst_h, abs(hamiltonian(a1, a2, p)))
            if 2 <= i < len(svals) - 2:
                ds = central_difference(lambda k: svals[i + k], h)
                worst_rate = max(worst_rate,
                                 abs(ds - st.detg),
                                 abs(ds - math.sqrt(1.0 + a2)))
    passed = worst_h <= HAMILTONIAN_TOL and worst_rate <= HAMILTONIAN_TOL
    return SuiteResult("hamiltonian", passed, max(worst_h, worst_rate), HAMILTONIAN_TOL,
                       f"H drift {worst_h:.1e}; rate identity {worst_rate:.1e}")


ALL_SUITES = {
    "jacobi": suite_jacobi,
    "killing": suite_killing,
    "classification": suite_classification,
    "curvature": suite_curvature,
    "einstein": suite_einstein,
    "conformal": suite_conformal,
    "flow-clock": suite_flow_clock,
    "endpoints": suite_endpoints,
    "case2-stated": suite_case2_stated,
    "non-completeness": suite_noncomplete,
    "g2": suite_g2_closedness,
    "triality": suite_triality,
    "contractions": suite_contractions,
    "hamiltonian": suite_hamiltonian,
}

KNOWN_DEFECT_SUITES = {"case2-stated"}

# the suites that draw random samples; each takes `seed` and `n_samples`
SAMPLED_SUITES = frozenset({
    "jacobi", "killing", "classification", "curvature", "einstein", "conformal",
    "flow-clock", "non-completeness", "hamiltonian",
})


def run_all(names=None, seed: int | None = None, n_samples: int | None = None,
            perturb_jacobi: bool = False):
    """Run the requested suites (all by default) and return the results.

    `seed` and `n_samples` replace the defaults of the sampled suites when
    given; the other suites take no parameters.
    """
    overrides = {}
    if seed is not None:
        overrides["seed"] = seed
    if n_samples is not None:
        overrides["n_samples"] = n_samples
    results = []
    for name, fn in ALL_SUITES.items():
        if names and name not in names:
            continue
        kwargs = dict(overrides) if name in SAMPLED_SUITES else {}
        if name == "jacobi" and perturb_jacobi:
            kwargs["perturb"] = True
        results.append(fn(**kwargs))
    return results
