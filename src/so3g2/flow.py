"""The half-flat evolution as a line in cubic space.

The evolving 3-form corresponds to a cubic q moving along the affine
line q0 + s p, where p is the d(sigma)-reading of the torsion of the
reference frame; the physical time satisfies ds/dt = det g with the
clock identity (det g)^6 = (3/4) Delta(q).  A direct integration of the
evolution equations

    gamma' = d sigma,  (sigma^2)' = -2 d gamma_hat

on the invariant forms exists for cross-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy import integrate as _sciint

from ._exact import mat_rank, nullspace
from .binaryform import BinaryForm, GL2, discriminant, hessian, q_invert, q_map
from .exterior import CEOperator, apply_d, wedge
from .stableform import (
    SIGMA,
    cubic_to_3form,
    hitchin_dual,
    threeform_to_cubic,
    volume_gamma,
)

F = Fraction

#: cubic of the identity frame, q(0) = (1/3) u1^3 - u1 u2^2
Q0 = BinaryForm(3, [F(1, 3), 0, -1, 0])

SIGMA2 = wedge(SIGMA, SIGMA)


@dataclass(frozen=True)
class FlowState:
    q: BinaryForm
    p: BinaryForm
    s: float
    t: float
    detg: float


class EndpointKind(Enum):
    ZeroCubic = "zero cubic"
    TripleRootDividingP = "triple root dividing p"


@dataclass(frozen=True)
class EndpointInfo:
    kind: EndpointKind
    root: Optional[BinaryForm]
    lambda_coefficient: float


def clock_detg(q: BinaryForm) -> float:
    """det g from the discriminant clock (det g)^6 = (3/4) Delta(q)."""
    disc = float(discriminant(q))
    if disc <= 0:
        return 0.0
    return (0.75 * disc) ** (1.0 / 6.0)


def line_cubic(q0: BinaryForm, p: BinaryForm, s) -> BinaryForm:
    return BinaryForm(3, [a + s * b for a, b in zip(q0.coeffs, p.coeffs)])


def line_discriminant_poly(q0: BinaryForm, p: BinaryForm):
    """Coefficients [c4, c3, c2, c1, c0] of Delta(q0 + s p) as a polynomial in s.

    Exact when the inputs are exact: each coefficient of the moving cubic
    is a degree-one polynomial in s and the discriminant is expanded
    through binary-form products in (s, 1).
    """
    qs = [BinaryForm(1, [pv, qv]) for qv, pv in zip(q0.coeffs, p.coeffs)]
    q1, q2, q3, q4 = qs

    def power(f, n):
        out = BinaryForm(0, [1])
        for _ in range(n):
            out = out * f
        return out

    expr = (
        power(q2, 2) * power(q3, 2)
        - 4 * (q1 * power(q3, 3))
        - 4 * (power(q2, 3) * q4)
        + 18 * (q1 * q2 * q3 * q4)
        - 27 * (power(q1, 2) * power(q4, 2))
    )
    return list(expr.coeffs)


def _poly_eval(coeffs, s):
    total = 0
    for c in coeffs:
        total = total * s + c
    return total


def _poly_deriv(coeffs):
    """Coefficients of the derivative, highest degree first like coeffs."""
    deg = len(coeffs) - 1
    return [c * (deg - i) for i, c in enumerate(coeffs[:-1])]


def _strip(coeffs):
    """coeffs without leading zeros; [] for the zero polynomial."""
    nz = next((i for i, c in enumerate(coeffs) if c != 0), len(coeffs))
    return coeffs[nz:]


def _poly_divmod(num, den):
    """Quotient and remainder of exact polynomial division (den has a
    nonzero leading coefficient); remainder without leading zeros."""
    num = list(num)
    quot = []
    for i in range(len(num) - len(den) + 1):
        q = num[i] / den[0]
        quot.append(q)
        for j, d in enumerate(den):
            num[i + j] -= q * d
    return quot, _strip(num[len(quot):])


def _poly_gcd(a, b):
    """Monic greatest common divisor by Euclid's algorithm."""
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return [c / a[0] for c in a]


def _square_free_split(coeffs):
    """Yun's square-free decomposition: [(f_k, k), ...] with the polynomial
    equal to a constant times the product of the f_k^k.

    The f_k are monic, square-free, pairwise coprime and nonconstant, and
    every root of f_k is a root of multiplicity exactly k.  The arithmetic
    runs on the exact Fraction values of the coefficients, so a float
    polynomial is split as the rational polynomial it represents.
    """
    f = _strip([Fraction(c) for c in coeffs])
    if len(f) < 2:
        return []
    df = _poly_deriv(f)
    a = _poly_gcd(f, df)
    b, c = _poly_divmod(f, a)[0], _poly_divmod(df, a)[0]
    out = []
    k = 1
    while len(b) > 1:
        # c and b' have the same degree, one below that of b
        d = _strip([u - v for u, v in zip(c, _poly_deriv(b))])
        a = _poly_gcd(b, d)
        b, c = _poly_divmod(b, a)[0], _poly_divmod(d, a)[0]
        if len(a) > 1:
            out.append((a, k))
        k += 1
    return out


def _poly_real_roots(coeffs) -> list[tuple[float, int]]:
    """Sorted (root, multiplicity) pairs of the real roots.

    Leading coefficients below 1e-14 of the largest are dropped as
    rounding residue of a degree drop.  Multiplicities come from the
    exact square-free split; each root is then polished by Newton's
    method on its own factor, where it is simple.
    """
    scale = max((abs(c) for c in coeffs), default=0)
    trimmed = list(coeffs)
    while trimmed and abs(trimmed[0]) <= 1e-14 * scale:
        trimmed.pop(0)
    out = []
    for factor, k in _square_free_split(trimmed):
        work = [float(c) for c in factor]
        for r in np.roots(work):
            if abs(r.imag) <= 1e-6 * (1 + abs(r.real)):
                out.append((_newton(work, float(r.real)), k))
    return sorted(out)


def _newton(coeffs, r: float) -> float:
    """Newton iteration from r on a polynomial with a simple root near r."""
    der = _poly_deriv(coeffs)
    for _ in range(60):
        fp = _poly_eval(der, r)
        if fp == 0:
            break
        step = _poly_eval(coeffs, r) / fp
        r -= step
        if abs(step) <= 1e-16 * max(1.0, abs(r)):
            break
    return r


def time_integral(q0: BinaryForm, p: BinaryForm, s_from: float, s_to: float) -> float:
    """Physical time across [s_from, s_to]: integral of (3/4 Delta)^(-1/6) ds.

    Delta must be positive in the interior.  An end that is a root of the
    discriminant polynomial (compared exactly with the roots it has) is an
    integrable singularity of known order, removed by a power substitution.
    """
    poly = line_discriminant_poly(q0, p)
    return _time_integral(poly, _poly_real_roots(poly), s_from, s_to)


def _time_integral(poly, roots, s_from: float, s_to: float) -> float:
    """time_integral on the line whose discriminant polynomial is poly,
    with roots = _poly_real_roots(poly); an end equal to one of the roots
    takes that root's multiplicity."""
    if s_from == s_to:
        return 0.0
    mult = dict(roots)
    a, b = sorted((s_from, s_to))
    mid = 0.5 * (a + b)
    total = (_half_integral(poly, a, mid, mult.get(a, 0))
             + _half_integral(poly, b, mid, mult.get(b, 0)))
    return total if s_from < s_to else -total


def _half_integral(poly, end, other, k: int) -> float:
    """Integral of (3/4 Delta)^(-1/6) between end, a root of multiplicity k
    (0 if none), and other, where Delta is positive.

    In u = |s - end| the polynomial is u^k h(u): the Taylor shift to end
    runs on exact values and its k lowest coefficients, which vanish at
    an exact root, are dropped.  With u = v^e, e = 6/(6 - k), the
    integrand becomes e (3/4 h(v^e))^(-1/6), which is bounded.
    """
    width = abs(other - end)
    shifted = _taylor_shift(poly, end, 1 if other > end else -1)
    h = shifted[:len(shifted) - k]
    expo = 6.0 / (6.0 - k)

    def integrand(v):
        val = _poly_eval(h, v ** expo)
        if val <= 0:
            return 0.0
        return expo * (0.75 * val) ** (-1.0 / 6.0)

    val, _ = _sciint.quad(integrand, 0.0, width ** (1.0 / expo), limit=300,
                          epsabs=1e-13, epsrel=1e-12)
    return val


def _taylor_shift(poly, end, sign: int) -> list[float]:
    """Coefficients, highest degree first, of poly(end + sign * u) in u.

    The shift is exact: with end = n/d and the coefficients over a common
    denominator it runs on Python ints, and each coefficient is rounded
    once at the end.
    """
    ratios = [c.as_integer_ratio() for c in poly]
    n, d = end.as_integer_ratio()
    den = math.lcm(*(q for _, q in ratios))
    # den d^deg poly(y / d) has integer coefficients
    work = [p * (den // q) * d ** i for i, (p, q) in enumerate(ratios)]
    scale = den * d ** (len(work) - 1)
    out = []
    while work:
        for i in range(1, len(work)):  # Horner at y = n, in place
            work[i] += n * work[i - 1]
        out.append(work.pop() * (sign * d) ** len(out) / scale)
    return out[::-1]


def advance(state: FlowState, ds: float):
    """Advance a flow state along the line by ds.

    Returns (new_state, clamped); when the discriminant hits zero inside
    the step, the state is clamped to the boundary point and clamped is
    True.
    """
    poly = line_discriminant_poly(state.q, state.p)
    roots = _poly_real_roots(poly)
    s_target = ds
    hits = [r for r, _ in roots if (0 < r <= ds if ds > 0 else ds <= r < 0)]
    clamped = False
    if hits:
        s_target = min(hits, key=abs)
        clamped = True
    dt = _time_integral(poly, roots, 0.0, s_target)
    q_new = line_cubic(state.q, state.p, s_target)
    return (
        FlowState(q=q_new, p=state.p, s=state.s + s_target, t=state.t + dt,
                  detg=clock_detg(q_new)),
        clamped,
    )


def flow_torsion_cubic(d: CEOperator) -> BinaryForm:
    """The d(sigma)-reading of the torsion: the line direction of the flow."""
    return threeform_to_cubic(apply_d(d, SIGMA).to_float())


# ---------------------------------------------------------------------------
# frame-change torsion and the half-flat / Hermitian loci
# ---------------------------------------------------------------------------

def frame_change_torsion(lam: BinaryForm, g: GL2) -> BinaryForm:
    """Torsion of the frame changed by g^{-1}.

    Written out this is
      l1 -> -l4 z^3 + l3 z^2 w - l2 z w^2 + l1 w^3, ...,
      l4 -> l4 x^3 - l3 x^2 y + l2 x y^2 - l1 y^3,
    which coincides with the substitution action act(g, lam).
    """
    if lam.degree != 3:
        raise ValueError("expected a cubic")
    l1, l2, l3, l4 = lam.coeffs
    x, y, z, w = g.x, g.y, g.z, g.w
    return BinaryForm(3, [
        -l4 * z ** 3 + l3 * z ** 2 * w - l2 * z * w ** 2 + l1 * w ** 3,
        3 * l4 * x * z ** 2 - 2 * l3 * x * z * w + l2 * x * w ** 2
        - l3 * y * z ** 2 + 2 * l2 * y * z * w - 3 * l1 * y * w ** 2,
        -3 * l4 * x ** 2 * z + l3 * x ** 2 * w + 2 * l3 * x * y * z
        - 2 * l2 * x * y * w - l2 * y ** 2 * z + 3 * l1 * y ** 2 * w,
        l4 * x ** 3 - l3 * x ** 2 * y + l2 * x * y ** 2 - l1 * y ** 3,
    ])


def halfflat_condition(p: BinaryForm, g: GL2):
    """Zero iff the g-frame structure with reference torsion p is half-flat."""
    x, y, z, w = g.x, g.y, g.z, g.w
    return p(y, -x) - y * p.d_u1()(w, -z) + x * p.d_u2()(w, -z)


def hermitian_condition(p: BinaryForm, g: GL2):
    """The complementary locus condition: zero (together with half-flatness)
    iff the g-frame structure is Hermitian."""
    x, y, z, w = g.x, g.y, g.z, g.w
    return p(w, -z) - w * p.d_u1()(y, -x) + z * p.d_u2()(y, -x)


def is_halfflat_cubic(p: BinaryForm, tol: float = 1e-12) -> bool:
    return abs(float(p.coeffs[1]) - float(p.coeffs[3])) <= tol * max(1.0, p.norm())


# ---------------------------------------------------------------------------
# trajectories with a continuous frame branch
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    p: BinaryForm
    q_start: BinaryForm
    states: list = field(default_factory=list)
    frames: list = field(default_factory=list)

    def qs(self):
        return [st.q for st in self.states]


def _nearest_frame(q: BinaryForm, prev: Optional[GL2]) -> GL2:
    """The det > 0 preimage of q nearest prev, or nearest the identity at the start."""
    ref = prev or GL2.identity()
    return min(q_invert(q), key=lambda g: (abs(g.x - ref.x) + abs(g.y - ref.y)
                                           + abs(g.z - ref.z) + abs(g.w - ref.w)))


def integrate_line(p: BinaryForm, q_start: BinaryForm, s_values) -> Trajectory:
    """Sample the closed-form flow along prescribed line parameters.

    s_values are offsets from q_start; the interior must have positive
    discriminant.  Frames are chosen on the continuous det > 0 branch.
    """
    traj = Trajectory(p=p, q_start=q_start)
    poly = line_discriminant_poly(q_start, p)
    roots = _poly_real_roots(poly)
    prev_g = None
    prev_s = None
    t = 0.0
    for s in s_values:
        q = line_cubic(q_start, p, s)
        disc = float(discriminant(q))
        if disc <= 0:
            raise ValueError(f"discriminant not positive at s={s}")
        if prev_s is not None:
            t += _time_integral(poly, roots, prev_s, s)
        g = _nearest_frame(q, prev_g)
        traj.states.append(FlowState(q=q, p=p, s=float(s), t=t, detg=clock_detg(q)))
        traj.frames.append(g)
        prev_g, prev_s = g, s
    return traj


def integrate_time_grid(p: BinaryForm, q_start: BinaryForm, s0: float,
                        t_grid) -> Trajectory:
    """Sample the closed-form flow on a prescribed physical-time grid.

    The line parameter s(t) solves ds/dt = det g starting from s0 at the
    first grid time; the start must have positive discriminant.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if float(discriminant(line_cubic(q_start, p, s0))) <= 0:
        raise ValueError("start must have positive discriminant")

    def rhs(_t, y):
        return [clock_detg(line_cubic(q_start, p, y[0]))]

    sol = _sciint.solve_ivp(rhs, (t_grid[0], t_grid[-1]), [s0], method="DOP853",
                            rtol=1e-12, atol=1e-14, dense_output=True)
    if sol.status != 0:
        raise RuntimeError("time reparameterization failed")
    traj = Trajectory(p=p, q_start=q_start)
    prev_g = None
    for t in t_grid:
        s = float(sol.sol(t)[0])
        q = line_cubic(q_start, p, s)
        g = _nearest_frame(q, prev_g)
        traj.states.append(FlowState(q=q, p=p, s=s, t=float(t), detg=clock_detg(q)))
        traj.frames.append(g)
        prev_g = g
    return traj


# ---------------------------------------------------------------------------
# direct integration of the evolution equations (oracle)
# ---------------------------------------------------------------------------

@dataclass
class OracleTrajectory:
    ts: np.ndarray
    gammas: list
    sigma2s: list
    qs: list
    cs: np.ndarray
    status: str


def direct_ode_oracle(d: CEOperator, g0: GL2, t_span, n_samples: int = 60) -> OracleTrajectory:
    """Integrate gamma' = d sigma, (sigma^2)' = -2 d gamma_hat directly.

    The state is the invariant 3-form gamma (four coefficients) together
    with the coefficient c of sigma^2 against the reference sigma_0^2;
    gamma_hat is recomputed each step through the stable-form dual.
    Terminates with a boundary report when stability or positivity is
    lost.  The initial frame must be half-flat.
    """
    d = d.to_float()
    p_read = flow_torsion_cubic(d)
    if not is_halfflat_cubic(frame_change_torsion(p_read, g0), tol=1e-9):
        raise ValueError("initial frame is not half-flat")
    q_init = q_map(g0)
    c0 = float(g0.det()) ** 2
    y0 = np.array([3.0 * float(q_init.coeffs[0]), float(q_init.coeffs[1]),
                   float(q_init.coeffs[2]), 3.0 * float(q_init.coeffs[3]), c0])
    pv = np.array([3.0 * float(p_read.coeffs[0]), float(p_read.coeffs[1]),
                   float(p_read.coeffs[2]), 3.0 * float(p_read.coeffs[3])])

    def gamma_form(y):
        return cubic_to_3form(BinaryForm(3, [y[0] / 3.0, y[1], y[2], y[3] / 3.0]))

    def rhs(_t, y):
        c = y[4]
        detg = math.sqrt(max(c, 0.0))
        gdot = detg * pv
        gham = hitchin_dual(gamma_form(y))
        dgh = apply_d(d, gham)
        mu = float(dgh.coeffs.get((1, 2, 3, 4), 0.0)) / 2.0
        return np.concatenate([gdot, [-2.0 * mu]])

    def stability(_t, y):
        if y[4] <= 0:
            return 0.0
        try:
            hitchin_dual(gamma_form(y))
        except ValueError:
            return 0.0
        return 1.0

    stability.terminal = True
    stability.direction = 0

    sol = _sciint.solve_ivp(rhs, t_span, y0, method="DOP853", rtol=1e-11, atol=1e-13,
                            dense_output=True, events=stability, max_step=abs(t_span[1] - t_span[0]) / 8)
    ts = np.linspace(t_span[0], sol.t[-1], n_samples)
    gammas, sigma2s, qs = [], [], []
    cs = np.zeros(len(ts))
    for i, t in enumerate(ts):
        y = sol.sol(t)
        gammas.append(gamma_form(y))
        cs[i] = y[4]
        sigma2s.append(float(y[4]) * SIGMA2.to_float())
        qs.append(BinaryForm(3, [y[0] / 3.0, y[1], y[2], y[3] / 3.0]))
    status = "boundary" if sol.status == 1 else ("ok" if sol.status == 0 else "failed")
    return OracleTrajectory(ts=ts, gammas=gammas, sigma2s=sigma2s, qs=qs, cs=cs,
                            status=status)


# ---------------------------------------------------------------------------
# endpoints
# ---------------------------------------------------------------------------

_ENDPOINT_TOL = 1e-9


def _triple_root(q: BinaryForm):
    """(root f, lambda) if q = lambda f^3, else None."""
    q1, q2, q3, q4 = (float(v) for v in q.coeffs)
    scale = max(abs(q1), abs(q2), abs(q3), abs(q4))
    if max(abs(float(h)) for h in hessian(q).coeffs) > _ENDPOINT_TOL * max(1.0, scale) ** 2:
        return None
    if abs(q1) >= abs(q4):
        alpha, beta = 3 * q1, q2
    else:
        alpha, beta = q3, 3 * q4
    n = math.hypot(alpha, beta)
    if n == 0:
        return None
    alpha, beta = alpha / n, beta / n
    if alpha < 0 or (alpha == 0 and beta < 0):
        alpha, beta = -alpha, -beta
    lam = q(alpha, beta) / (alpha ** 2 + beta ** 2) ** 3
    return BinaryForm(1, [alpha, beta]), lam


class InvalidEndpoint(ValueError):
    pass


def endpoint_classify(p: BinaryForm, q_end: BinaryForm) -> EndpointInfo:
    """Classify a boundary cubic of the flow line in direction p.

    Valid endpoints are the zero cubic or lambda f^3 with f a linear
    divisor of p, and in both cases the line must enter the positive
    discriminant region next to the endpoint.  Anything else (in
    particular a double-but-not-triple root) raises InvalidEndpoint.

    The returned root is unit-normalized with its first nonzero
    component positive and the coefficient scaled so q_end = lambda * root^3.
    """
    tol = _ENDPOINT_TOL
    scale = max(1.0, q_end.norm()) ** 4
    if abs(float(discriminant(q_end))) > tol * scale:
        raise InvalidEndpoint("endpoint must have vanishing discriminant")
    line_poly = line_discriminant_poly(q_end, p)
    if not _line_enters_positive(line_poly):
        raise InvalidEndpoint("flow line never has positive discriminant at this point")
    if q_end.norm() <= tol * max(1.0, p.norm()):
        return EndpointInfo(kind=EndpointKind.ZeroCubic, root=None, lambda_coefficient=0.0)
    tr = _triple_root(q_end)
    if tr is None:
        raise InvalidEndpoint("invalid endpoint: double root that is not triple")
    root, lam = tr
    alpha, beta = (float(v) for v in root.coeffs)
    if abs(float(p(-beta, alpha))) > tol * max(1.0, p.norm()):
        raise InvalidEndpoint("triple root does not divide the torsion direction")
    return EndpointInfo(kind=EndpointKind.TripleRootDividingP, root=root,
                        lambda_coefficient=lam)


def _line_enters_positive(poly) -> bool:
    """Whether Delta(q + s p) > 0 for small |s| != 0 on at least one side."""
    coeffs = [float(c) for c in poly]
    scale = max(abs(c) for c in coeffs) or 1.0
    ordered = coeffs[::-1]  # [c0, c1, c2, c3, c4]; lowest order decides near s = 0
    for j, c in enumerate(ordered):
        if abs(c) > _ENDPOINT_TOL * scale:
            if j == 0:
                return c > 0
            pos_right = c > 0
            pos_left = (c > 0) if j % 2 == 0 else (c < 0)
            return pos_right or pos_left
    return False


# ---------------------------------------------------------------------------
# non-completeness witness
# ---------------------------------------------------------------------------

def no_complete_line_witness(p: BinaryForm) -> float:
    """A concrete s with Delta(Q0 + s p) <= 0 for nonzero half-flat p.

    Prefers a strictly negative value when the discriminant polynomial
    is eventually negative; otherwise returns a real root.
    """
    if p.is_zero():
        raise ValueError("p must be nonzero")
    if not is_halfflat_cubic(p, tol=1e-10):
        raise ValueError("p must satisfy the half-flat condition l2 = l4")
    poly = [float(c) for c in line_discriminant_poly(Q0, p)]
    scale = max(abs(c) for c in poly) or 1.0
    trimmed = poly[:]
    while trimmed and abs(trimmed[0]) <= 1e-13 * scale:
        trimmed.pop(0)
    roots = [r for r, _ in _poly_real_roots(poly)]
    if trimmed and trimmed[0] < 0:
        # eventually negative: step past the largest root
        edge = max(roots) + 1.0 if roots else 1.0
        while _poly_eval(poly, edge) > 0:
            edge *= 2.0
        return edge
    if roots:
        return roots[0]
    raise ArithmeticError("half-flat line with everywhere-positive discriminant")


# ---------------------------------------------------------------------------
# contractions
# ---------------------------------------------------------------------------

def contraction_field(a, b, c, lam: BinaryForm) -> BinaryForm:
    """Value at lam of the generator field of the one-parameter subgroup
    with traceless generator (a b / c -a)."""
    l1, l2, l3, l4 = lam.coeffs
    return BinaryForm(3, [
        3 * a * l1 + b * l2,
        3 * c * l1 + a * l2 + 2 * b * l3,
        2 * c * l2 - a * l3 + 3 * b * l4,
        c * l3 - 3 * a * l4,
    ])


def contraction_plane(a, b, c):
    """Basis of the candidate half-flat plane for the generator (a, b, c).

    The plane is cut out by l2 = l4 and the derivative condition
    3c l1 + 4a l2 + (2b - c) l3 = 0; exact rational basis vectors.
    """
    return nullspace(_plane_rows(a, b, c))


def _plane_rows(a, b, c):
    """The two equations of the candidate plane, in the scalars of (a, b, c)."""
    return [[3 * c, 4 * a, 2 * b - c, 0], [0, 1, 0, -1]]


def contraction_plane_float(a, b, c) -> np.ndarray:
    """Orthonormal float basis (rows) of the candidate plane, by SVD; the
    float counterpart of ``contraction_plane``."""
    _, _, vt = np.linalg.svd(np.array(_plane_rows(a, b, c), dtype=float))
    return vt[2:]


def plane_is_invariant(a, b, c) -> bool:
    """Whether the generator field is tangent to its candidate plane and
    acts nontrivially on it (exact for rational generators)."""
    basis = contraction_plane(a, b, c)
    if len(basis) != 2:
        return False
    imgs = []
    nontrivial = False
    for v in basis:
        img = contraction_field(a, b, c, BinaryForm(3, v)).coeffs
        imgs.append(list(img))
        if any(val != 0 for val in img):
            nontrivial = True
    if not nontrivial:
        return False
    for img in imgs:
        if mat_rank(basis + [img]) != 2:
            return False
    return True


def plane_tangency_defect(a, b, c) -> float:
    """Scaled least-squares defect of the generator field against its
    candidate half-flat plane (float inputs welcome; zero iff invariant).

    Infinite when the field vanishes identically on the plane, so that a
    trivial orbit never counts as qualifying.
    """
    null = contraction_plane_float(a, b, c)
    defect = 0.0
    size = 0.0
    for v in null:
        img = np.array([float(x) for x in
                        contraction_field(a, b, c, BinaryForm(3, list(v))).coeffs])
        size = max(size, float(np.linalg.norm(img)))
        coef, *_ = np.linalg.lstsq(null.T, img, rcond=None)
        defect = max(defect, float(np.linalg.norm(null.T @ coef - img)))
    if size < 1e-10 * max(1.0, abs(a), abs(b), abs(c)):
        return math.inf
    return defect / max(1.0, size)


CANONICAL_GENERATORS = ((1, 0, 0), (0, 1, 3), (0, 1, -1))


def halfflat_contraction_planes():
    """The three invariant generators and their half-flat planes."""
    out = []
    for gen in CANONICAL_GENERATORS:
        out.append((gen, contraction_plane(*gen)))
    return out


def planes_equal(b1, b2) -> bool:
    rows = [list(v) for v in b1] + [list(v) for v in b2]
    return mat_rank(rows) == len(b1) == len(b2)


# ---------------------------------------------------------------------------
# Hamiltonian picture
# ---------------------------------------------------------------------------

def hamiltonian(a1, a2, lam: BinaryForm):
    """H = V(gamma) - 2 V(sigma^2 / 2) on the invariant phase plane.

    Vanishes identically along solutions: the volume of the moving
    3-form equals twice (1 + a2)^(3/2) = 2 (det g)^3 by the clock.
    """
    if a2 <= -1:
        raise ValueError("a2 must exceed -1")
    return volume_gamma(a1, lam) - 2.0 * (1.0 + a2) ** 1.5
