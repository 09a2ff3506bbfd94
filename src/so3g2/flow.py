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

from ._exact import mat_rank, nullspace, scale_to_ints
from .binaryform import BinaryForm, GL2, discriminant, hessian, q_invert, q_map
from .exterior import BASIS, CEOperator, apply_d, wedge
from .stableform import (
    SIGMA,
    _B_DUAL,
    _B_LAMBDA,
    _STABLE_TOL,
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

    The discriminant of the cubic whose coefficients are the linear forms
    p_i s + q0_i in (s, 1); exact when the inputs are exact.
    """
    return list(discriminant(BinaryForm(3, [BinaryForm(1, [pv, qv])
                                            for qv, pv in zip(q0.coeffs, p.coeffs)])).coeffs)


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

    When a coefficient is a float, leading coefficients at or below 1e-14
    of the largest are dropped as rounding residue of a degree drop; exact
    coefficients are kept as they are.  The rest is decided exactly, on
    the rational values of the coefficients: the square-free split gives
    the multiplicities, and on each of its factors a Sturm chain counts
    and isolates the real roots and bisection with exact signs narrows
    each one to two adjacent floats.  A root is returned as the nearer of
    them, so correctly rounded; a root that is a float is returned as
    itself.
    """
    trimmed = list(coeffs)
    if any(isinstance(c, float) for c in coeffs):
        scale = max(abs(c) for c in coeffs)
        while trimmed and abs(trimmed[0]) <= 1e-14 * scale:
            trimmed.pop(0)
    return sorted((r, k) for factor, k in _square_free_split(trimmed)
                  for r in _factor_roots(factor))


def _factor_roots(factor) -> list[float]:
    """The real roots of a square-free polynomial (Sturm 1829).

    The chain is f, f', then the negated remainders, each scaled to
    Python ints by a positive factor, so every sign is exact.  By Sturm's
    theorem V(a) - V(b) roots lie in (a, b], where V counts the sign
    changes along the chain.  All roots lie in (-2^b, 2^b] by Cauchy's
    bound; intervals are halved at floats until each holds one root,
    which bisection on f itself then narrows until the midpoint is an
    end.  Roots closer than one ulp share a float.
    """
    chain = [factor, _poly_deriv(factor)]
    while len(chain[-1]) > 1:
        chain.append([-c for c in _poly_divmod(chain[-2], chain[-1])[1]])
    chain = [scale_to_ints(p)[0] for p in chain]
    f = chain[0]
    lead = abs(f[0])
    bound = float(2 ** ((lead + max(map(abs, f[1:]))) // lead).bit_length())

    def variations(x):
        signs = [v for v in (_sign_at(p, x) for p in chain) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    roots = []
    todo = [(-bound, bound, variations(-bound), variations(bound))]
    while todo:
        lo, hi, v_lo, v_hi = todo.pop()
        mid = 0.5 * (lo + hi)
        if v_lo - v_hi == 1:
            roots.append(_bisect(f, lo, hi))
        elif v_lo - v_hi > 1 and lo < mid < hi:
            v_mid = variations(mid)
            todo += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
        elif v_lo > v_hi:
            roots += [mid] * (v_lo - v_hi)
    return roots


def _bisect(f, lo: float, hi: float) -> float:
    """The float nearest the one root of f in (lo, hi]."""
    sign_hi = _sign_at(f, hi)
    if sign_hi == 0:
        return hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:   # adjacent floats: the nearer one
            return lo if _sign_at(f, (F(lo) + F(hi)) / 2) == sign_hi else hi
        sign = _sign_at(f, mid)
        if sign == 0:
            return mid
        if sign == sign_hi:
            hi = mid
        else:
            lo = mid


def _scaled_value(poly, x) -> tuple[int, int]:
    """(d^deg poly(x), d^deg) for an int polynomial at a float or Fraction
    x = n/d: a homogeneous Horner sum on ints, so exact."""
    n, d = x.as_integer_ratio()
    total, power = 0, 1
    for c in poly:
        total = total * n + c * power
        power *= d
    return total, power // d


def _sign_at(poly, x) -> int:
    """Exact sign of an int polynomial at a float or Fraction."""
    total = _scaled_value(poly, x)[0]
    return (total > 0) - (total < 0)


class Line:
    """The flow line q0 + s p with its discriminant polynomial Delta(s).

    poly is exact when q0 and p are; its scaling to Python ints and its
    real roots with their multiplicities are computed once per line.
    """

    def __init__(self, q0: BinaryForm, p: BinaryForm):
        self.q0, self.p = q0, p
        self.poly = line_discriminant_poly(q0, p)
        self.scaled = scale_to_ints(self.poly)
        self.roots = _poly_real_roots(self.poly)

    def cubic(self, s) -> BinaryForm:
        return line_cubic(self.q0, self.p, s)

    def boundary(self, ds) -> Optional[float]:
        """The root nearest 0 in (0, ds], or in [ds, 0) when ds < 0; None if there is none."""
        hits = [r for r, _ in self.roots if (0 < r <= ds if ds > 0 else ds <= r < 0)]
        return min(hits, key=abs, default=None)

    def time(self, s_from: float, s_to: float) -> float:
        """Physical time across [s_from, s_to]: integral of (3/4 Delta)^(-1/6) ds.

        Delta must be positive in the interior; an end equal to a root takes
        its multiplicity.  One quadrature runs across the interval from the
        end that is a root, or else from the end where Delta is smaller (the
        shift to it is exact where the integrand is largest), and gets the
        distance to the nearest root beyond that end.  An interval whose two
        ends are roots is split at its midpoint.
        """
        if s_from == s_to:
            return 0.0
        mult = dict(self.roots)
        a, b = sorted((s_from, s_to))
        ka, kb = mult.get(a, 0), mult.get(b, 0)
        if ka and kb:
            mid = 0.5 * (a + b)
            total = (_end_integral(_taylor_shift(self.scaled, a, 1), mid - a, ka)
                     + _end_integral(_taylor_shift(self.scaled, b, -1), b - mid, kb))
        else:
            if ka or kb:
                at_b = bool(kb)
            else:  # |Delta(b)| < |Delta(a)|, compared exactly
                ints = self.scaled[0]
                (va, da), (vb, db) = _scaled_value(ints, a), _scaled_value(ints, b)
                at_b = abs(vb) * da < abs(va) * db
            end, sign, k = (b, -1, kb) if at_b else (a, 1, ka)
            gap = min((sign * (end - r) for r, _ in self.roots if sign * (end - r) > 0),
                      default=math.inf)
            total = _end_integral(_taylor_shift(self.scaled, end, sign), b - a, k, gap)
        return total if s_from < s_to else -total

    def trajectory(self, s_values) -> Trajectory:
        """Sample the closed-form flow along prescribed line parameters.

        s_values are offsets from q0, and t is measured from q0 (s = 0);
        the interior must have positive discriminant.  Frames are chosen on
        the continuous det > 0 branch.
        """
        traj = Trajectory(p=self.p, q_start=self.q0)
        prev_g = None
        prev_s = 0.0
        t = 0.0
        for s in s_values:
            q = self.cubic(s)
            if float(discriminant(q)) <= 0:
                raise ValueError(f"discriminant not positive at s={s}")
            t += self.time(prev_s, s)
            g = _nearest_frame(q, prev_g)
            traj.states.append(FlowState(q=q, p=self.p, s=float(s), t=t, detg=clock_detg(q)))
            traj.frames.append(g)
            prev_g, prev_s = g, s
        return traj


def time_integral(q0: BinaryForm, p: BinaryForm, s_from: float, s_to: float) -> float:
    """Physical time across [s_from, s_to] on the line q0 + s p (see Line.time)."""
    return Line(q0, p).time(s_from, s_to)


def _end_integral(shifted, width: float, k: int, gap: float = math.inf) -> float:
    """Integral of (3/4 Delta)^(-1/6) over u in [0, width], where shifted
    holds the coefficients of Delta in u = |s - end| from _taylor_shift,
    end is a root of multiplicity k (0 if none), Delta is positive in
    between, and the nearest root beyond end lies at u = -gap.

    The shift runs on exact values, so the k lowest coefficients, which
    vanish at an exact root, are dropped: the rest is h with Delta =
    u^k h(u).  With u = v^e, e = 6/(6 - k), the integrand becomes
    e (3/4 h(v^e))^(-1/6), which is bounded.  When end is no root but
    gap < width, the integrand varies on the scale of gap next to u = 0;
    with u = gap (e^x - 1) it becomes gap e^x (3/4 h(u))^(-1/6), which
    varies on a scale of 1 in x.
    """
    h = shifted[:len(shifted) - k]
    if k == 0 and gap < width:
        def integrand(x):
            val = _poly_eval(h, gap * math.expm1(x))
            if val <= 0:
                return 0.0
            return gap * math.exp(x) * (0.75 * val) ** (-1.0 / 6.0)

        upper = math.log1p(width / gap)
    else:
        expo = 6.0 / (6.0 - k)

        def integrand(v):
            val = _poly_eval(h, v ** expo)
            if val <= 0:
                return 0.0
            return expo * (0.75 * val) ** (-1.0 / 6.0)

        upper = width ** (1.0 / expo)
    val, _ = _sciint.quad(integrand, 0.0, upper, limit=300, epsabs=1e-13, epsrel=1e-12)
    return val


def _taylor_shift(scaled, end, sign: int) -> list[float]:
    """Coefficients, highest degree first, of poly(end + sign * u) in u,
    with scaled = (ints, den) = scale_to_ints(poly).

    The shift is exact: with end = n/d and the coefficients over their
    common denominator it runs on Python ints, and each coefficient is
    rounded once at the end.
    """
    ints, den = scaled
    n, d = end.as_integer_ratio()
    # den d^deg poly(y / d) has integer coefficients
    work = [c * d ** i for i, c in enumerate(ints)]
    scale = den * d ** (len(work) - 1)
    out = []
    while work:
        for i in range(1, len(work)):  # Horner at y = n, in place
            work[i] += n * work[i - 1]
        out.append(work.pop() * (sign * d) ** len(out) / scale)
    return out[::-1]


def flow_torsion_cubic(d: CEOperator) -> BinaryForm:
    """The d(sigma)-reading of the torsion: the line direction of the flow.

    Exact for an exact operator and in floats for a float one; raises
    ValueError when d sigma is not an invariant 3-form.  On a model
    algebra it is minus the formal-product cubic variety.torsion_of.
    """
    return threeform_to_cubic(apply_d(d, SIGMA))


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


def _nearest_frame(q: BinaryForm, prev: Optional[GL2]) -> GL2:
    """The det > 0 preimage of q nearest prev, or nearest the identity at the start."""
    ref = prev or GL2.identity()
    return min(q_invert(q), key=lambda g: (abs(g.x - ref.x) + abs(g.y - ref.y)
                                           + abs(g.z - ref.z) + abs(g.w - ref.w)))


def integrate_line(p: BinaryForm, q_start: BinaryForm, s_values) -> Trajectory:
    """Sample the closed-form flow along prescribed line parameters (see Line.trajectory)."""
    return Line(q_start, p).trajectory(s_values)


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
    for t, s in zip(t_grid, sol.sol(t_grid)[0].tolist()):
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
    qs: list
    cs: np.ndarray
    status: str


#: The oracle stops where -lambda / max(1, max|gamma|)^4 falls to this margin.
#: Towards the boundary gamma_hat grows like (-lambda)^(-1/2), and c' with it,
#: so the step-size control can only crawl towards lambda = 0.  On seeded
#: half-flat lines with a simple boundary root this margin stops after
#: 1450 to 2220 right-hand sides, 1.5e-7 to 3.6e-4 in t before the boundary;
#: a margin of 1e-11 took up to 71000 (median 8200).
_BOUNDARY_MARGIN = 1e-8


def direct_ode_oracle(d: CEOperator, g0: GL2, t_span, n_samples: int = 60) -> OracleTrajectory:
    """Integrate gamma' = d sigma, (sigma^2)' = -2 d gamma_hat directly.

    The state is the invariant 3-form gamma = B3_MATRIX @ y (four
    coefficients y, those of cubic_to_3form in the B basis) together with
    the coefficient c of sigma^2 against the reference sigma_0^2.  Each
    right-hand side reads lambda(gamma) = (y y) Lambda (y y) and
    sqrt(-lambda) gamma_hat = (y y) G y off the tensors of
    stableform._invariant_tensors, with G contracted once per call against
    the e^1234 row of d, and keeps the stability test of hitchin_dual_rows.
    Lambda and G come from T, not from the cubic covariant, so the oracle
    stays a route to gamma_hat independent of the closed form.  A terminal
    event, continuous in the state, is the smaller of c and
    -lambda(gamma) / max(1, max|gamma|)^4 less _BOUNDARY_MARGIN: where it
    reaches 0 the integration stops just short of the boundary with status
    "boundary", and the samples cover t_span[0] up to that time.  The
    initial frame must be half-flat.
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
    # (sigma^2)' = -2 d gamma_hat read on e^1234, where sigma_0^2 has
    # coefficient 2: c' = -(d gamma_hat)_1234 = -(y y) G_1234 y / sqrt(-lambda);
    # one product (y y) [Lambda | G_1234] serves lambda and c'
    lam_dual = np.hstack([_B_LAMBDA, _B_DUAL @ d.d_matrix(3)[BASIS[4].index((1, 2, 3, 4))]])

    def invariants(q):
        """lambda(gamma) and sqrt(-lambda) gamma_hat_1234 for gamma = B3_MATRIX @ q,
        and the scale max(1, max|gamma|)^4 of the stability test; a row of
        B3_MATRIX holds at most one 1, so max|gamma| = max|q|."""
        yy = (q[:, None] * q).ravel()
        v = yy @ lam_dual
        return v[:16] @ yy, v[16:] @ q, max(1.0, max(map(abs, q.tolist()))) ** 4

    def rhs(_t, y):
        lam, dual_1234, scale = invariants(y[:4])
        if not lam < -_STABLE_TOL * scale:
            raise ValueError("not stable of complex type")
        dy = np.empty(5)
        dy[:4] = math.sqrt(max(y[4], 0.0)) * pv
        dy[4] = -dual_1234 / math.sqrt(-lam)
        return dy

    def boundary(_t, y):
        lam, _, scale = invariants(y[:4])
        return min(y[4], -lam / scale - _BOUNDARY_MARGIN)

    boundary.terminal = True

    sol = _sciint.solve_ivp(rhs, t_span, y0, method="DOP853", rtol=1e-11, atol=1e-13,
                            dense_output=True, events=boundary, max_step=abs(t_span[1] - t_span[0]) / 8)
    ts = np.linspace(t_span[0], sol.t[-1], n_samples)
    ys = sol.sol(ts)
    status = "boundary" if sol.status == 1 else ("ok" if sol.status == 0 else "failed")
    return OracleTrajectory(
        ts=ts,
        qs=[BinaryForm(3, [a / 3.0, b, c, e / 3.0]) for a, b, c, e in ys[:4].T.tolist()],
        cs=ys[4],
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

def no_complete_line_witness(p: BinaryForm) -> tuple[float, int]:
    """An exact certificate that Delta(Q0 + s p) reaches 0, for nonzero half-flat p.

    The line is taken exactly, with the values of p as rationals.  Returns
    (s, 0) for a float s with Delta(s) < 0, or else (r, k) for a real root
    r of multiplicity k from _poly_real_roots.  As Delta(Q0) = 4/3, the
    line leaves Delta > 0 at a real root; where its multiplicity is odd,
    Delta has opposite signs at the floats next to r.  So r is the
    certificate only at roots of even multiplicity, or at roots that no
    float separates.
    """
    if p.is_zero():
        raise ValueError("p must be nonzero")
    if not is_halfflat_cubic(p, tol=1e-10):
        raise ValueError("p must satisfy the half-flat condition l2 = l4")
    ints, _ = scale_to_ints(Q0.coeffs + p.coeffs)
    # Delta is quartic in the coefficients: this is d^4 Delta(Q0 + s p) on ints
    line = Line(BinaryForm(3, ints[:4]), BinaryForm(3, ints[4:]))
    for r, _ in line.roots:
        for s in (math.nextafter(r, -math.inf), math.nextafter(r, math.inf)):
            if _poly_eval(line.poly, F(s)) < 0:
                return s, 0
    if line.roots:
        return line.roots[0]
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
    return nullspace([[3 * c, 4 * a, 2 * b - c, 0], [0, 1, 0, -1]])


def _tangency_residuals(a, b, c):
    """Three cubics in (a, b, c) whose common zeros are the generators
    whose field maps the candidate plane into itself.

    With R the two equations of the plane and X the matrix of
    contraction_field, the plane is invariant iff rank [R; R X] = 2; the
    nine 3x3 minors of [R; R X] and these three cubics generate the same
    ideal (equal Groebner bases).  Their real zeros are seven lines:
    (1, 0, 0), (0, 1, 3), (0, 1, -1), (+-sqrt3/2, 1, 0), (1, +-sqrt3, +-sqrt3).
    """
    return (8 * a * a * b + 4 * a * a * c - 6 * b ** 3 - b * b * c + 4 * b * c * c - c ** 3,
            c * (12 * a * a - 3 * b * b - 2 * b * c + c * c),
            a * c * (b - c))


def plane_is_invariant(a, b, c) -> bool:
    """Whether the generator field is tangent to its candidate plane and
    acts nontrivially on it, decided exactly on the Fraction values of
    (a, b, c).  The field vanishes on its plane only for the zero generator."""
    gen = [F(a), F(b), F(c)]
    return any(gen) and not any(_tangency_residuals(*gen))


def plane_tangency_defect(a, b, c) -> float:
    """Float tangency defect of the generator field against its candidate
    half-flat plane: max |P_i| / max(1, |a|, |b|, |c|)^3 over the three
    cubics of _tangency_residuals (zero iff invariant).

    Infinite for the zero generator, whose field vanishes on the plane,
    so that a trivial orbit never counts as qualifying.
    """
    a, b, c = float(a), float(b), float(c)
    if a == b == c == 0:
        return math.inf
    return max(map(abs, _tangency_residuals(a, b, c))) / max(1.0, abs(a), abs(b), abs(c)) ** 3


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
