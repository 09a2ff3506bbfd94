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

import functools
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy import integrate as _sciint

from ._exact import mat_rank, nullspace, scale_to_ints
from .binaryform import BinaryForm, GL2, discriminant, q_invert, q_map
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

    def to_json(self) -> dict:
        return {"kind": self.kind.name,
                "root": list(self.root.coeffs) if self.root else None,
                "lambda": self.lambda_coefficient}


def clock_detg(disc: float) -> float:
    """det g from the discriminant clock (det g)^6 = (3/4) Delta, given the
    float discriminant Delta of the cubic; 0 where Delta <= 0."""
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


def _primitive(p):
    """The int polynomial p divided by its content, the positive gcd of its
    coefficients: a positive multiple of p."""
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _prem(num, den):
    """A pseudo-remainder of int polynomials, without leading zeros: the
    remainder of |lc(den)|^e num by den, e = deg num - deg den + 1, so a
    positive multiple of the remainder over the rationals."""
    num = list(num)
    lead = abs(den[0])
    sign = 1 if den[0] > 0 else -1
    n = len(den)
    for i in range(len(num) - n + 1):
        f = sign * num[i]
        num[i] = 0
        for j in range(i + 1, len(num)):
            num[j] *= lead
        for j in range(1, n):
            num[i + j] -= f * den[j]
    return _strip(num[len(num) - n + 1:])


def _int_gcd(a, b):
    """A greatest common divisor of int polynomials, primitive: the
    primitive pseudo-remainder sequence (Collins 1967)."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_prem(a, b))
    return a


def _exact_quotient(num, den):
    """num / den for int polynomials where den divides num in Z[x]: by
    Gauss's lemma, wherever den is primitive and divides num over Q."""
    num = list(num)
    quot = []
    for i in range(len(num) - len(den) + 1):
        q = num[i] // den[0]
        quot.append(q)
        for j, d in enumerate(den):
            num[i + j] -= q * d
    return quot


def _square_free_split(coeffs):
    """Yun's square-free decomposition: [(f_k, k), ...] with the polynomial
    equal to a constant times the product of the f_k^k.

    The f_k are monic Fractions, square-free, pairwise coprime and
    nonconstant, and every root of f_k is a root of multiplicity exactly k.
    The coefficients are read once as Python ints (``scale_to_ints``, so a
    float polynomial is split as the rational polynomial it represents),
    and Yun's steps run in Z[x] (Yun 1976): each gcd is a primitive
    pseudo-remainder sequence and each quotient an exact one by a
    primitive divisor.  Only the factors found are made monic Fractions.
    """
    f = _strip(scale_to_ints(coeffs)[0])
    if len(f) < 2:
        return []
    df = _poly_deriv(f)
    a = _int_gcd(f, df)
    # over Q these are f / a and f' / a up to one common constant factor,
    # which the next differences and gcds carry along
    b, c = _exact_quotient(f, a), _exact_quotient(df, a)
    out = []
    k = 1
    while len(b) > 1:
        # c and b' have the same degree, one below that of b
        d = _strip([u - v for u, v in zip(c, _poly_deriv(b))])
        a = _int_gcd(b, d)
        b, c = _exact_quotient(b, a), _exact_quotient(d, a)
        if len(a) > 1:
            out.append(([Fraction(v, a[0]) for v in a], k))
        k += 1
    return out


def _poly_real_roots(coeffs) -> list[tuple[float, int]]:
    """Sorted (root, multiplicity) pairs of the real roots.

    Decided exactly, on the rational values of the coefficients: the
    square-free split gives the multiplicities, and on each of its factors
    a Sturm chain counts and isolates the real roots and bisection with
    exact signs narrows each one to two adjacent floats.  A root is
    returned as the nearer of them, so correctly rounded; a root that is a
    float is returned as itself.
    """
    return sorted((r, k) for factor, k in _square_free_split(coeffs)
                  for r in _factor_roots(factor))


def _factor_roots(factor) -> list[float]:
    """The real roots of a square-free polynomial (Sturm 1829).

    The chain is f, f', then the negated remainders, on Python ints: f is
    the factor scaled to ints, and each later member is a pseudo-remainder
    divided by its content, a positive multiple of the negated remainder,
    so every sign is exact.  By Sturm's theorem V(a) - V(b) roots lie in
    (a, b], where V counts the sign changes along the chain.  All roots
    lie in (-2^b, 2^b] by Cauchy's bound; intervals are halved at floats
    until each holds one root, which bisection on f itself then narrows
    until the midpoint is an end.  Roots closer than one ulp share a float.
    """
    f = scale_to_ints(factor)[0]
    chain = [f, _primitive(_poly_deriv(f))]
    while len(chain[-1]) > 1:
        chain.append(_primitive([-c for c in _prem(chain[-2], chain[-1])]))
    lead = abs(f[0])
    exponent = ((lead + max(map(abs, f[1:]))) // lead).bit_length()
    if exponent >= sys.float_info.max_exp:
        raise ValueError(f"real roots bounded only by 2^{exponent}, beyond the float range")
    bound = float(2 ** exponent)

    def variations(x):
        n, d = x.as_integer_ratio()
        signs = [v for v in (_sign_at(p, n, d) for p in chain) if v]
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
    sign_hi = _sign_at(f, *hi.as_integer_ratio())
    if sign_hi == 0:
        return hi
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:   # adjacent floats: the nearer one
            (n, d), (m, e) = lo.as_integer_ratio(), hi.as_integer_ratio()
            return lo if _sign_at(f, n * e + m * d, 2 * d * e) == sign_hi else hi
        sign = _sign_at(f, *mid.as_integer_ratio())
        if sign == 0:
            return mid
        if sign == sign_hi:
            hi = mid
        else:
            lo = mid


def _scaled_value(poly, n: int, d: int) -> tuple[int, int]:
    """(d^deg poly(n/d), d^deg) for an int polynomial at the ratio n/d of
    ints, d > 0: a homogeneous Horner sum on ints, so exact."""
    total, power = 0, 1
    for c in poly:
        total = total * n + c * power
        power *= d
    return total, power // d


def _sign_at(poly, n: int, d: int) -> int:
    """Exact sign of an int polynomial at the ratio n/d of ints, d > 0."""
    total = _scaled_value(poly, n, d)[0]
    return (total > 0) - (total < 0)


#: Gauss-Legendre nodes and weights on [-1, 1] of one clock panel.  Where the
#: Bernstein ellipse of a panel avoids the roots of Delta the integrand
#: (3/4 Delta)^(-1/6) is analytic there, and n nodes converge like rho^(-2n).
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)
#: A panel goes to Line.time when a root of Delta lies within this many
#: half-widths of its midpoint (rho >= 7.8 outside) ...
_PANEL_ROOT_DISTANCE = 4.0
#: ... or when at a node Horner's error bound sum |c_i| |s|^i exceeds this
#: many times |Delta(s)|, where the expanded polynomial cancels.
_PANEL_CONDITION = 50.0
#: Newton on the clock stops after a step that moves no s by more than this,
#: relative to max(1, |s|), so the error left is about its square; it gives
#: up after _NEWTON_STEPS iterations (halving towards a root takes ~50).
_NEWTON_TOL = 1e-12
_NEWTON_STEPS = 100


class Line:
    """The flow line q0 + s p with its discriminant polynomial Delta(s).

    The polynomial is built once, exactly, on the rational values of q0
    and p: scaled = (ints, den) holds den Delta(s) as Python ints, den > 0.
    Its real roots with their multiplicities are computed on first use:
    times and s_at need them only for a panel that falls back to time or a
    step that reaches the edge.
    """

    def __init__(self, q0: BinaryForm, p: BinaryForm):
        self.q0, self.p = q0, p
        ints, scale = scale_to_ints(q0.coeffs + p.coeffs)
        # Delta is quartic in the coefficients: scale^4 Delta(s) on ints
        self.scaled = (line_discriminant_poly(BinaryForm(3, ints[:4]), BinaryForm(3, ints[4:])),
                       scale ** 4)

    @functools.cached_property
    def roots(self) -> list[tuple[float, int]]:
        return _poly_real_roots(self.scaled[0])

    @functools.cached_property
    def _float_poly(self) -> np.ndarray:
        """The coefficients of Delta, each rounded once from its exact value."""
        ints, den = self.scaled
        try:
            return np.array([c / den for c in ints])
        except OverflowError:
            raise ValueError("the line's discriminant is beyond the float range") from None

    @functools.cached_property
    def _float_roots(self) -> np.ndarray:
        """All complex roots of the float coefficients; they only choose panels."""
        return np.roots(self._float_poly)

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
                (va, da), (vb, db) = (_scaled_value(ints, *a.as_integer_ratio()),
                                      _scaled_value(ints, *b.as_integer_ratio()))
                at_b = abs(vb) * da < abs(va) * db
            end, sign, k = (b, -1, kb) if at_b else (a, 1, ka)
            gap = min((sign * (end - r) for r, _ in self.roots if sign * (end - r) > 0),
                      default=math.inf)
            total = _end_integral(_taylor_shift(self.scaled, end, sign), b - a, k, gap)
        return total if s_from < s_to else -total

    def _horner(self, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Delta at the floats s by Horner on the float coefficients,
        and where that value is positive and trusted: Horner's error bound
        sum |c_i| |s|^i is below _PANEL_CONDITION times it."""
        vals = _poly_eval(self._float_poly, s)
        return vals, _PANEL_CONDITION * vals > _poly_eval(np.abs(self._float_poly), np.abs(s))

    def times(self, s_values, start: float = 0.0) -> np.ndarray:
        """Cumulative physical time from start to each of s_values in turn.

        Each step is one Gauss-Legendre panel on the float coefficients of
        Delta, all in one vectorised call.  A panel goes to time instead when
        a root of Delta (np.roots, used for this choice only) lies within
        _PANEL_ROOT_DISTANCE half-widths of its midpoint or Horner's value
        at a node is not trusted, so an end that is a root keeps its exact
        multiplicity.  Delta must be positive inside every step.
        """
        ends = np.asarray(s_values, dtype=float)
        starts = np.concatenate(([start], ends[:-1]))
        mid, half = 0.5 * (starts + ends), 0.5 * (ends - starts)
        vals, trusted = self._horner(mid[:, None] + half[:, None] * _GL_NODES)
        near = np.abs(self._float_roots[:, None] - mid) <= _PANEL_ROOT_DISTANCE * np.abs(half)
        ok = trusted.all(axis=1) & ~near.any(axis=0)
        steps = half * ((0.75 * np.where(ok[:, None], vals, 1.0)) ** (-1.0 / 6.0) @ _GL_WEIGHTS)
        for i in np.flatnonzero(~ok):
            steps[i] = self.time(float(starts[i]), float(ends[i]))
        return np.cumsum(steps)

    def s_at(self, t_grid, s0: float) -> np.ndarray:
        """The line parameters at the times t_grid, with s0 at t_grid[0].

        Newton on the clock of times from s0, s <- s + (t - T(s)) det g(s),
        moves every grid point in one times call per iteration, from the
        tangent at s0; det g comes from Horner's Delta, or from the exact
        value where that is not trusted.  t_grid is monotonic, Delta(s0) > 0.
        A step that would reach the edge (the nearest real part ahead of a
        root of the float coefficients lying closer to the axis than to s0,
        so that a real root returned as a complex cluster counts) or leave
        Delta > 0 stops halfway.  The first such step makes the first exact root
        ahead the edge, and a grid that reaches it raises ValueError.
        """
        if float(discriminant(self.cubic(s0))) <= 0:
            raise ValueError("start must have positive discriminant")

        def delta(s):
            vals, trusted = self._horner(s)
            for i in np.flatnonzero(~trusted):
                num, scale = _scaled_value(self.scaled[0], *float(s[i]).as_integer_ratio())
                vals[i] = num / (scale * self.scaled[1])
            return vals

        tau = np.asarray(t_grid, dtype=float)
        tau = tau - tau[0]
        sign = -1.0 if tau[-1] < 0 else 1.0
        ahead = [z.real for z in self._float_roots if sign * (z.real - s0) > abs(z.imag)]
        edge = min(ahead, key=lambda x: sign * x, default=sign * math.inf)
        checked = False
        s, clock = np.full_like(tau, s0), np.zeros_like(tau)
        vals = delta(s)
        for _ in range(_NEWTON_STEPS):
            new = s + (tau - clock) * (0.75 * np.maximum(vals, 0.0)) ** (1.0 / 6.0)
            vals = delta(new)
            past = (sign * (new - edge) >= 0) | ~(vals > 0)
            if past.any():
                if not checked:
                    checked = True
                    edge = min((r for r, _ in self.roots if sign * (r - s0) > 0),
                               key=lambda r: sign * r, default=sign * math.inf)
                    if math.isfinite(edge) and abs(self.time(s0, edge)) <= np.max(np.abs(tau)):
                        raise ValueError(f"time grid reaches the boundary root s = {edge!r} of the line")
                    past = (sign * (new - edge) >= 0) | ~(vals > 0)
                new = np.where(past, 0.5 * (s + edge), new)
                vals = delta(new)
            if np.max(np.abs(new - s)) <= _NEWTON_TOL * max(1.0, np.max(np.abs(new))):
                return new
            s, clock = new, self.times(new, s0)
        raise RuntimeError("time reparameterization failed")

    def trajectory(self, s_values) -> Trajectory:
        """Sample the closed-form flow along prescribed line parameters.

        s_values are offsets from q0, and t is measured from q0 (s = 0) by
        times; the interior must have positive discriminant.
        """
        return self._frames(s_values, self.times(s_values).tolist())

    def _frames(self, s_values, t_values) -> Trajectory:
        """The states at s_values with times t_values, and their frames on
        the continuous det > 0 branch; each s must have positive discriminant."""
        traj = Trajectory(p=self.p, q_start=self.q0)
        prev_g = None
        for s, t in zip(s_values, t_values):
            q = self.cubic(s)
            disc = float(discriminant(q))
            if disc <= 0:
                raise ValueError(f"discriminant not positive at s={s}")
            g = _nearest_frame(q, prev_g)
            traj.states.append(FlowState(q=q, p=self.p, s=float(s), t=t, detg=clock_detg(disc)))
            traj.frames.append(g)
            prev_g = g
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
    where scaled = (ints, den) holds den poly on ints (Line.scaled).

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


def is_halfflat_cubic(p: BinaryForm, tol: float) -> bool:
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

    The line parameters are Line.s_at(t_grid, s0), so s0 is at the first
    grid time; the start must have positive discriminant, and a grid that
    reaches the boundary of the line raises ValueError.
    """
    line = Line(q_start, p)
    return line._frames(line.s_at(t_grid, s0).tolist(), np.asarray(t_grid, dtype=float).tolist())


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

def _triple_root(q: BinaryForm):
    """(root f, lambda) with q = lambda f^3, for a nonzero cube q."""
    q1, q2, q3, q4 = (F(v) for v in q.coeffs)
    if abs(q1) >= abs(q4):
        alpha, beta = 3 * q1, q2
    else:
        alpha, beta = q3, 3 * q4
    # scaled exactly to a largest entry of 1, so no float underflows to 0
    top = max(abs(alpha), abs(beta))
    alpha, beta = float(alpha / top), float(beta / top)
    n = math.hypot(alpha, beta)
    alpha, beta = alpha / n, beta / n
    if alpha < 0 or (alpha == 0 and beta < 0):
        alpha, beta = -alpha, -beta
    try:
        lam = q(alpha, beta) / (alpha ** 2 + beta ** 2) ** 3
    except OverflowError:
        raise ValueError("the cube's coefficient lambda is beyond the float range") from None
    return BinaryForm(1, [alpha, beta]), lam


class InvalidEndpoint(ValueError):
    pass


def lowest_term(line: Line) -> tuple[Optional[int], int]:
    """(k, sign) of the lowest term c_k s^k of Delta(q0 + s p) on the line:
    the multiplicity k of s = 0 and the sign of c_k, decided exactly;
    (None, 0) when Delta vanishes on the whole line."""
    return next(((k, 1 if c > 0 else -1) for k, c in enumerate(reversed(line.scaled[0])) if c),
                (None, 0))


def endpoint_of_term(k: Optional[int], sign: int, q_end: BinaryForm) -> EndpointInfo:
    """The endpoint lemma as a table on the lowest term (k, sign) of
    Delta(q_end + s p) (see lowest_term).

    A cubic with a repeated root is real-equivalent to u1^2 u2, u1^3 or 0,
    and Delta(g.q) = det(g)^6 Delta(q), so (k, sign) is read off these
    normal forms (LEDGER.md, "Endpoint lemma as root multiplicity"): k = 3
    exactly when q_end = lambda f^3 with f dividing p but f^2 not, k = 4
    only at the zero cubic, and Delta > 0 next to s = 0 on some side
    unless k is even with c_k < 0 or Delta vanishes on the line.
    """
    if k == 0:
        raise InvalidEndpoint("endpoint must have vanishing discriminant")
    if k == 1 or (k == 2 and sign > 0):
        raise InvalidEndpoint("invalid endpoint: double root that is not triple")
    if k == 3:
        root, lam = _triple_root(q_end)
        return EndpointInfo(kind=EndpointKind.TripleRootDividingP, root=root,
                            lambda_coefficient=lam)
    if k == 4 and sign > 0:
        return EndpointInfo(kind=EndpointKind.ZeroCubic, root=None, lambda_coefficient=0.0)
    raise InvalidEndpoint("flow line never has positive discriminant at this point")


def endpoint_classify(p: BinaryForm, q_end: BinaryForm) -> EndpointInfo:
    """Classify a boundary cubic of the flow line in direction p.

    Valid endpoints are the zero cubic or lambda f^3 with f a linear
    divisor of p, and in both cases the line must enter the positive
    discriminant region next to the endpoint.  Anything else (in
    particular a double-but-not-triple root) raises InvalidEndpoint.
    Decided exactly, on the lowest term of the Line of q_end and p, by
    endpoint_of_term.

    The returned root is unit-normalized with its first nonzero
    component positive and the coefficient scaled so q_end = lambda * root^3.
    """
    return endpoint_of_term(*lowest_term(Line(q_end, p)), q_end)


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
    line = Line(Q0, p)
    for r, _ in line.roots:
        for s in (math.nextafter(r, -math.inf), math.nextafter(r, math.inf)):
            if _sign_at(line.scaled[0], *s.as_integer_ratio()) < 0:
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
