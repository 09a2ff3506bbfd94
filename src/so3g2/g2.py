"""Assembly of the seven-dimensional structure from a flow trajectory.

A trajectory of half-flat structures produces the 3-form
phi = sigma(t) ^ dt + gamma(t) and its dual
star_phi = sigma(t)^2 / 2 + gamma_hat(t) ^ dt on the product of the
group with the time interval.  The sign of the dt-term in star_phi is
the unique choice (among the sign variants) for which the evolution
equations imply d phi = 0 = d star_phi; the finite-difference closedness
test pins it.

Also here: the explicit complete metric family on the rank-four vector
bundle (the endpoint of the symmetric trajectory), the collapsing-orbit
smoothness criterion, and the order-three frame symmetry relating the
three cohomogeneity-one presentations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .binaryform import GL2
from .curvature import koszul_connection, koszul_riemann
from .exterior import CEOperator, KForm, apply_d, wedge
from .flow import Trajectory
from .stableform import SIGMA, cubic_to_3form, hitchin_dual
from .variety import LieAlgebraClass, ModelPoint, bracket_constants, classify


@dataclass
class G2Sample:
    """One time slice: phi and star_phi split into (form on the group,
    dt-factor form), plus the 7x7 metric in the frame (e^1..e^6, dt)."""

    t: float
    phi_space: KForm       # degree 3, the gamma(t) part
    phi_dt: KForm          # degree 2, wedged with dt
    star_space: KForm      # degree 4, sigma(t)^2/2
    star_dt: KForm         # degree 3, wedged with dt
    metric7: np.ndarray

    def phi_terms(self) -> dict:
        return _seven_terms(self.phi_space, self.phi_dt)

    def starphi_terms(self) -> dict:
        return _seven_terms(self.star_space, self.star_dt)

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "phi_terms": [{"idx": list(k), "value": v} for k, v in sorted(self.phi_terms().items())],
            "starphi_terms": [{"idx": list(k), "value": v} for k, v in sorted(self.starphi_terms().items())],
            "metric7": [[float(x) for x in row] for row in self.metric7],
        }


def _seven_terms(space: KForm, dt_part: KForm) -> dict:
    out = {}
    for idx, c in space.coeffs.items():
        out[idx] = float(c)
    for idx, c in dt_part.coeffs.items():
        out[idx + (7,)] = float(c)
    return out


def frame_metric6(g: GL2) -> np.ndarray:
    """Metric on the group in the reference frame: the 2x2 block g^T g
    repeated over the three coordinate planes."""
    gt = g.to_array()
    block = gt.T @ gt
    out = np.zeros((6, 6))
    for k in range(3):
        out[2 * k: 2 * k + 2, 2 * k: 2 * k + 2] = block
    return out


def assemble_g2(traj: Trajectory) -> list[G2Sample]:
    """Build the 7-dimensional samples along a trajectory.

    sigma(t) = det g * sigma_0; gamma(t) is the invariant 3-form of the
    moving cubic; gamma_hat is its stable-form dual.  When stability is
    lost part way (the line reached its discriminant boundary) the
    samples are truncated there with a warning.
    """
    samples = []
    for st, g in zip(traj.states, traj.frames):
        gamma = cubic_to_3form(st.q).to_float()
        try:
            gamma_hat = hitchin_dual(gamma)
        except ValueError:
            warnings.warn(f"trajectory truncated at t = {st.t}: "
                          "3-form no longer stable of complex type")
            break
        sigma_t = st.detg * SIGMA.to_float()
        half_sigma2 = 0.5 * wedge(sigma_t, sigma_t)
        samples.append(G2Sample(
            t=st.t,
            phi_space=gamma,
            phi_dt=sigma_t,
            star_space=half_sigma2,
            star_dt=gamma_hat,
            metric7=np.block([
                [frame_metric6(g), np.zeros((6, 1))],
                [np.zeros((1, 6)), np.ones((1, 1))],
            ]),
        ))
    return samples


def central_difference(f: Callable, h: float):
    """Fourth-order central difference (f(-2) - 8 f(-1) + 8 f(1) - f(2)) / (12 h),
    where f(k) is the value k steps of size h away from the centre.  The
    values may be floats, arrays or KForms."""
    return (f(-2) - 8.0 * f(-1) + 8.0 * f(1) - f(2)) / (12.0 * h)


def check_closedness(samples: Sequence[G2Sample], d: CEOperator,
                     star_dt_sign: float = 1.0):
    """(max |d phi|, max |d star_phi|) over interior samples.

    Exterior derivative in the six group directions comes from the
    algebra; the time direction uses fourth-order central differences,
    so at least five equally spaced samples are needed.
    """
    if len(samples) < 5:
        raise ValueError("need at least 5 samples for 4th-order differences")
    ts = [s.t for s in samples]
    h = ts[1] - ts[0]
    for i in range(len(ts) - 1):
        if abs((ts[i + 1] - ts[i]) - h) > 1e-9 * max(1.0, abs(h)):
            raise ValueError("samples must be equally spaced in t")
    d = d.to_float()

    def ddt(forms, i):
        return central_difference(lambda k: forms[i + k], h)

    max_dphi = 0.0
    max_dstar = 0.0
    gammas = [s.phi_space for s in samples]
    sigmas = [s.phi_dt for s in samples]
    half_sigma2s = [s.star_space for s in samples]
    ghats = [s.star_dt for s in samples]
    for i in range(2, len(samples) - 2):
        # d phi = d6 gamma + (d6 sigma - gamma') ^ dt
        space_part = apply_d(d, gammas[i])
        dt_part = apply_d(d, sigmas[i]) - ddt(gammas, i)
        max_dphi = max(max_dphi, space_part.max_abs(), dt_part.max_abs())
        # d star = d6(sigma^2/2) + (sign * d6 gamma_hat + (sigma^2/2)') ^ dt
        space_part = apply_d(d, half_sigma2s[i])
        dt_part = star_dt_sign * apply_d(d, ghats[i]) + ddt(half_sigma2s, i)
        max_dstar = max(max_dstar, space_part.max_abs(), dt_part.max_abs())
    return max_dphi, max_dstar


# ---------------------------------------------------------------------------
# the complete metric family and the smoothness criterion
# ---------------------------------------------------------------------------

def bs_metric(lam: float, z: float) -> np.ndarray:
    """The complete metric family on the rank-four bundle at parameter z.

    7x7 diagonal in the order (three einbeins of the base orbit, four
    flat fibre coordinates):
    3^(-1/3) * (3 (z^2+lam)^(2/3) base + 4 (z^2+lam)^(-1/3) fibre).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    r = z * z + lam
    base = 3.0 ** (-1.0 / 3.0) * 3.0 * r ** (2.0 / 3.0)
    fib = 3.0 ** (-1.0 / 3.0) * 4.0 * r ** (-1.0 / 3.0)
    return np.diag([base] * 3 + [fib] * 4)


@dataclass(frozen=True)
class MetricFamily:
    """Cohomogeneity-one metric data on z > 0 with a collapsing su(2) fibre:

        g = rad(z) dz^2 + base(z) (base orbit block) + fib(z) (fibre block).

    The fibre block collapses at z = 0; the action normalization turns
    fib into the angular coefficient a(z) = 4 fib(z) / z^2 on the flat
    model of the slice.
    """

    base: Callable[[float], float]
    fib: Callable[[float], float]
    rad: Callable[[float], float]

    def angular(self, z: float) -> float:
        return 4.0 * self.fib(z) / (z * z)


def case3_family(lam: float) -> MetricFamily:
    """The symmetric-trajectory family in the even coordinate z = sqrt(s)."""
    return MetricFamily(
        base=lambda z: (3.0 * (z * z + lam)) ** (2.0 / 3.0),
        fib=lambda z: z * z * (3.0 * (z * z + lam)) ** (-1.0 / 3.0),
        rad=lambda z: 4.0 * (3.0 * (z * z + lam)) ** (-1.0 / 3.0),
    )


def case2_family(lam: float) -> MetricFamily:
    """The collapsing family of the double-root trajectory, as displayed
    in the source analysis: base (3 lam)^(2/3), fibre t^2 (3 lam)^(1/3)/4,
    clock coefficient 1."""
    return MetricFamily(
        base=lambda z: (3.0 * lam) ** (2.0 / 3.0),
        fib=lambda z: 0.25 * z * z * (3.0 * lam) ** (1.0 / 3.0),
        rad=lambda z: 1.0,
    )


def smoothness_check(family: MetricFamily) -> bool:
    """Whether the family extends smoothly over the collapsed orbit.

    Criteria: base, angular and radial coefficients extend to even
    functions of z with finite positive limits, and the angular and
    radial coefficients agree at z = 0 (otherwise the radial-direction
    obstruction term survives).
    """
    for f in (family.base, family.angular, family.rad):
        for z in (0.25, 0.125, 0.0625):
            plus, minus = f(z), f(-z)
            if not (math.isfinite(plus) and math.isfinite(minus)):
                return False
            if abs(plus - minus) > 1e-9 * max(1.0, abs(plus)):
                return False  # odd component: not even in z
            if plus <= 0:
                return False
    a0 = _limit_at_zero(family.angular)
    r0 = _limit_at_zero(family.rad)
    b0 = _limit_at_zero(family.base)
    if not all(math.isfinite(v) and v > 0 for v in (a0, r0, b0)):
        return False
    return abs(a0 - r0) <= 1e-8 * max(1.0, abs(r0))


def _limit_at_zero(f: Callable[[float], float]) -> float:
    # Richardson extrapolation of f(h), f(h/2) at h = 1e-3, assuming an even function
    v1, v2 = f(1e-3), f(5e-4)
    return (4.0 * v2 - v1) / 3.0


def smoothness_obstruction(family: MetricFamily) -> float:
    """The radial-minus-angular mismatch at the collapsed orbit."""
    return _limit_at_zero(family.rad) - _limit_at_zero(family.angular)


# ---------------------------------------------------------------------------
# triality
# ---------------------------------------------------------------------------

TRIALITY_ELL = GL2(-0.5, 0.5, -1.5, -0.5)


def triality_matrix(k: int) -> GL2:
    m = GL2.identity()
    for _ in range(k % 3):
        m = m @ TRIALITY_ELL
    return m


def triality_action(k: int, m: ModelPoint) -> ModelPoint:
    """Apply the order-three frame symmetry to a formal product.

    Only defined on the compact semisimple class; the torsion cubic is
    fixed while the linear factor (and the boundary cubics of the flow)
    cycle through the three roots."""
    if classify(m) != LieAlgebraClass.SO3xSO3:
        raise ValueError("triality action requires the compact semisimple class")
    ell = triality_matrix(k)
    x2 = m.x.substitute(ell.x, ell.y, ell.z, ell.w)
    y2 = m.y.substitute(ell.x, ell.y, ell.z, ell.w)
    return ModelPoint(x2, y2)


# ---------------------------------------------------------------------------
# numerical curvature of a cohomogeneity-one metric (spot check)
# ---------------------------------------------------------------------------

def ricci7(family: MetricFamily, d: CEOperator, z: float) -> np.ndarray:
    """Numerical Ricci (7x7, orthonormal frame) of
    rad dz^2 + base (odd block) + fib (even block) over the algebra d.

    Runs the Koszul curvature kernel on the frame brackets; the
    z-derivative of the connection coefficients, taken by fourth-order
    central differences, enters as the frame derivative along E_0.
    """
    c = _structure7(family, d, z)
    dz = 1e-3
    dgam = np.zeros((7,) * 4)
    dgam[0] = central_difference(
        lambda k: koszul_connection(_structure7(family, d, z + k * dz)), dz
    ) * (1.0 / math.sqrt(family.rad(z)))
    return np.einsum("ijki->jk", koszul_riemann(c, koszul_connection(c), dgam))


def _scales(family: MetricFamily, z: float) -> np.ndarray:
    return np.sqrt([family.rad(z)] + [family.base(z), family.fib(z)] * 3)


def _structure7(family: MetricFamily, d: CEOperator, z: float) -> np.ndarray:
    """c[e, a, b] with [E_a, E_b] = sum_e c[e,a,b] E_e for the orthonormal
    frame E_0 = rad^(-1/2) d/dz, E_i = f_i^(-1/2) e_i."""
    dz = 1e-4
    f = _scales(family, z)
    fp = central_difference(lambda k: _scales(family, z + k * dz), dz)
    c = np.zeros((7, 7, 7))
    # [E_0, E_i] = -(f_i'/ (f_i sqrt(rad))) E_i
    i = np.arange(1, 7)
    coef = fp[1:] / (f[1:] * f[0])
    c[i, 0, i] = -coef
    c[i, i, 0] = coef
    # group part: [e_i, e_j] = sum c^k_ij e_k, rescaled
    c[1:, 1:, 1:] = (np.array(bracket_constants(d), dtype=float)
                     * f[1:, None, None] / np.multiply.outer(f[1:], f[1:]))
    return c
