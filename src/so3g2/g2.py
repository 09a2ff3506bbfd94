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

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import block_diag

from .binaryform import GL2
from .curvature import koszul_connection, koszul_riemann
from .exterior import BASIS, CEOperator
from .flow import SIGMA2, Trajectory
from .stableform import B3_MATRIX, SIGMA, hitchin_dual_rows
from .variety import LieAlgebraClass, ModelPoint, bracket_constants, classify


@dataclass(frozen=True)
class G2Samples:
    """The time slices of phi = detg sigma_0 ^ dt + gamma and
    star_phi = detg^2 sigma_0^2 / 2 + gamma_hat ^ dt along a trajectory:
    t and detg of shape (n,), gamma and gamma_hat of shape (n, 20) in
    BASIS[3] order, and the GL2 frame of each slice."""

    t: np.ndarray
    detg: np.ndarray
    gamma: np.ndarray
    gamma_hat: np.ndarray
    frames: list

    def __len__(self) -> int:
        return len(self.t)

    def to_json(self) -> list[dict]:
        """One dict per slice: t, the nonzero terms of phi and star_phi
        (index 7 is dt) and the 7x7 metric in the frame (e^1..e^6, dt)."""
        return [{"t": t,
                 "phi_terms": _json_terms(3, gamma, detg * _SIGMA),
                 "starphi_terms": _json_terms(4, detg * detg * _HALF_SIGMA2, ghat),
                 "metric7": block_diag(frame_metric6(g), 1.0).tolist()}
                for t, detg, gamma, ghat, g in zip(self.t.tolist(), self.detg.tolist(),
                                                   self.gamma, self.gamma_hat, self.frames)]


def _json_terms(k: int, space: np.ndarray, dt_part: np.ndarray) -> list[dict]:
    """The nonzero terms of space + dt_part ^ dt, sorted by index, where
    space and dt_part are rows in BASIS[k] and BASIS[k - 1] order."""
    idxs = BASIS[k] + tuple(idx + (7,) for idx in BASIS[k - 1])
    vals = np.concatenate([space, dt_part]).tolist()
    return [{"idx": list(idx), "value": v} for idx, v in sorted(zip(idxs, vals)) if v != 0]


def frame_metric6(g: GL2) -> np.ndarray:
    """Metric on the group in the reference frame: the 2x2 block g^T g
    repeated over the three coordinate planes."""
    gt = g.to_array()
    block = gt.T @ gt
    out = np.zeros((6, 6))
    for k in range(3):
        out[2 * k: 2 * k + 2, 2 * k: 2 * k + 2] = block
    return out


_SIGMA = SIGMA.to_float().to_vector(float)
_HALF_SIGMA2 = (0.5 * SIGMA2.to_float()).to_vector(float)


def assemble_g2(traj: Trajectory) -> G2Samples:
    """Build the 7-dimensional samples along a trajectory.

    sigma(t) = det g * sigma_0; gamma(t) is the invariant 3-form of the
    moving cubic; gamma_hat is its stable-form dual, for the whole
    trajectory in one kernel call.  When stability is lost part way (the
    line reached its discriminant boundary) the samples are truncated
    there with a warning.
    """
    cubics = np.array([[float(c) for c in st.q.coeffs] for st in traj.states]).reshape(-1, 4)
    gammas = cubics * [3.0, 1.0, 1.0, 3.0] @ B3_MATRIX.T
    ghats, stable = hitchin_dual_rows(gammas)
    n = len(stable) if stable.all() else int(np.argmin(stable))
    if n < len(stable):
        warnings.warn(f"trajectory truncated at t = {traj.states[n].t}: "
                      "3-form no longer stable of complex type")
    states = traj.states[:n]
    return G2Samples(t=np.array([st.t for st in states], dtype=float),
                     detg=np.array([st.detg for st in states], dtype=float),
                     gamma=gammas[:n], gamma_hat=ghats[:n], frames=traj.frames[:n])


def central_difference(f: Callable, h: float):
    """Fourth-order central difference (f(-2) - 8 f(-1) + 8 f(1) - f(2)) / (12 h),
    where f(k) is the value k steps of size h away from the centre.  The
    values may be floats or arrays."""
    return (f(-2) - 8.0 * f(-1) + 8.0 * f(1) - f(2)) / (12.0 * h)


def check_closedness(samples: G2Samples, d: CEOperator, star_dt_sign: float = 1.0):
    """(max |d phi|, max |d star_phi|) over interior samples.

    Exterior derivative in the six group directions comes from the
    algebra; the time direction uses fourth-order central differences,
    so at least five equally spaced samples are needed.  Each form family
    is an array of coefficient rows, so every d_k is one matrix product.
    """
    n = len(samples)
    if n < 5:
        raise ValueError("need at least 5 samples for 4th-order differences")
    steps = np.diff(samples.t)
    h = steps[0]
    if np.any(np.abs(steps - h) > 1e-9 * max(1.0, abs(h))):
        raise ValueError("samples must be equally spaced in t")
    d = d.to_float()
    gammas, ghats = samples.gamma, samples.gamma_hat
    sigmas = samples.detg[:, None] * _SIGMA
    half_sigma2s = (samples.detg * samples.detg)[:, None] * _HALF_SIGMA2
    inner = slice(2, n - 2)

    def ddt(rows):
        return central_difference(lambda k: rows[2 + k: n - 2 + k], h)

    def d_rows(rows, k):
        return rows[inner] @ d.d_matrix(k).T

    # d phi = d6 gamma + (d6 sigma - gamma') ^ dt
    dphi = max(np.abs(d_rows(gammas, 3)).max(),
               np.abs(d_rows(sigmas, 2) - ddt(gammas)).max())
    # d star = d6(sigma^2/2) + (sign * d6 gamma_hat + (sigma^2/2)') ^ dt
    dstar = max(np.abs(d_rows(half_sigma2s, 4)).max(),
                np.abs(star_dt_sign * d_rows(ghats, 3) + ddt(half_sigma2s)).max())
    return float(dphi), float(dstar)


# ---------------------------------------------------------------------------
# the complete metric family and the smoothness criterion
# ---------------------------------------------------------------------------

THIRD = Fraction(1, 3)
HALF = Fraction(1, 2)


class Power(NamedTuple):
    """The coefficient coef * z^m * (3 (z^2 + lam))^e of a metric family."""

    coef: object
    m: int
    e: object  # an int or a Fraction, so that symbolic z stays exact


@dataclass(frozen=True)
class MetricFamily:
    """Cohomogeneity-one metric data on z > 0 with a collapsing su(2) fibre:

        g = rad(z) dz^2 + base(z) (base orbit block) + fib(z) (fibre block),

    each coefficient a ``Power`` in z and z^2 + lam, lam > 0.  The fibre
    block collapses at z = 0; the action normalization turns fib into the
    angular coefficient a(z) = 4 fib(z) / z^2 on the flat model of the slice.
    """

    lam: object
    base: Power
    fib: Power
    rad: Power

    @property
    def angular(self) -> Power:
        return Power(4 * self.fib.coef, self.fib.m - 2, self.fib.e)

    def value(self, p: Power, z):
        base = 3 * (z * z + self.lam)
        # a float base takes float(e): the arithmetic of Fraction.__rpow__, without its cost
        return p.coef * z ** p.m * base ** (float(p.e) if isinstance(base, float) else p.e)


#: base, fibre and radial powers of the symmetric-trajectory family
_CASE3 = (Power(1, 0, 2 * THIRD), Power(1, 2, -THIRD), Power(4, 0, -THIRD))


def case3_family(lam) -> MetricFamily:
    """The symmetric-trajectory family in the even coordinate z = sqrt(s)."""
    return MetricFamily(lam, *_CASE3)


def bs_metric(lam: float, z: float) -> np.ndarray:
    """The complete metric family on the rank-four bundle at parameter z.

    7x7 diagonal in the order (three einbeins of the base orbit, four
    flat fibre coordinates): the base and angular coefficients of
    ``case3_family(lam)``, (3 (z^2+lam))^(2/3) and 4 (3 (z^2+lam))^(-1/3).
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    fam = case3_family(lam)
    return np.diag([fam.value(fam.base, z)] * 3 + [fam.value(fam.angular, z)] * 4)


def case2_family(lam) -> MetricFamily:
    """The collapsing family of the double-root trajectory, as displayed
    in the source analysis: base (3 lam)^(2/3), fibre t^2 (3 lam)^(1/3)/4,
    clock coefficient 1."""
    return MetricFamily(lam, base=Power((3 * lam) ** (2 * THIRD), 0, 0),
                        fib=Power((3 * lam) ** THIRD / 4, 2, 0), rad=Power(1, 0, 0))


def smoothness_check(family: MetricFamily) -> bool:
    """Whether the family extends smoothly over the collapsed orbit.

    Criteria: base, angular and radial coefficients extend to even
    functions of z with finite positive limits, and the angular and
    radial coefficients agree at z = 0 (otherwise the radial-direction
    obstruction term survives).  With lam > 0 a power extends that way
    exactly when m = 0 and its value at z = 0 is positive.
    """
    powers = (family.base, family.angular, family.rad)
    if not family.lam > 0 or any(p.m != 0 or not family.value(p, 0) > 0 for p in powers):
        return False
    r0 = family.value(family.rad, 0)
    return abs(family.value(family.angular, 0) - r0) <= 1e-8 * max(1.0, abs(r0))


def smoothness_obstruction(family: MetricFamily):
    """The radial-minus-angular mismatch at the collapsed orbit (ValueError at a pole)."""
    for name, p in (("radial", family.rad), ("angular", family.angular)):
        if p.m < 0:
            raise ValueError(f"the {name} coefficient has a pole at z = 0")
    return family.value(family.rad, 0) - family.value(family.angular, 0)


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
# curvature of a cohomogeneity-one metric
# ---------------------------------------------------------------------------

def ricci7(family: MetricFamily, d: CEOperator, z) -> np.ndarray:
    """Ricci (7x7) of rad dz^2 + base (odd block) + fib (even block) over
    the algebra d, in the orthonormal frame E_0 = rad^(-1/2) d/dz,
    E_i = f_i^(-1/2) e_i, on floats or on sympy symbols z and lam.

    The frame brackets and their z-derivative are closed forms in
    (log f)' = m/z + 2ez/(z^2+lam) and (log f)'' = -m/z^2 + 2e(lam-z^2)/(z^2+lam)^2;
    E_0 of the connection is the Koszul kernel's frame derivative.
    """
    lam, r = family.lam, z * z + family.lam
    powers = (family.rad,) + (family.base, family.fib) * 3
    s = np.array([family.value(p, z) ** HALF for p in powers])
    # q = (log s)' and dq = (log s)''
    q = np.array([p.m / z + 2 * p.e * z / r for p in powers]) / 2
    dq = np.array([-p.m / (z * z) + 2 * p.e * (lam - z * z) / (r * r) for p in powers]) / 2
    # zeros of the type of the scales: float64, or sympy's exact zero
    c = np.full((7, 7, 7), 0 * s[0])
    dc = c.copy()
    i = np.arange(1, 7)
    # [E_0, E_i] = -(q_i / s_0) E_i
    c[i, i, 0] = q[1:] / s[0]
    c[i, 0, i] = -c[i, i, 0]
    dc[i, i, 0] = (dq[1:] - q[1:] * q[0]) / s[0]
    dc[i, 0, i] = -dc[i, i, 0]
    # group part: [e_i, e_j] = sum c^k_ij e_k, rescaled by s_k / (s_i s_j)
    brackets = np.array(bracket_constants(d))
    c[1:, 1:, 1:] = brackets * s[1:, None, None] / np.multiply.outer(s[1:], s[1:])
    dc[1:, 1:, 1:] = c[1:, 1:, 1:] * (q[1:, None, None] - q[None, 1:, None] - q[None, None, 1:])
    dgam = np.zeros((7,) * 4, c.dtype)
    dgam[0] = koszul_connection(dc) / s[0]
    return np.einsum("ijki->jk", koszul_riemann(c, koszul_connection(c), dgam))
