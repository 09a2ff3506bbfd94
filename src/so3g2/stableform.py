"""Standard invariant forms and Hitchin's stable-form machinery.

The fixed orientation convention of the whole package lives here: the
reference 6-form is -sigma^3/2 = -3 e^123456, and the dual-form operator
is normalized so that the dual of the standard 3-form gamma is the
standard gamma_hat.  The decomposition

    d sigma = (3/4)(l1 - l3) gamma + (3/4)(l2 - l4) gamma_hat + beta

pins these signs; the test suite asserts it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .binaryform import BinaryForm
from .exterior import BASIS, DIM, KForm, _contract_wedge, pullback, wedge, wedge_all

F = Fraction


def _sigma() -> KForm:
    return KForm(2, {(1, 2): F(1), (3, 4): F(1), (5, 6): F(1)})


def _eta(theta: float) -> KForm:
    c, s = math.cos(theta), math.sin(theta)
    f1 = KForm(1, {(1,): c, (2,): s})
    f2 = KForm(1, {(3,): c, (4,): s})
    f3 = KForm(1, {(5,): c, (6,): s})
    return wedge_all(f1, f2, f3)


@dataclass(frozen=True)
class InvariantFrameForms:
    """The forms cut out by the reduced frame: sigma, the three simple
    3-forms eta_i at angles 0, 2pi/3, -2pi/3, and the complex pair
    (gamma, gamma_hat)."""

    sigma: KForm
    eta: tuple
    gamma: KForm
    gamma_hat: KForm


# exact expansions of gamma = (4/3)(eta0 + eta1 + eta2) and its dual
GAMMA = KForm(3, {(1, 3, 5): F(1), (1, 4, 6): F(-1), (2, 3, 6): F(-1), (2, 4, 5): F(-1)})
GAMMA_HAT = KForm(3, {(1, 3, 6): F(1), (1, 4, 5): F(1), (2, 3, 5): F(1), (2, 4, 6): F(-1)})
SIGMA = _sigma()
VOL6 = KForm(6, {(1, 2, 3, 4, 5, 6): F(1)})

# reference volume: -sigma^3/2 = -3 e^123456
REFERENCE_VOLUME = F(-3, 1) * VOL6


def standard_forms() -> InvariantFrameForms:
    """The canonical quadruplet; eta1, eta2 carry float sqrt(3) entries."""
    eta = (_eta(0.0), _eta(2.0 * math.pi / 3.0), _eta(-2.0 * math.pi / 3.0))
    return InvariantFrameForms(sigma=SIGMA, eta=eta, gamma=GAMMA, gamma_hat=GAMMA_HAT)


# ---------------------------------------------------------------------------
# Hitchin's operator for 3-forms in six dimensions
# ---------------------------------------------------------------------------

def _k_tensor() -> np.ndarray:
    """T[i, j, p, q] = (-1)^i times the coefficient of e^{1..^i..6} in
    (e_j -| e^P) ^ e^Q, for 0-based i, j and e^P, e^Q in BASIS[3].

    K(rho) = T rho rho is then Hitchin's K for the volume e^123456.
    """
    j, p, q, row, sign = _contract_wedge(3, 3)
    i = DIM - 1 - row  # BASIS[5][row] leaves out index i + 1
    t = np.zeros((DIM, DIM, len(BASIS[3]), len(BASIS[3])))
    t[i, j, p, q] = (-1) ** i * sign
    return t


_K_TENSOR = _k_tensor()


def _k_matrix(rho: KForm, vol_coeff: float) -> np.ndarray:
    """Matrix of K(v) = A((v -| rho) ^ rho) w.r.t. the volume vol_coeff*e^123456.

    A identifies a 5-form with a vector: X -| vol = xi.
    """
    v = rho.to_vector(float)
    return _K_TENSOR @ v @ v / vol_coeff


def hitchin_invariant(rho: KForm, vol_orientation: KForm | None = None) -> float:
    """The quadratic invariant lambda(rho) = tr(K^2)/6 of a 3-form.

    Negative values mean rho is stable of complex type.  Scales like the
    inverse square of the reference volume coefficient.
    """
    vol = REFERENCE_VOLUME if vol_orientation is None else vol_orientation
    vc = float(vol.coeffs.get(tuple(range(1, DIM + 1)), 0))
    if vc == 0:
        raise ValueError("vol_orientation must be a nonzero 6-form")
    k = _k_matrix(rho.to_float(), vc)
    return float(np.trace(k @ k)) / 6.0


_STABLE_TOL = 1e-14


def hitchin_dual(rho: KForm) -> KForm:
    """The 3-form rho_hat making rho + i rho_hat decomposable.

    Requires rho stable of negative (complex) type; the double dual is
    -rho and the operation is degree-one homogeneous in rho.
    """
    rho_f = rho.to_float()
    k = _k_matrix(rho_f, float(REFERENCE_VOLUME.coeffs[tuple(range(1, DIM + 1))]))
    lam = float(np.trace(k @ k)) / 6.0
    scale = max(1.0, rho_f.max_abs()) ** 4
    if lam >= -_STABLE_TOL * scale:
        raise ValueError("not stable of complex type")
    j = k / math.sqrt(-lam)
    return pullback(j, rho_f)


def volume_of_stable(rho: KForm) -> float:
    """Stable-form volume, normalized so the standard gamma has volume 2."""
    lam = hitchin_invariant(rho)
    if lam >= 0:
        raise ValueError("not stable of complex type")
    lam0 = hitchin_invariant(GAMMA)
    return 2.0 * math.sqrt(lam / lam0)


def volume_gamma(a1, lam: BinaryForm):
    """Volume of gamma_0 + a1 * (d sigma of the algebra with torsion lam).

    Closed-form quartic in a1; requires the half-flat condition l2 = l4.
    Returns the positive square root; raises on a negative radicand.
    """
    if lam.degree != 3:
        raise ValueError("lam must be a cubic")
    l1, l2, l3, l4 = lam.coeffs
    if abs(float(l2) - float(l4)) > 1e-12 * max(1.0, lam.norm()):
        raise ValueError("volume_gamma requires the half-flat condition l2 = l4")
    v2 = (
        4
        + 12 * a1 * (l1 - l3)
        - 12 * a1 ** 2 * (3 * l1 * l3 + 2 * l2 ** 2 - l3 ** 2)
        - 4 * a1 ** 3 * (27 * l1 * l2 ** 2 - 9 * l1 * l3 ** 2 - 3 * l2 ** 2 * l3 + l3 ** 3)
        - 3 * a1 ** 4 * (27 * l1 ** 2 * l2 ** 2 - 18 * l1 * l2 ** 2 * l3
                         + 4 * l1 * l3 ** 3 + 4 * l2 ** 4 - l2 ** 2 * l3 ** 2)
    )
    if float(v2) < 0:
        raise ValueError("degenerate 3-form")
    return math.sqrt(float(v2))


# basis of the invariant 3-forms used by the flow bookkeeping: a cubic
# (q1, q2, q3, q4) corresponds to 3 q1 B1 + q2 B2 + q3 B3 + 3 q4 B4
B3_BASIS = (
    KForm(3, {(1, 3, 5): F(1)}),
    KForm(3, {(2, 3, 5): F(1), (1, 4, 5): F(1), (1, 3, 6): F(1)}),
    KForm(3, {(1, 4, 6): F(1), (2, 3, 6): F(1), (2, 4, 5): F(1)}),
    KForm(3, {(2, 4, 6): F(1)}),
)


def cubic_to_3form(q: BinaryForm) -> KForm:
    """The invariant 3-form with coefficients (3q1, q2, q3, 3q4) in the B basis."""
    q1, q2, q3, q4 = q.coeffs
    return (3 * q1) * B3_BASIS[0] + q2 * B3_BASIS[1] + q3 * B3_BASIS[2] + (3 * q4) * B3_BASIS[3]


def threeform_to_cubic(a: KForm) -> BinaryForm:
    """Inverse of cubic_to_3form; raises if a is not of that invariant shape."""
    if a.degree != 3:
        raise ValueError("expected a 3-form")
    groups = [
        [(1, 3, 5)],
        [(2, 3, 5), (1, 4, 5), (1, 3, 6)],
        [(1, 4, 6), (2, 3, 6), (2, 4, 5)],
        [(2, 4, 6)],
    ]
    tol = 1e-9 * max(1.0, a.max_abs())
    seen = set()
    vals = []
    for grp in groups:
        ref = a.coeffs.get(grp[0], 0)
        for idx in grp:
            seen.add(idx)
            if abs(float(a.coeffs.get(idx, 0)) - float(ref)) > tol:
                raise ValueError("3-form is not in the invariant cone shape")
        vals.append(ref)
    for idx, c in a.coeffs.items():
        if idx not in seen and abs(float(c)) > tol:
            raise ValueError("3-form has components outside the invariant basis")
    return BinaryForm(3, [F(1, 3) * vals[0], vals[1], vals[2], F(1, 3) * vals[3]])
