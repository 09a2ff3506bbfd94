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
# wedge is unused here, but bench/test_bench.py reads stableform.wedge
from .exterior import BASIS, DIM, KForm, _contract_wedge, _sort_with_sign, wedge, wedge_all

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
# K = rho rho . _K_PAIRS for a row rho, with rho rho the flat outer product
_K_PAIRS = np.ascontiguousarray(_K_TENSOR.reshape(DIM * DIM, -1).T)
_VOL = float(REFERENCE_VOLUME.coeffs[tuple(range(1, DIM + 1))])


def _dual_tensor() -> np.ndarray:
    """D[ij, I, b] with sqrt(-lambda) rho_hat_I = K_ij D[ij, I, b] rho_b.

    Hitchin's dual is the gradient of lambda read through the wedge
    pairing (Hitchin, Stable forms and special metrics, 2001):
    rho_hat_I = (3/2) eps_I (d lambda / d rho)_{I^c} / sqrt(-lambda), where
    e^I ^ e^{I^c} = eps_I e^123456.  With S = T / vol symmetrised in its two
    form indices, K = S rho rho / 2, so d lambda / d rho_a is
    (1/3) K_ij S[j, i, a, b] rho_b.
    """
    comp, eps = [], []
    for idx in BASIS[3]:
        rest = tuple(n for n in range(1, DIM + 1) if n not in idx)
        comp.append(BASIS[3].index(rest))
        eps.append(_sort_with_sign(idx + rest)[1])
    s = (_K_TENSOR + _K_TENSOR.transpose(0, 1, 3, 2)) / _VOL
    d = s.transpose(1, 0, 2, 3)[:, :, comp, :] * (0.5 * np.array(eps))[:, None]
    return d.reshape(DIM * DIM, -1)


_DUAL = _dual_tensor()


def _k_rows(rho: np.ndarray) -> np.ndarray:
    """K = T rho rho for the reference volume, for each row of rho, shape
    (..., 20), flattened to shape (..., 36)."""
    pairs = (rho[..., :, None] * rho[..., None, :]).reshape(rho.shape[:-1] + (-1,))
    return pairs @ _K_PAIRS / _VOL


_STABLE_TOL = 1e-14


# position of K_ji in the flattened K, for each flat position of K_ij
_K_TRANSPOSED = np.arange(DIM * DIM).reshape(DIM, DIM).T.ravel()


def _invariant_rows(rho: np.ndarray):
    """K (flat, shape (..., 36)), lambda = tr K^2 / 6 and the stability
    mask of each row of the float array rho, shape (..., 20): the part of
    hitchin_dual_rows that builds no dual."""
    k = _k_rows(rho)
    lam = (k * k[..., _K_TRANSPOSED]).sum(axis=-1) / 6.0
    stable = lam < -_STABLE_TOL * np.maximum(1.0, np.abs(rho).max(axis=-1)) ** 4
    return k, lam, stable


def hitchin_invariant(rho: KForm) -> float:
    """The quadratic invariant lambda(rho) = tr(K^2)/6 of a 3-form, for the
    reference volume; negative values mean rho is stable of complex type."""
    return float(_invariant_rows(rho.to_vector(float))[1])


def hitchin_dual_rows(rho) -> tuple[np.ndarray, np.ndarray]:
    """Hitchin's dual of each row of rho, float 3-form coefficients of
    shape (..., 20) in BASIS[3] order, and the mask of the rows that are
    stable of complex type; the dual of any other row is NaN.

    Per row: K = T rho rho for the reference volume, lambda = tr K^2 / 6,
    stable when lambda < -_STABLE_TOL max(1, max|rho|)^4, and the dual
    (K . _DUAL . rho) / sqrt(-lambda), the gradient of lambda turned into
    a 3-form by the wedge pairing.
    """
    rho = np.asarray(rho, dtype=float)
    k, lam, stable = _invariant_rows(rho)
    grad = ((k @ _DUAL).reshape(rho.shape + (-1,)) @ rho[..., None])[..., 0]
    return grad / np.sqrt(np.where(stable, -lam, np.nan))[..., None], stable


def hitchin_dual(rho: KForm) -> KForm:
    """The 3-form rho_hat making rho + i rho_hat decomposable.

    Requires rho stable of negative (complex) type; the double dual is
    -rho and the operation is degree-one homogeneous in rho.
    """
    dual, stable = hitchin_dual_rows(rho.to_vector(float))
    if not stable:
        raise ValueError("not stable of complex type")
    return KForm.from_vector(3, dual)


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
#: the B basis as the columns of a float 20x4 matrix: B3_MATRIX @ (3 q1, q2, q3, 3 q4)
#: is the coefficient vector of cubic_to_3form(q) in BASIS[3] order
B3_MATRIX = np.stack([b.to_vector(float) for b in B3_BASIS], axis=1)


def _invariant_tensors() -> tuple[np.ndarray, np.ndarray]:
    """Lambda, shape (16, 16), and G, shape (16, 4, 20), with

        lambda(B y) = (y y) Lambda (y y),   sqrt(-lambda) hat(B y) = (y y) G y

    for B = B3_MATRIX, hat Hitchin's dual and y y the flat outer product:
    the kernel of hitchin_dual_rows restricted to the invariant 3-forms.
    lambda and its gradient are SO(3)-equivariant, so on invariant forms
    they stay invariant (symmetric criticality, Palais 1979).  Built from
    T, _DUAL and B alone: T and B hold 0 and +-1, and 6 _DUAL holds
    integers, so the sums run on integers and each entry is rounded once.
    """
    bb = np.einsum("ia,jb->ijab", B3_MATRIX, B3_MATRIX).reshape(400, 16)
    k = bb.T @ _K_PAIRS  # vol K(B y) = (y y) k
    lam = k @ k[:, _K_TRANSPOSED].T / (6.0 * _VOL ** 2)
    grad = (k @ np.rint(6.0 * _DUAL)).reshape(16, 20, 20) @ B3_MATRIX
    return lam, grad.transpose(0, 2, 1) / (6.0 * _VOL)


_B_LAMBDA, _B_DUAL = _invariant_tensors()


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
