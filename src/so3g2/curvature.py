"""Curvature of the model metrics: a Koszul-formula oracle from structure
constants, and the closed-form traceless Ricci and scalar curvature.

The adapted coframe e^1..e^6 is declared orthonormal throughout; moving
the metric means moving the model point.  The closed forms are written
in rotated coordinates t1..t4 on the torsion module, in which the weight
structure of the circle action is diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .binaryform import BinaryForm
from .exterior import CEOperator, DIM, require_lie_algebra
from .variety import ModelPoint, bracket_constants, torsion_of

F = Fraction


@dataclass(frozen=True)
class TCoords:
    """Rotated torsion coordinates; lambda = (t1+t3, -3t2+t4, -3t1+t3, t2+t4)."""

    t1: float
    t2: float
    t3: float
    t4: float

    def to_lambda(self) -> BinaryForm:
        return BinaryForm(3, [
            self.t1 + self.t3,
            -3 * self.t2 + self.t4,
            -3 * self.t1 + self.t3,
            self.t2 + self.t4,
        ])

    @staticmethod
    def from_lambda(lam: BinaryForm) -> "TCoords":
        l1, l2, l3, l4 = lam.coeffs
        # F(1, 4) keeps exact coefficients exact and acts on a float as
        # 0.25; on a float array it would make an object array
        quarter = 0.25 if isinstance(l1, np.ndarray) else F(1, 4)
        return TCoords(
            quarter * (l1 - l3),
            quarter * (l4 - l2),
            quarter * (3 * l1 + l3),
            quarter * (l2 + 3 * l4),
        )


@dataclass
class CurvatureReport:
    ricci: np.ndarray
    scalar: float
    ricci_traceless_norm: float
    weyl_norm: float

    def to_json(self) -> dict:
        return {
            "ricci": [[float(v) for v in row] for row in self.ricci],
            "scalar": float(self.scalar),
            "ricci_traceless_norm": float(self.ricci_traceless_norm),
            "weyl_norm": float(self.weyl_norm),
        }


def koszul_connection(c: np.ndarray) -> np.ndarray:
    """Levi-Civita coefficients gam[i,j,k] = <nabla_{e_i} e_j, e_k> of an
    orthonormal frame with brackets [e_i, e_j] = sum_k c[k,i,j] e_k, from
    2<nabla_X Y, Z> = <[X,Y],Z> - <[Y,Z],X> + <[Z,X],Y> (Milnor 1976)."""
    return (np.einsum("kij->ijk", c) - c + np.einsum("jki->ijk", c)) / 2


def koszul_riemann(c: np.ndarray, gam: np.ndarray, dgam: np.ndarray | None = None) -> np.ndarray:
    """R[i,j,k,l] = <R(e_i, e_j) e_k, e_l> with
    R(X,Y) = nabla_X nabla_Y - nabla_Y nabla_X - nabla_[X,Y].

    dgam[i] = e_i(gam) is the frame derivative of the connection
    coefficients; it vanishes (and may be omitted) for a left-invariant
    frame.
    """
    a = np.einsum("jkm,iml->ijkl", gam, gam)
    if dgam is not None:
        a = a + dgam
    return a - a.transpose(1, 0, 2, 3) - np.einsum("mij,mkl->ijkl", c, gam)


def riemann_tensor(d: CEOperator) -> np.ndarray:
    """Riemann tensor of the left-invariant metric with orthonormal coframe."""
    require_lie_algebra(d)
    c = np.array(bracket_constants(d), dtype=float)
    return koszul_riemann(c, koszul_connection(c))


def levi_civita_oracle(d: CEOperator) -> CurvatureReport:
    """Full curvature of the left-invariant metric with orthonormal coframe;
    ValueError when a number of it is beyond the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        riem = riemann_tensor(d)
        ric = np.einsum("ijki->jk", riem)
        scalar = float(np.trace(ric))
        ric0 = ric - (scalar / DIM) * np.eye(DIM)
        weyl = _weyl_tensor(riem, ric, scalar)
        norms = float(np.sqrt(np.sum(ric0 * ric0))), float(np.sqrt(np.sum(weyl * weyl)))
    # a non-finite Ricci entry makes the traceless norm non-finite too
    if not all(map(math.isfinite, (scalar, *norms))):
        raise ValueError("the curvature of this point is beyond the float range")
    return CurvatureReport(ricci=ric, scalar=scalar, ricci_traceless_norm=norms[0],
                           weyl_norm=norms[1])


def _weyl_tensor(riem, ric, scalar):
    """Weyl part of the (4,0) curvature in an orthonormal frame:
    W = R - (Ric o g) / (n-2) + s (g o g) / (2 (n-1)(n-2)), where o is the
    Kulkarni-Nomizu product in the index order of ``koszul_riemann``."""
    n = DIM
    g = np.eye(n)
    ric_g = np.einsum("jk,il->ijkl", ric, g) + np.einsum("jk,il->ijkl", g, ric)
    gg = np.einsum("jk,il->ijkl", g, g)
    return (riem - (ric_g - ric_g.transpose(1, 0, 2, 3)) / (n - 2)
            + scalar * (gg - gg.transpose(1, 0, 2, 3)) / ((n - 1) * (n - 2)))


def ricci_closed_form(t: TCoords):
    """Closed-form traceless Ricci (6x6) and scalar curvature.

    The traceless part has an off-diagonal block pairing the two triples
    and a diagonal +/- block.  In the standard convention of the Koszul
    oracle (unit orthonormal coframe, Ricci of the round sphere positive)
    the scalar curvature is s = 6 (5 t1^2 + 5 t2^2 - t3^2 - t4^2); the
    quadratic form in parentheses is the shape-invariant part, the factor
    6 is the frame normalization.

    The coordinates may be arrays of one shape: the results are then
    (..., 6, 6) and (...), each point equal bit for bit to its own call
    (squares are products, which Python and numpy round alike).
    """
    t1, t2, t3, t4 = t.t1, t.t2, t.t3, t.t4
    off = -2.0 * (t4 * t1 + 2 * t3 * t4 + t2 * t3)
    diag = 2.0 * (t4 * t4 - t3 * t3 + t3 * t1 - t2 * t4)
    ric0 = np.zeros(np.shape(off) + (DIM, DIM))
    for i, j in ((0, 1), (2, 3), (4, 5)):
        ric0[..., i, j] = ric0[..., j, i] = off
        ric0[..., i, i] = diag
        ric0[..., j, j] = -diag
    s = 6.0 * (5 * (t1 * t1) + 5 * (t2 * t2) - t3 * t3 - t4 * t4)
    return ric0, s


def model_tcoords(m: ModelPoint) -> TCoords:
    return TCoords.from_lambda(torsion_of(m))

