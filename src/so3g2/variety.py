"""The invariant torsion variety: model points, structure constants,
membership, torsion extraction, classification, and the Killing identity.

A model point is a formal product of a linear and a quadratic binary
form.  Each nonzero point determines a six-dimensional Lie algebra whose
flat connection has invariant torsion; the discriminant of the quadratic
and the resultant of the pair classify the algebra into one of five
types.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import _exact
from ._exact import is_exact
from .binaryform import BinaryForm, GL2, act, discriminant, resultant, split_b1_b2
from .exterior import CEOperator, DIM, KForm, interior, require_lie_algebra

F = Fraction


@dataclass(frozen=True)
class ModelPoint:
    """Formal product x . y of a linear and a quadratic form (unnormalized)."""

    x: BinaryForm
    y: BinaryForm

    def __post_init__(self):
        if self.x.degree != 1 or self.y.degree != 2:
            raise ValueError("ModelPoint needs degrees (1, 2)")

    def is_zero(self) -> bool:
        return self.x.is_zero() or self.y.is_zero()

    @staticmethod
    def make(x_coeffs, y_coeffs) -> "ModelPoint":
        return ModelPoint(BinaryForm(1, list(x_coeffs)), BinaryForm(2, list(y_coeffs)))

    def to_json(self) -> dict:
        return {"x": list(self.x.coeffs), "y": list(self.y.coeffs)}


@dataclass(frozen=True)
class TorsionData:
    """A pair (lambda, mu) in the degree-3 plus degree-1 module."""

    lam: BinaryForm
    mu: BinaryForm

    def __post_init__(self):
        if self.lam.degree != 3 or self.mu.degree != 1:
            raise ValueError("TorsionData needs degrees (3, 1)")


class LieAlgebraClass(Enum):
    SO3xSO3 = "so(3)+so(3)"
    SO3C = "so(3,C)"
    SO3semidirectR3 = "so(3)|xR3"
    SO3directR3 = "so(3)+R3"
    Nilpotent = "nilpotent (0,0,0,12,13,23)"
    Abelian = "abelian"


def torsion_blocks(t: TorsionData):
    """The six structure coefficients (a, b, c, q, p, r) of the torsion map.

    Integer-valued Fractions come back as ints, so that an integer model
    point has int structure constants.
    """
    l1, l2, l3, l4 = t.lam.coeffs
    m1, m2 = t.mu.coeffs
    a = -F(1, 3) * l2 + m1
    b = -l4
    c = -F(1, 3) * l3 + F(1, 2) * m2
    q = l1
    p = F(1, 3) * l3 + m2
    r = F(1, 3) * l2 + F(1, 2) * m1
    return tuple(v.numerator if isinstance(v, Fraction) and v.denominator == 1 else v
                 for v in (a, b, c, q, p, r))


def kappa(t: TorsionData) -> CEOperator:
    """The invariant torsion map as a degree-one operator e^i -> Lambda^2.

    The images of e^1, e^2 determine the rest by replacing the pair
    (1, 2) with (3, 4) and (5, 6) in the rotation-equivariant pattern of
    the model structure constants.
    """
    a, b, c, q, p, r = torsion_blocks(t)

    def odd(u, v, w, sgn):
        # pattern a e^{vw(1)} + c (e^{vw(2)} + e^{vw(3)}) + b e^{vw(4)} with signs
        return KForm(2, {
            (u[0], v[0]): sgn * a,
            (u[0], v[1]): sgn * c,
            (u[1], v[0]): sgn * c,
            (u[1], v[1]): sgn * b,
        })

    def even(u, v, sgn):
        return KForm(2, {
            (u[0], v[0]): sgn * q,
            (u[0], v[1]): sgn * r,
            (u[1], v[0]): sgn * r,
            (u[1], v[1]): sgn * p,
        })

    p12, p34, p56 = (1, 2), (3, 4), (5, 6)
    images = (
        odd(p34, p56, 1, 1),   # de1 = a e35 + c(e36+e45) + b e46
        even(p34, p56, 1),     # de2 = q e35 + r(e36+e45) + p e46
        odd(p12, p56, 1, -1),  # de3 = -(a e15 + c(e16+e25) + b e26)
        even(p12, p56, -1),    # de4
        odd(p12, p34, 1, 1),   # de5 = a e13 + c(e14+e23) + b e24
        even(p12, p34, 1),     # de6
    )
    return CEOperator(images)


def structure_constants(m: ModelPoint) -> CEOperator:
    """The Chevalley-Eilenberg operator of the model algebra at m."""
    cubic, linear = split_b1_b2(m.x, m.y)
    return kappa(TorsionData(cubic, linear))


def torsion_of(m: ModelPoint) -> BinaryForm:
    """The invariant torsion cubic: the plain product x*y."""
    return m.x * m.y


def membership_rank(t: TorsionData) -> int:
    """Rank of the 2x3 membership matrix; 1 on the variety."""
    l1, l2, l3, l4 = (F(v) for v in t.lam.coeffs)
    m1, m2 = (F(v) for v in t.mu.coeffs)
    q_mat = [
        [-F(2, 3) * l2 + F(1, 2) * m1, -F(1, 3) * l3 + F(1, 2) * m2, l1],
        [-F(2, 3) * l3 - F(1, 2) * m2, -l4, F(1, 3) * l2 + F(1, 2) * m1],
    ]
    return _exact.mat_rank(q_mat)


def su3_components(lam: BinaryForm):
    """The scalar and 3-form components of the finer torsion decomposition.

    Returns (W1plus, W1minus, W3) with W1plus = (l2 - l4)/2,
    W1minus = (l3 - l1)/2 and W3 the residual 3-form beta.
    """
    l1, l2, l3, l4 = lam.coeffs
    w1p = F(1, 2) * (l2 - l4)
    w1m = F(1, 2) * (l3 - l1)
    beta = KForm(3, {
        (2, 3, 5): F(1, 4) * (l2 + 3 * l4),
        (1, 4, 5): F(1, 4) * (l2 + 3 * l4),
        (1, 3, 6): F(1, 4) * (l2 + 3 * l4),
        (2, 4, 6): F(3, 4) * (l2 + 3 * l4),
        (2, 4, 5): F(1, 4) * (3 * l1 + l3),
        (1, 4, 6): F(1, 4) * (3 * l1 + l3),
        (2, 3, 6): F(1, 4) * (3 * l1 + l3),
        (1, 3, 5): F(3, 4) * (3 * l1 + l3),
    })
    return w1p, w1m, beta


def skew_torsion_3form(lam: BinaryForm) -> KForm:
    """Torsion 3-form of the adjusted connection with skew invariant torsion."""
    l1, l2, l3, l4 = lam.coeffs
    return KForm(3, {
        (2, 3, 5): F(1, 2) * l1,
        (1, 4, 5): F(1, 2) * l1,
        (1, 3, 6): F(1, 2) * l1,
        (2, 4, 6): F(1, 2) * (2 * l1 + l3),
        (1, 3, 5): -F(1, 2) * (l2 + 2 * l4),
        (1, 4, 6): -F(1, 2) * l4,
        (2, 3, 6): -F(1, 2) * l4,
        (2, 4, 5): -F(1, 2) * l4,
    })


def tau_lambda(lam: BinaryForm) -> dict:
    """The intrinsic torsion as a 1-form with values in the complement of so(3).

    Returned as a map i -> 2-form (the so(6) value paired with e^i); its
    alternation reproduces kappa(lam, 0) modulo the so(3) part.
    """
    l1, l2, l3, l4 = lam.coeffs
    a13 = F(1, 4) * (l1 + l3)
    b4 = -F(1, 2) * l4
    c24 = F(1, 4) * (l2 + l4)
    d1 = F(1, 2) * l1
    form_m = {  # e46 - e35 pattern per pair, and e45 + e36 pattern
        1: KForm(2, {(4, 6): c24, (3, 5): -c24, (4, 5): d1, (3, 6): d1}),
        2: KForm(2, {(4, 6): a13, (3, 5): -a13, (4, 5): b4, (3, 6): b4}),
        3: KForm(2, {(2, 6): -c24, (1, 5): c24, (2, 5): -d1, (1, 6): -d1}),
        4: KForm(2, {(2, 6): -a13, (1, 5): a13, (2, 5): -b4, (1, 6): -b4}),
        5: KForm(2, {(2, 4): c24, (1, 3): -c24, (1, 4): d1, (2, 3): d1}),
        6: KForm(2, {(2, 4): a13, (1, 3): -a13, (1, 4): b4, (2, 3): b4}),
    }
    return form_m


SO3_BASIS = (
    KForm(2, {(1, 3): F(1), (2, 4): F(1)}),
    KForm(2, {(1, 5): F(1), (2, 6): F(1)}),
    KForm(2, {(3, 5): F(1), (4, 6): F(1)}),
)


def alternation(tau: dict) -> dict:
    """Alternation of a T*-valued so(6) tensor into Hom(T*, Lambda^2) shape.

    tau maps i -> 2-form; the result maps m -> 2-form, matching the way a
    degree-one operator is stored.
    """
    out = {}
    for m in range(1, DIM + 1):
        comp = {}
        for x in range(1, DIM + 1):
            for y in range(x + 1, DIM + 1):
                # (e_y -| tau_x)_m - (e_x -| tau_y)_m
                val = interior(y, tau[x])[(m,)] - interior(x, tau[y])[(m,)]
                if val != 0:
                    comp[(x, y)] = val
        out[m] = KForm(2, comp)
    return out


def alternation_matches_kappa(lam: BinaryForm) -> bool:
    """Check alternation(tau_lambda) = kappa(lam, 0) modulo alternations of
    so(3)-valued 1-forms (exact linear algebra)."""
    lam_e = BinaryForm(3, [F(v) for v in lam.coeffs])
    tau = tau_lambda(lam_e)
    alt = alternation(tau)
    kap = kappa(TorsionData(lam_e, BinaryForm(1, [F(0), F(0)])))

    def to_vec(op_map):
        vec = []
        for m in range(1, DIM + 1):
            form = op_map[m] if isinstance(op_map, dict) else op_map.d1(m)
            for x in range(1, DIM + 1):
                for y in range(x + 1, DIM + 1):
                    vec.append(F(form[(x, y)]))
        return vec

    residual = [a - b for a, b in zip(to_vec(alt), to_vec(kap))]
    basis_vecs = []
    for i in range(1, DIM + 1):
        for s in SO3_BASIS:
            tau_s = {m: KForm.zero(2) for m in range(1, DIM + 1)}
            tau_s[i] = s
            basis_vecs.append(to_vec(alternation(tau_s)))
    rank_without = _exact.mat_rank(basis_vecs)
    rank_with = _exact.mat_rank(basis_vecs + [residual])
    return rank_with == rank_without


def is_totally_skew(tau: dict) -> bool:
    """Whether the alternation-side tensor T_{ijk} = tau_i[(j,k)] is alternating
    in all three slots (exact)."""
    t = {}
    for i in range(1, DIM + 1):
        for j in range(1, DIM + 1):
            for k in range(1, DIM + 1):
                if j == k:
                    v = 0
                else:
                    v = tau[i][(j, k)]
                t[(i, j, k)] = v
    for i in range(1, DIM + 1):
        for j in range(1, DIM + 1):
            for k in range(1, DIM + 1):
                if t[(i, j, k)] != -t[(j, i, k)]:
                    return False
    return True


_SNAP_TOL = 1e-12


def _snap(value, scale: float):
    if is_exact((value,)):
        return value
    if abs(value) < _SNAP_TOL * max(1.0, scale):
        warnings.warn("snapping a near-zero classification invariant to 0")
        return 0
    return value


def classify(m: ModelPoint) -> LieAlgebraClass:
    """Classify the model algebra at m by discriminant and resultant."""
    if m.is_zero():
        raise ValueError("cannot classify the zero point")
    delta = discriminant(m.y)
    res = resultant(m.x, m.y)
    delta = _snap(delta, m.y.norm() ** 2)
    res = _snap(res, (m.x.norm() ** 2) * m.y.norm() or 1.0)
    if delta == 0 and res == 0:
        return LieAlgebraClass.Nilpotent
    if delta == 0:
        return LieAlgebraClass.SO3semidirectR3
    if res == 0:
        return LieAlgebraClass.SO3directR3
    if delta > 0:
        return LieAlgebraClass.SO3xSO3
    return LieAlgebraClass.SO3C


def act_on_point(g: GL2, m: ModelPoint) -> ModelPoint:
    """The diagonal substitution action on a formal product."""
    return ModelPoint(act(g, m.x), act(g, m.y))


def bracket_constants(d: CEOperator):
    """Structure constants c[k][i][j] with [e_i, e_j] = sum_k c[k][i][j] e_k."""
    c = [[[0] * DIM for _ in range(DIM)] for _ in range(DIM)]
    for k in range(1, DIM + 1):
        im = d.d1(k)
        for (i, j), v in im.coeffs.items():
            c[k - 1][i - 1][j - 1] = -v
            c[k - 1][j - 1][i - 1] = v
    return c


def killing_form(d: CEOperator):
    """Killing matrix B(e_i, e_j) = tr(ad_i ad_j) as a 6x6 list of lists.

    Raises on operators that fail the Jacobi identity (exactly for exact
    scalars, beyond roundoff for floats).  Entries are ints at integer
    model points.
    """
    require_lie_algebra(d)
    c = bracket_constants(d)
    # the nonzero entries (k, l, v) of ad(e_i), with (ad e_i)[k][l] = c[k][i][l]
    ad = [[(k, l, c[k][i][l]) for k in range(DIM) for l in range(DIM) if c[k][i][l] != 0]
          for i in range(DIM)]
    b = [[0] * DIM for _ in range(DIM)]
    for i in range(DIM):
        for j in range(i, DIM):
            b[i][j] = b[j][i] = sum(v * c[l][j][k] for k, l, v in ad[i])
    return b


def killing_det(d: CEOperator):
    return _exact.mat_det(killing_form(d))


def killing_rank(d: CEOperator) -> int:
    return _exact.mat_rank(killing_form(d))


def killing_signature(d: CEOperator):
    return _exact.sym_signature(killing_form(d))


def derived_algebra_dim(d: CEOperator) -> int:
    c = bracket_constants(d)
    rows = []
    for i in range(DIM):
        for j in range(i + 1, DIM):
            rows.append([c[k][i][j] for k in range(DIM)])
    return _exact.mat_rank(rows)


def center_dim(d: CEOperator) -> int:
    c = bracket_constants(d)
    rows = []
    for j in range(DIM):
        for k in range(DIM):
            rows.append([c[k][i][j] for i in range(DIM)])
    return DIM - _exact.mat_rank(rows)


def is_nilpotent(d: CEOperator) -> bool:
    """Lower-central-series test on the bracket constants (exact input)."""
    c = bracket_constants(d)
    basis = [[F(1) if i == j else F(0) for j in range(DIM)] for i in range(DIM)]

    def bracket(u, v):
        out = [F(0)] * DIM
        for i in range(DIM):
            if u[i] == 0:
                continue
            for j in range(DIM):
                if v[j] == 0:
                    continue
                for k in range(DIM):
                    out[k] += u[i] * v[j] * c[k][i][j]
        return out

    current = basis
    for _ in range(DIM + 1):
        next_rows = []
        for u in basis:
            for v in current:
                next_rows.append(bracket(u, v))
        rank = _exact.mat_rank(next_rows)
        if rank == 0:
            return True
        # reduce to a basis of the new term
        reduced = _reduce_rows(next_rows, rank)
        if len(current) == rank and _exact.mat_rank(current + reduced) == rank:
            return False  # series stabilized at a nonzero ideal
        current = reduced
    return False


def _reduce_rows(rows, rank):
    a = [[F(v) for v in row] for row in rows]
    picked = []
    for row in a:
        if _exact.mat_rank(picked + [row]) > len(picked):
            picked.append(row)
        if len(picked) == rank:
            break
    return picked
