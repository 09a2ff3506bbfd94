"""The invariant torsion variety: model points, structure constants,
membership, torsion extraction, classification, and the Killing identity.

A model point is a formal product of a linear and a quadratic binary
form.  Each nonzero point determines a six-dimensional Lie algebra whose
flat connection has invariant torsion; the discriminant of the quadratic
and the resultant of the pair classify the algebra into one of five
types.
"""

from __future__ import annotations

import math
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
    """The six structure coefficients (a, b, c, q, p, r) of the torsion map:
    a = -l2/3 + m1, b = -l4, c = -l3/3 + m2/2, q = l1, p = l3/3 + m2 and
    r = l2/3 + m1/2.

    Exact input (ints and Fractions) is read once as ints times a scale s
    (``_exact.scale_to_ints``); the blocks times 6s are ints, and each is
    divided once, to an int where it divides and to a Fraction otherwise,
    so an integer model point has int structure constants.  Any other
    input (floats, sympy) is combined with Fraction constants, and an
    integer-valued Fraction among the results comes back as an int.
    """
    values = t.lam.coeffs + t.mu.coeffs
    if all(isinstance(v, (int, Fraction)) for v in values):
        (l1, l2, l3, l4, m1, m2), s = _exact.scale_to_ints(values)
        den = 6 * s
        blocks = []
        for v in (-2 * l2 + 6 * m1, -6 * l4, -2 * l3 + 3 * m2,
                  6 * l1, 2 * l3 + 6 * m2, 2 * l2 + 3 * m1):
            quot, rem = divmod(v, den)
            blocks.append(F(v, den) if rem else quot)
        return tuple(blocks)
    l1, l2, l3, l4 = t.lam.coeffs
    m1, m2 = t.mu.coeffs
    a = -F(1, 3) * l2 + m1
    b = -l4
    c = -F(1, 3) * l3 + F(1, 2) * m2
    q = l1
    p = F(1, 3) * l3 + m2
    r = F(1, 3) * l2 + F(1, 2) * m1
    # integer-valued Fractions (of a point mixing floats and Fractions) as ints
    return tuple(v.numerator if isinstance(v, Fraction) and v.denominator == 1 else v
                 for v in (a, b, c, q, p, r))


def _kappa_row(u, v, blocks, sgn):
    # the entries of u[0]v[0], u[0]v[1], u[1]v[0], u[1]v[1]: increasing keys
    return tuple(((u[i], v[j]), block, sgn)
                 for (i, j), block in zip(((0, 0), (0, 1), (1, 0), (1, 1)), blocks))


#: one row per image de^i: (key, index into torsion_blocks, sign) entries
_KAPPA_TABLE = (
    _kappa_row((3, 4), (5, 6), (0, 2, 2, 1), 1),    # de1 = a e35 + c(e36+e45) + b e46
    _kappa_row((3, 4), (5, 6), (3, 5, 5, 4), 1),    # de2 = q e35 + r(e36+e45) + p e46
    _kappa_row((1, 2), (5, 6), (0, 2, 2, 1), -1),   # de3 = -(a e15 + c(e16+e25) + b e26)
    _kappa_row((1, 2), (5, 6), (3, 5, 5, 4), -1),   # de4 = -(q e15 + r(e16+e25) + p e26)
    _kappa_row((1, 2), (3, 4), (0, 2, 2, 1), 1),    # de5 = a e13 + c(e14+e23) + b e24
    _kappa_row((1, 2), (3, 4), (3, 5, 5, 4), 1),    # de6 = q e13 + r(e14+e23) + p e24
)


def kappa(t: TorsionData) -> CEOperator:
    """The invariant torsion map as a degree-one operator e^i -> Lambda^2.

    The images of e^1, e^2 determine the rest by replacing the pair
    (1, 2) with (3, 4) and (5, 6) in the rotation-equivariant pattern of
    the model structure constants: with the blocks (a, b, c, q, p, r) of
    ``torsion_blocks``, de^1 = a e35 + c (e36 + e45) + b e46 and
    de^2 = q e35 + r (e36 + e45) + p e46; de^3, de^4 are minus the same
    on (1, 2), (5, 6), and de^5, de^6 the same on (1, 2), (3, 4).  The
    images are filled from ``_KAPPA_TABLE``, whose keys are already
    increasing, so no key is sorted or checked; zero entries are
    dropped, as ``KForm`` does.
    """
    blocks = torsion_blocks(t)
    images = []
    for row in _KAPPA_TABLE:
        coeffs = {}
        for key, i, sgn in row:
            v = blocks[i]
            if v != 0:
                coeffs[key] = v if sgn == 1 else -v
        im = KForm.zero(2)
        im.coeffs = coeffs
        images.append(im)
    return CEOperator(tuple(images))


def structure_constants(m: ModelPoint) -> CEOperator:
    """The Chevalley-Eilenberg operator of the model algebra at m.

    Raises ValueError when a finite float point has structure constants
    beyond the float range (its products overflow).
    """
    beyond = "the structure constants of this point are beyond the float range"
    try:
        cubic, linear = split_b1_b2(m.x, m.y)
        d = kappa(TorsionData(cubic, linear))
    except OverflowError:  # a float times a Fraction beyond the float range
        raise ValueError(beyond) from None
    point = m.x.coeffs + m.y.coeffs
    if (not is_exact(point) and not _nonfinite(point)
            and _nonfinite(v for im in d.images for v in im.coeffs.values())):
        raise ValueError(beyond)
    return d


def _nonfinite(values) -> bool:
    return any(isinstance(v, float) and not math.isfinite(v) for v in values)


def torsion_of(m: ModelPoint) -> BinaryForm:
    """The invariant torsion cubic: the plain product x*y."""
    return m.x * m.y


def membership_rank(t: TorsionData) -> int:
    """Rank of the 2x3 membership matrix
    [[-2/3 l2 + m1/2, -l3/3 + m2/2, l1], [-2/3 l3 - m2/2, -l4, l2/3 + m1/2]];
    1 on the variety.  Decided on 6s times the matrix in Python ints, s
    the scale of ``_exact.scale_to_ints``, which reads a float as the
    rational it represents."""
    (l1, l2, l3, l4, m1, m2), _ = _exact.scale_to_ints(t.lam.coeffs + t.mu.coeffs)
    return _exact.mat_rank([
        [-4 * l2 + 3 * m1, -2 * l3 + 3 * m2, 6 * l1],
        [-4 * l3 - 3 * m2, -6 * l4, 2 * l2 + 3 * m1],
    ])


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


def classify(m: ModelPoint) -> LieAlgebraClass:
    """Classify the model algebra at m by discriminant and resultant.

    Both are decided exactly: a float coordinate counts as the rational it
    represents.  A point with a float is scaled to Python ints first,
    one scale for x and one for y, which keeps the sign of the
    discriminant (quadratic in y) and of the resultant (quadratic in x,
    linear in y).
    """
    if m.is_zero():
        raise ValueError("cannot classify the zero point")
    x, y = m.x, m.y
    if not is_exact(x.coeffs + y.coeffs):
        x = BinaryForm(1, _exact.scale_to_ints(x.coeffs)[0])
        y = BinaryForm(2, _exact.scale_to_ints(y.coeffs)[0])
    delta = discriminant(y)
    res = resultant(x, y)
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
    # ad[i]: the nonzero entries {(k, l): v} of ad(e_i), (ad e_i)[k][l] =
    # c[k][i][l] in the notation of bracket_constants, read off the images:
    # a coefficient v of e^(pq) in de^(k+1) is c[k][p-1][q-1] = -v and
    # c[k][q-1][p-1] = v.  Images in k order with sorted keys fill each ad
    # map in row-major (k, l) order, the order of the float sums below.
    ad = [{} for _ in range(DIM)]
    for k, im in enumerate(d.images):
        for (p, q), v in sorted(im.coeffs.items()):
            if v != 0:
                ad[p - 1][k, q - 1] = -v
                ad[q - 1][k, p - 1] = v
    b = [[0] * DIM for _ in range(DIM)]
    for i in range(DIM):
        for j in range(i, DIM):
            ad_j = ad[j]
            b[i][j] = b[j][i] = sum(v * ad_j.get((l, k), 0) for (k, l), v in ad[i].items())
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
