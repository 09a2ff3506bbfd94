"""The exact layer: Bareiss det/rank/signature against Fraction
elimination, the scalar policy, and symbolic proofs of the two exact
identities."""

import math
import random
from fractions import Fraction

import pytest

from so3g2 import variety, verify
from so3g2._exact import is_exact, mat_det, mat_rank, nullspace, scale_to_ints, sym_signature
from so3g2.binaryform import GL2, BinaryForm, discriminant, q_map, resultant, split_b1_b2
from so3g2.curvature import TCoords
from so3g2.exterior import apply_d
from so3g2.flow import flow_torsion_cubic
from so3g2.stableform import cubic_to_3form, threeform_to_cubic
from so3g2.variety import (
    ModelPoint,
    TorsionData,
    bracket_constants,
    killing_form,
    skew_torsion_3form,
    structure_constants,
    su3_components,
    tau_lambda,
    torsion_blocks,
)


# Reference: plain Gaussian elimination over Fraction, as the package did
# before it moved to fraction-free elimination on Python ints.

def ref_det(m):
    a = [[Fraction(v) for v in row] for row in m]
    n = len(a)
    det = Fraction(1)
    sign = 1
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        pval = a[col][col]
        det *= pval
        for r in range(col + 1, n):
            if a[r][col] == 0:
                continue
            f = a[r][col] / pval
            for c in range(col, n):
                a[r][c] -= f * a[col][c]
    return sign * det


def ref_rank(m):
    if not m:
        return 0
    a = [[Fraction(v) for v in row] for row in m]
    rows, cols = len(a), len(a[0])
    rank = 0
    for col in range(cols):
        piv = None
        for r in range(rank, rows):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pval = a[rank][col]
        for r in range(rank + 1, rows):
            if a[r][col] == 0:
                continue
            f = a[r][col] / pval
            for c in range(col, cols):
                a[r][c] -= f * a[rank][c]
        rank += 1
        if rank == rows:
            break
    return rank


def _entry(rng, kind):
    v = rng.randint(-9, 9)
    if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
        return v
    return Fraction(v, rng.randint(1, 7))


def _random_matrix(rng, kind):
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    if rng.random() < 0.4:
        # rank-deficient by construction: a product of rows x r and r x cols
        r = rng.randint(0, min(rows, cols))
        left = [[_entry(rng, kind) for _ in range(r)] for _ in range(rows)]
        right = [[_entry(rng, kind) for _ in range(cols)] for _ in range(r)]
        a = [[sum((left[i][k] * right[k][j] for k in range(r)), 0) for j in range(cols)]
             for i in range(rows)]
    else:
        a = [[_entry(rng, kind) for _ in range(cols)] for _ in range(rows)]
    if rng.random() < 0.3:
        a[rng.randrange(rows)] = [0] * cols
    if rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in a:
            row[j] = 0
    return a


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed"])
def test_bareiss_matches_fraction_elimination(kind):
    rng = random.Random(4242)
    squares = 0
    for _ in range(600):
        a = _random_matrix(rng, kind)
        assert mat_rank(a) == ref_rank(a), a
        if len(a) == len(a[0]):
            squares += 1
            assert mat_det(a) == ref_det(a), a
    assert squares > 50


def test_int_matrices_stay_python_ints():
    np = pytest.importorskip("numpy")
    a = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    assert type(mat_det(a)) is int and mat_det(a) == 4
    wide = np.array(a, dtype=np.int64) * (2 ** 30)
    det = mat_det(wide.tolist())
    assert type(det) is int and det == 4 * 2 ** 90
    # numpy ints are never multiplied as int64, which would wrap
    det = mat_det([[np.int64(v) for v in row] for row in wide])
    assert not isinstance(det, np.integer) and det == 4 * 2 ** 90


def test_float_input_gives_float_det():
    a = [[0.3, 0.7], [1.1, -0.9]]
    det = mat_det(a)
    assert isinstance(det, float)
    assert abs(det - float(ref_det(a))) <= 1e-15
    assert mat_rank([[0.5, 1.0], [1.0, 2.0]]) == 1


def test_empty_matrices():
    assert mat_det([]) == 1
    assert mat_rank([]) == 0
    assert mat_rank([[]]) == 0


def test_killing_suite_matrices_match_reference():
    # the first 200 points of the killing suite (seed 1, span 4); |det F|
    # passes 2^63 there, so the elimination must stay on Python ints
    rng = random.Random(1)
    biggest = 0
    for _ in range(200):
        b = killing_form(structure_constants(verify._random_point_exact(rng, span=4)))
        assert all(type(v) is int for row in b for v in row)
        det = mat_det(b)
        assert type(det) is int and det == ref_det(b)
        assert mat_rank(b) == ref_rank(b)
        biggest = max(biggest, abs(det))
    assert biggest > 2 ** 63


def test_killing_suite_runs_the_jacobi_guard_once_per_sample(monkeypatch):
    calls = []
    guard = variety.require_lie_algebra
    monkeypatch.setattr(variety, "require_lie_algebra", lambda d: calls.append(1) or guard(d))
    assert verify.suite_killing(n_samples=12).passed
    assert len(calls) == 12


def test_scalar_policy():
    assert is_exact([1, Fraction(1, 3), -2])
    assert not is_exact([1, 0.5])
    np = pytest.importorskip("numpy")
    assert not is_exact([Fraction(1), np.float64(2.0)])


def ref_scale_to_ints(values):
    """scale_to_ints as first written: every value through Fraction."""
    ratios = [(int(f.numerator), int(f.denominator)) for f in map(Fraction, values)]
    s = math.lcm(*(den for _, den in ratios))
    return [num * (s // den) for num, den in ratios], s


@pytest.mark.parametrize("kind", ["int", "fraction", "float", "np.int64", "np.float64", "mixed"])
def test_scale_to_ints_matches_the_fraction_route(kind):
    np = pytest.importorskip("numpy")
    rng = random.Random(3)
    draw = {
        "int": lambda: rng.randint(-10 ** 30, 10 ** 30),
        "fraction": lambda: Fraction(rng.randint(-50, 50), rng.randint(1, 60)),
        "float": lambda: rng.uniform(-3.0, 3.0),
        "np.int64": lambda: np.int64(rng.randint(-2 ** 40, 2 ** 40)),
        "np.float64": lambda: np.float64(rng.uniform(-3.0, 3.0)),
    }
    kinds = list(draw) if kind == "mixed" else [kind]
    for _ in range(50):
        values = [draw[rng.choice(kinds)]() for _ in range(8)]
        ints, s = scale_to_ints(values)
        assert (ints, s) == ref_scale_to_ints(values)
        assert all(type(v) is int for v in ints + [s])


def test_structure_constants_int_at_integer_points():
    rng = random.Random(11)
    for _ in range(50):
        d = structure_constants(verify._random_point_exact(rng))
        assert all(type(v) is int for im in d.images for v in im.coeffs.values())
    half = structure_constants(ModelPoint.make([Fraction(1, 2), 0], [Fraction(1, 3), 0, 1]))
    assert any(type(v) is Fraction for im in half.images for v in im.coeffs.values())


def test_nullspace_basis():
    rng = random.Random(7)
    for _ in range(100):
        a = _random_matrix(rng, "mixed")
        basis = nullspace(a)
        assert len(basis) == len(a[0]) - ref_rank(a)
        for v in basis:
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)
        assert ref_rank(basis) == len(basis)


def test_symbolic_identities():
    sp = pytest.importorskip("sympy")
    x1, x2, y1, y2, y3 = sp.symbols("x1 x2 y1 y2 y3")
    m = ModelPoint.make([x1, x2], [y1, y2, y3])
    d = structure_constants(m)
    # d^2 = 0 on the whole variety (the Jacobi identity)
    for i in range(1, 7):
        for v in apply_d(d, d.d1(i)).coeffs.values():
            assert sp.expand(v) == 0
    # det F = (4 Delta R^2)^3 as a polynomial identity
    c = bracket_constants(d)
    b = sp.Matrix(6, 6, lambda i, j: sum(c[k][i][l] * c[l][j][k]
                                         for k in range(6) for l in range(6)))
    assert not b.atoms(sp.Float)
    det = b.det(method="berkowitz")
    want = (4 * discriminant(m.y) * resultant(m.x, m.y) ** 2) ** 3
    assert sp.expand(det - want) == 0


def ref_sym_signature(m):
    """Congruence diagonalization over Fraction, as the package did before
    it moved the signature to fraction-free elimination on Python ints."""
    a = [[Fraction(v) for v in row] for row in m]
    n = len(a)
    pos = neg = 0
    for k in range(n):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][r] != 0), None)
            if swap is not None:
                a[k], a[swap] = a[swap], a[k]
                for row in a:
                    row[k], row[swap] = row[swap], row[k]
            else:
                off = next((r for r in range(k + 1, n) if a[k][r] != 0), None)
                if off is None:
                    continue
                for c in range(n):
                    a[k][c] += a[off][c]
                for r in range(n):
                    a[r][k] += a[r][off]
        pivot = a[k][k]
        if pivot > 0:
            pos += 1
        else:
            neg += 1
        for r in range(k + 1, n):
            if a[r][k] == 0:
                continue
            f = a[r][k] / pivot
            for c in range(n):
                a[r][c] -= f * a[k][c]
            for c in range(n):
                a[c][r] -= f * a[c][k]
    return pos, neg


def _random_symmetric(rng, kind):
    n = rng.randint(1, 7)
    if kind == "low-rank":
        # sum of r signed squares of random rows: rank <= r, mixed signs
        r = rng.randint(0, n)
        vecs = [[_entry(rng, "mixed") for _ in range(n)] for _ in range(r)]
        signs = [rng.choice((-1, 1)) for _ in range(r)]
        return [[sum((s * v[i] * v[j] for s, v in zip(signs, vecs)), 0) for j in range(n)]
                for i in range(n)]
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if kind == "zero-diagonal" and (i == j or rng.random() < 0.5):
                continue
            a[i][j] = a[j][i] = _entry(rng, "int" if kind == "int" else "fraction")
    if rng.random() < 0.2:
        # a zero row and column
        k = rng.randrange(n)
        for i in range(n):
            a[k][i] = a[i][k] = 0
    return a


@pytest.mark.parametrize("kind", ["int", "fraction", "zero-diagonal", "low-rank"])
def test_sym_signature_matches_fraction_congruence(kind):
    rng = random.Random(2718)
    for _ in range(500):
        a = _random_symmetric(rng, kind)
        assert sym_signature(a) == ref_sym_signature(a), a


def test_sym_signature_edge_cases():
    assert sym_signature([]) == (0, 0)
    assert sym_signature([[0] * 4 for _ in range(4)]) == (0, 0)
    assert sym_signature([[0, 1], [1, 0]]) == (1, 1)
    assert sym_signature([[0, Fraction(1, 2), 0], [Fraction(1, 2), 0, 0], [0, 0, -3]]) == (1, 2)
    # singular: the rank-one square of (1, 2, 3)
    assert sym_signature([[1, 2, 3], [2, 4, 6], [3, 6, 9]]) == (1, 0)
    assert sym_signature([[0.5, 0.25], [0.25, -1.0]]) == (1, 1)


def test_sym_signature_of_killing_suite_matrices():
    rng = random.Random(1)
    for _ in range(200):
        b = killing_form(structure_constants(verify._random_point_exact(rng, span=4)))
        assert sym_signature(b) == ref_sym_signature(b)


# The scalar policy: each function below writes its constants as Fractions
# and lets Python's number types decide whether the result is exact.

def _inputs(kind, n=5):
    base = [2, -1, 3, 1, -2][:n]
    if kind == "int":
        return base
    if kind == "fraction":
        return [Fraction(v, 3) for v in base]
    if kind == "float":
        return [v / 3.0 + 0.1 for v in base]
    sp = pytest.importorskip("sympy")
    return list(sp.symbols(f"s0:{n}"))


def _su3_outputs(lam):
    w1p, w1m, beta = su3_components(lam)
    return [w1p, w1m, *beta.coeffs.values()]


POLICY_CASES = {
    "split_b1_b2": lambda v: [c for f in split_b1_b2(BinaryForm(1, v[:2]), BinaryForm(2, v[2:]))
                              for c in f.coeffs],
    "q_map": lambda v: q_map(GL2(*v[:4])).coeffs,
    "TCoords.from_lambda": lambda v: vars(TCoords.from_lambda(BinaryForm(3, v[:4]))).values(),
    "threeform_to_cubic": lambda v: threeform_to_cubic(cubic_to_3form(BinaryForm(3, v[:4]))).coeffs,
    "torsion_blocks": lambda v: torsion_blocks(
        TorsionData(BinaryForm(3, v[:4]), BinaryForm(1, [v[4], v[0]]))),
    "flow_torsion_cubic": lambda v: flow_torsion_cubic(
        structure_constants(ModelPoint.make(v[:2], v[2:]))).coeffs,
    "su3_components": lambda v: _su3_outputs(BinaryForm(3, v[:4])),
    "skew_torsion_3form": lambda v: skew_torsion_3form(BinaryForm(3, v[:4])).coeffs.values(),
    "tau_lambda": lambda v: [c for f in tau_lambda(BinaryForm(3, v[:4])).values()
                             for c in f.coeffs.values()],
}

# these two hold their input to float tolerances, so they take numbers only
NUMERIC_ONLY = {"threeform_to_cubic", "flow_torsion_cubic"}


@pytest.mark.parametrize("name, kind", [
    (name, kind) for name in sorted(POLICY_CASES) for kind in ("int", "fraction", "float", "sympy")
    if not (kind == "sympy" and name in NUMERIC_ONLY)
])
def test_scalar_policy_of_fraction_constants(name, kind):
    out = list(POLICY_CASES[name](_inputs(kind)))
    assert out
    if kind == "float":
        assert all(type(v) is float for v in out), out
    elif kind == "sympy":
        sp = pytest.importorskip("sympy")
        assert not any(isinstance(v, float) or sp.sympify(v).atoms(sp.Float) for v in out), out
    else:
        assert all(isinstance(v, (int, Fraction)) for v in out), out
