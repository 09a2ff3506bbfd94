import itertools
import math
import random
from fractions import Fraction as F

import pytest

from conftest import random_float_point
from so3g2 import curvature, exterior, verify
from so3g2._exact import is_exact
from so3g2.binaryform import BinaryForm
from so3g2.exterior import (
    BASIS,
    DIM,
    CEOperator,
    KForm,
    apply_d,
    d_squared_residual,
    _kappa_minors,
    _sort_with_sign,
    interior,
    require_lie_algebra,
    wedge,
    wedge_all,
)
from so3g2.variety import (
    _KAPPA_TABLE,
    ModelPoint,
    TorsionData,
    kappa,
    killing_form,
    membership_rank,
    structure_constants,
    torsion_blocks,
)

SIGMA = KForm(2, {(1, 2): F(1), (3, 4): F(1), (5, 6): F(1)})


def random_form(rng, degree, exact=True):
    import itertools
    coeffs = {}
    for idx in itertools.combinations(range(1, 7), degree):
        v = rng.randint(-4, 4)
        if v:
            coeffs[idx] = F(v) if exact else float(v)
    return KForm(degree, coeffs)


def test_wedge_basis():
    assert wedge(KForm.basis(1), KForm.basis(2)) == KForm.basis(1, 2)


def test_wedge_repeated_index_vanishes():
    assert wedge(KForm.basis(1, 2), KForm.basis(1, 3)).is_zero()


def test_sigma_cubed():
    # direct expansion of the 27-term product collapses to one monomial
    assert wedge_all(SIGMA, SIGMA, SIGMA) == KForm(6, {(1, 2, 3, 4, 5, 6): F(6)})


def test_wedge_degree_overflow():
    with pytest.raises(ValueError):
        wedge(KForm.basis(1, 2, 3, 4), KForm.basis(5, 6, 1, 2))


def test_wedge_graded_commutativity():
    rng = random.Random(1)
    for da, db in [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (1, 4)]:
        a, b = random_form(rng, da), random_form(rng, db)
        sign = (-1) ** (da * db)
        assert wedge(a, b) == sign * wedge(b, a)


def test_interior_basis_cases():
    assert interior(1, KForm.basis(1, 2)) == KForm.basis(2)
    assert interior(2, KForm.basis(1, 2)) == -1 * KForm.basis(1)
    assert interior(1, SIGMA) == KForm.basis(2)


def test_interior_anti_derivation():
    rng = random.Random(2)
    for da, db in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        a, b = random_form(rng, da), random_form(rng, db)
        for v in range(1, 7):
            lhs = interior(v, wedge(a, b))
            rhs = wedge(interior(v, a), b) + (-1) ** da * wedge(a, interior(v, b))
            assert lhs == rhs


def test_interior_squares_to_zero():
    rng = random.Random(3)
    a = random_form(rng, 3)
    vec = [F(rng.randint(-3, 3)) for _ in range(6)]
    assert interior(vec, interior(vec, a)).is_zero()


NILPOTENT = CEOperator((
    KForm.zero(2), KForm.zero(2), KForm.zero(2),
    KForm.basis(1, 2), KForm.basis(1, 3), KForm.basis(2, 3),
))


def test_apply_d_nilpotent_example():
    assert apply_d(NILPOTENT, KForm.basis(4)) == KForm.basis(1, 2)


def test_apply_d_kills_term_with_repeated_index():
    # d(e^1 ^ e^4) = de^1 ^ e^4 - e^1 ^ de^4 = -e^1 ^ e^12 = 0
    assert apply_d(NILPOTENT, KForm.basis(1, 4)).is_zero()


def test_apply_d_constant():
    assert apply_d(NILPOTENT, KForm(0, {(): F(1)})).is_zero()


def test_apply_d_leibniz():
    rng = random.Random(4)
    d = CEOperator(tuple(random_form(rng, 2) for _ in range(6)))
    for da, db in [(1, 1), (1, 2), (2, 2), (2, 1), (3, 1)]:
        a, b = random_form(rng, da), random_form(rng, db)
        lhs = apply_d(d, wedge(a, b))
        rhs = wedge(apply_d(d, a), b) + (-1) ** da * wedge(a, apply_d(d, b))
        assert lhs == rhs


def test_d_squared_residual_zero_cases():
    assert d_squared_residual(NILPOTENT) == 0
    abelian = CEOperator(tuple(KForm.zero(2) for _ in range(6)))
    assert d_squared_residual(abelian) == 0


def test_d_squared_residual_nonzero():
    # de1 = e24, de2 = e13 gives d^2 e1 = e134 != 0
    z = KForm.zero(2)
    d = CEOperator((KForm.basis(2, 4), KForm.basis(1, 3), z, z, z, z))
    assert d_squared_residual(d) > 0


def test_pullback_identity_and_composition():
    rng = random.Random(5)
    a = random_form(rng, 3)
    ident = [[F(1) if i == j else F(0) for j in range(6)] for i in range(6)]
    assert ref_pullback(ident, a) == a
    # m1^* m2^* = (m2 m1)^*
    m1, m2 = ([[rng.randint(-2, 2) for _ in range(6)] for _ in range(6)] for _ in range(2))
    m21 = [[sum(m2[i][k] * m1[k][j] for k in range(6)) for j in range(6)] for i in range(6)]
    assert ref_pullback(m1, ref_pullback(m2, a)) == ref_pullback(m21, a)


def test_json_round_trip():
    rng = random.Random(6)
    a = random_form(rng, 2)
    assert KForm.from_json(a.to_json()) == a
    d = CEOperator(tuple(random_form(rng, 2) for _ in range(6)))
    back = CEOperator.from_json(d.to_json())
    assert all(back.d1(i) == d.d1(i) for i in range(1, 7))


# -- the dense kernels against the term-by-term loops they replaced ---------

def ref_apply_d(d, a):
    """apply_d as the package computed it before d_k became a matrix."""
    if a.degree == 0:
        return KForm.zero(1)
    if a.degree == DIM:
        return KForm.zero(DIM)
    out = KForm.zero(a.degree + 1)
    for idx, c in a.coeffs.items():
        for p, jp in enumerate(idx):
            rest = idx[:p] + idx[p + 1:]
            sign = -1 if p % 2 else 1
            term = wedge(d.d1(jp), KForm(len(rest), {rest: sign * c}))
            out = out + term
    return out


def ref_pullback(m, a):
    """Pullback of a by the matrix m (m[i][j] = (m e_j)_i): the substitution
    e^i -> sum_j m[i][j] e^j, wedged out term by term."""
    images = [KForm(1, {(j + 1,): m[i][j] for j in range(DIM)}) for i in range(DIM)]
    out = KForm.zero(a.degree)
    for idx, c in a.coeffs.items():
        term = KForm(0, {(): c})
        for i in idx:
            term = wedge(term, images[i - 1])
        out = out + term
    return out


def minors_pullback(m, a):
    """Pullback by Cauchy-Binet, (m^* a)_J = sum_I a_I det m[I, J], each
    k x k minor expanded over the permutations of J."""
    def minor(rows, cols):
        return sum(_sort_with_sign(perm)[1] * math.prod(m[i - 1][j - 1] for i, j in zip(rows, perm))
                   for perm in itertools.permutations(cols))

    return KForm(a.degree, {cols: sum(c * minor(rows, cols) for rows, c in a.coeffs.items())
                            for cols in BASIS[a.degree]})


def ref_d_squared_residual(d):
    return max((ref_apply_d(d, d.d1(i)).max_abs() for i in range(1, DIM + 1)), default=0)


KINDS = ("int", "frac", "float", "mixed")


def _scalar(rng, kind):
    if kind == "mixed":
        kind = rng.choice(KINDS[:3])
    v = rng.randint(-4, 4)
    if kind == "int":
        return v
    if kind == "frac":
        return F(v, rng.randint(1, 5))
    return rng.uniform(-3.0, 3.0) if v else 0.0


def _form(rng, degree, kind, density=0.6):
    return KForm(degree, {idx: _scalar(rng, kind) for idx in BASIS[degree]
                          if rng.random() < density})


def _operator(rng, kind):
    """A random operator (Jacobi broken) or a model algebra's (Jacobi holds)."""
    if rng.random() < 0.5:
        return CEOperator(tuple(_form(rng, 2, kind, 0.3) for _ in range(DIM)))
    while True:
        x = [_scalar(rng, kind) for _ in range(2)]
        y = [_scalar(rng, kind) for _ in range(3)]
        if any(x) and any(y):
            return structure_constants(ModelPoint.make(x, y))


def _assert_matches(new, ref, scale, same_types):
    """Exact coefficients equal, float ones within 1e-14 of scale; with
    same_types also the same Python type wherever both are nonzero."""
    assert new.degree == ref.degree
    for key in set(new.coeffs) | set(ref.coeffs):
        x, y = new.coeffs.get(key, 0), ref.coeffs.get(key, 0)
        if isinstance(x, float) or isinstance(y, float):
            assert abs(x - y) <= 1e-14 * scale, (key, x, y)
        else:
            assert x == y, (key, x, y)
        if same_types and key in new.coeffs and key in ref.coeffs:
            assert type(x) is type(y), (key, x, y)


def _uniform(*coefficient_lists):
    # With one scalar type per input every term of a coefficient's sum has
    # the same type, so the result type is fixed.  With mixed types the
    # loop gives a coefficient the type of the terms added after its
    # running sum last cancelled to zero (KForm addition drops a zero sum
    # and the next term starts it afresh), which depends on the order.
    return all(len({type(v) for v in vals}) <= 1 for vals in coefficient_lists)


@pytest.mark.parametrize("d_kind", KINDS)
@pytest.mark.parametrize("a_kind", KINDS)
def test_apply_d_matches_loop_reference(d_kind, a_kind):
    rng = random.Random(f"apply_d {d_kind} {a_kind}")
    for _ in range(12):
        d = _operator(rng, d_kind)
        d_max = max((float(im.max_abs()) for im in d.images), default=0.0)
        for degree in range(DIM + 1):
            a = _form(rng, degree, a_kind)
            scale = max(1.0, d_max) * max(1.0, float(a.max_abs()))
            same_types = _uniform([v for im in d.images for v in im.coeffs.values()],
                                  a.coeffs.values())
            _assert_matches(apply_d(d, a), ref_apply_d(d, a), scale, same_types)


@pytest.mark.parametrize("m_kind", KINDS)
@pytest.mark.parametrize("a_kind", KINDS)
def test_pullback_matches_loop_reference(m_kind, a_kind):
    rng = random.Random(f"pullback {m_kind} {a_kind}")
    for degree in range(DIM + 1):
        # half the entries zero, which keeps the loop's expansion small
        m = [[_scalar(rng, m_kind) if rng.random() < 0.5 else 0 for _ in range(DIM)]
             for _ in range(DIM)]
        a = _form(rng, degree, a_kind)
        m_max = max(1.0, max(abs(float(v)) for row in m for v in row))
        scale = m_max ** degree * max(1.0, float(a.max_abs()))
        same_types = _uniform([v for row in m for v in row if v != 0], a.coeffs.values())
        _assert_matches(minors_pullback(m, a), ref_pullback(m, a), scale, same_types)


def test_d_matrix_dtype_follows_the_images():
    exact = structure_constants(ModelPoint.make([1, 2], [1, 0, -1]))
    assert exact.d_matrix(2).dtype == object
    assert exact.d_matrix(2) is exact.d_matrix(2)  # built once per operator
    assert exact.to_float().d_matrix(2).dtype == float
    dd = apply_d(exact, SIGMA)
    assert not dd.is_zero() and all(type(v) is F for v in dd.coeffs.values())
    d4 = apply_d(exact, KForm.basis(4))
    assert d4 == exact.d1(4) and all(type(v) is int for v in d4.coeffs.values())
    for got in (apply_d(exact.to_float(), SIGMA), apply_d(exact, SIGMA.to_float())):
        assert all(type(v) is float for v in got.coeffs.values())
        assert (got - dd.to_float()).max_abs() == 0


@pytest.mark.parametrize("kind", ["int", "frac"])
def test_exact_apply_d_matches_the_loop_with_its_types(kind):
    rng = random.Random(f"exact apply_d {kind}")
    want = int if kind == "int" else F
    for _ in range(12):
        d = CEOperator(tuple(_form(rng, 2, kind, 0.3) for _ in range(DIM)))
        for degree in range(DIM + 1):
            a = _form(rng, degree, kind)
            got = apply_d(d, a)
            assert got == ref_apply_d(d, a)
            assert all(type(v) is want for v in got.coeffs.values())
            # an exact operator on a float form
            a = a.to_float()
            got = apply_d(d, a)
            scale = max(1.0, max(float(im.max_abs()) for im in d.images)) * max(1.0, a.max_abs())
            _assert_matches(got, ref_apply_d(d, a), scale, same_types=True)
            assert all(type(v) is float for v in got.coeffs.values())


def test_exact_apply_d_on_a_polynomial_ring_matches_the_loop():
    sp = pytest.importorskip("sympy")
    _, *gens = sp.ring("x1 x2 y1 y2 y3", sp.QQ)
    x1, x2, y1, y2, y3 = gens
    d = structure_constants(ModelPoint.make([x1, x2], [y1, y2, y3]))
    rng = random.Random("ring apply_d")
    for degree in range(DIM + 1):
        a = KForm(degree, {idx: rng.randint(-3, 3) * rng.choice(gens) for idx in BASIS[degree]})
        got = apply_d(d, a)
        assert got == ref_apply_d(d, a)
        assert all(type(v) is type(x1) for v in got.coeffs.values())


def test_exact_apply_d_and_d_squared_residual_use_no_numpy(monkeypatch):
    # the index tables of d_k are built with numpy once per degree
    warm = structure_constants(ModelPoint.make([1, 0], [1, 0, -1]))
    for degree in range(DIM):
        apply_d(warm, KForm(degree, {BASIS[degree][0]: 1}))

    class NoNumpy:
        def __getattr__(self, name):
            raise AssertionError(f"numpy.{name} used")

    monkeypatch.setattr(exterior, "np", NoNumpy())
    t = TorsionData(BinaryForm(3, [F(1), F(2), F(-3), F(5)]), BinaryForm(1, [F(1), F(2)]))
    d = kappa(t)
    assert d_squared_residual(d) != 0
    for degree in range(DIM + 1):
        apply_d(d, KForm(degree, {idx: F(n + 1, 3) for n, idx in enumerate(BASIS[degree])}))


def test_d_squared_residual_of_fraction_operators_matches_the_loop():
    rng = random.Random("d2 frac")
    for _ in range(100):
        # all coefficients Fractions: the value and the type of the loop
        if rng.random() < 0.5:
            d = CEOperator(tuple(_form(rng, 2, "frac", 0.3) for _ in range(DIM)))
        else:
            point = structure_constants(verify._random_point_exact(rng))
            d = CEOperator(tuple(KForm(2, {k: F(v) for k, v in im.coeffs.items()})
                                 for im in point.images))
        res, ref = d_squared_residual(d), ref_d_squared_residual(d)
        assert res == ref and type(res) is type(ref)
    # the perturbed jacobi suite inputs: int images and one Fraction
    rng = random.Random(0)
    for _ in range(1000):
        d = structure_constants(verify._random_point_exact(rng))
        imgs = list(d.images)
        imgs[0] = imgs[0] + KForm(2, {(3, 5): F(1, 7)})
        d = CEOperator(tuple(imgs))
        res, ref = d_squared_residual(d), ref_d_squared_residual(d)
        assert res == ref and type(res) is type(ref)


def test_d_squared_residual_matches_loop_on_jacobi_suite_inputs():
    # the jacobi suite's draws at its default seed: 1000 variety points,
    # then 1000 rank-two torsion data
    rng = random.Random(0)
    for _ in range(1000):
        d = structure_constants(verify._random_point_exact(rng))
        assert d_squared_residual(d) == ref_d_squared_residual(d) == 0
    tried = 0
    while tried < 1000:
        lam = BinaryForm(3, [F(rng.randint(-6, 6)) for _ in range(4)])
        mu = BinaryForm(1, [F(rng.randint(-6, 6)) for _ in range(2)])
        t = TorsionData(lam, mu)
        if membership_rank(t) != 2:
            continue
        tried += 1
        d = kappa(t)
        res = d_squared_residual(d)
        assert res == ref_d_squared_residual(d) and res != 0
        # the loop's max has the type of whichever coefficient attains it
        # (an int in 16 of these with a Fraction image); the scaled
        # residual is a Fraction whenever an image coefficient is one
        fractions = any(type(c) is F for im in d.images for c in im.coeffs.values())
        assert type(res) is (F if fractions else int)


def test_d_squared_residual_on_plain_sympy_symbols():
    sp = pytest.importorskip("sympy")
    # apply_d expands its symbolic sums, so the identically-zero d^2
    # coefficients of plain expressions drop out as 0
    x1, x2, y1, y2, y3 = sp.symbols("x1 x2 y1 y2 y3")
    d = structure_constants(ModelPoint.make([x1, x2], [y1, y2, y3]))
    assert d_squared_residual(d) == 0
    # negative control: a perturbed bracket leaves a nonzero polynomial
    imgs = list(d.images)
    imgs[0] = imgs[0] + KForm(2, {(3, 5): x1})
    bad = CEOperator(tuple(imgs))
    assert any(not apply_d(bad, bad.d1(i)).is_zero() for i in range(1, DIM + 1))


def test_symbolic_d_squared_residual_vanishes():
    sp = pytest.importorskip("sympy")
    # elements of a polynomial ring stay expanded, so the zero test and
    # the max inside d_squared_residual decide on polynomials
    _, x1, x2, y1, y2, y3 = sp.ring("x1 x2 y1 y2 y3", sp.QQ)
    d = structure_constants(ModelPoint.make([x1, x2], [y1, y2, y3]))
    assert d.d_matrix(2).dtype == object
    assert d_squared_residual(d) == 0
    # negative control: a perturbed bracket breaks Jacobi as a polynomial identity
    imgs = list(d.images)
    imgs[0] = imgs[0] + KForm(2, {(3, 5): x1})
    bad = CEOperator(tuple(imgs))
    assert any(not apply_d(bad, bad.d1(i)).is_zero() for i in range(1, DIM + 1))


# ---------------------------------------------------------------------------
# the Jacobi guard of a kappa operator: three 2x2 minors of N
# ---------------------------------------------------------------------------

def _table_images(table, blocks):
    """The six images kappa fills from a table of (key, block index, sign)."""
    return tuple(KForm(2, {key: sgn * blocks[i] for key, i, sgn in row}) for row in table)


def _d_squared_entries(images):
    d = CEOperator(images)
    return [v for i in range(1, DIM + 1) for v in apply_d(d, d.d1(i)).coeffs.values()]


def test_d_squared_of_kappa_is_the_minors_of_n_symbolically():
    sp = pytest.importorskip("sympy")
    blocks = sp.symbols("a b c q p r")
    minors = [sp.expand(m) for m in _kappa_minors(blocks)]
    entries = _d_squared_entries(_table_images(_KAPPA_TABLE, blocks))
    assert len(entries) == 24
    hit = set()
    for v in entries:
        (k,) = [k for k, m in enumerate(minors) if sp.expand(v - m) == 0 or sp.expand(v + m) == 0]
        hit.add(k)
    # every minor appears, so d^2 = 0 exactly when all three vanish
    assert hit == {0, 1, 2}

    def is_minor_table(table):
        entries = _d_squared_entries(_table_images(table, blocks))
        return len(entries) == 24 and all(
            any(sp.expand(v - m) == 0 or sp.expand(v + m) == 0 for m in minors) for v in entries)

    # negative controls: one entry of the table with its sign moved, or
    # with another block index
    def mutant(row, entry, sign=None, index=None):
        table = [list(r) for r in _KAPPA_TABLE]
        key, i, sgn = table[row][entry]
        table[row][entry] = (key, i if index is None else index, sgn if sign is None else sign)
        return table

    assert is_minor_table(_KAPPA_TABLE)
    assert not is_minor_table(mutant(0, 0, sign=-1))
    assert not is_minor_table(mutant(3, 3, sign=1))
    assert not is_minor_table(mutant(1, 0, index=0))
    assert not is_minor_table(mutant(4, 1, index=5))


def _off_variety_draws(n=200):
    """jacobi's rank-two torsion data at its default seed, as the suite draws them."""
    rng = random.Random(0)
    for _ in range(1000):
        verify._random_point_exact(rng)
    out = []
    while len(out) < n:
        t = TorsionData(BinaryForm(3, [rng.randint(-6, 6) for _ in range(4)]),
                        BinaryForm(1, [rng.randint(-6, 6) for _ in range(2)]))
        if membership_rank(t) == 2:
            out.append(t)
    return out


def test_kappa_operators_carry_their_blocks_only_through_to_float():
    rng = random.Random(31)
    for t in _off_variety_draws(20):
        d = kappa(t)
        assert d._blocks == torsion_blocks(t)
        assert d.to_float()._blocks == tuple(float(v) for v in torsion_blocks(t))
        # the blocks are no part of the operator's value
        plain = CEOperator(d.images)
        assert plain._blocks is None and plain == d and hash(plain) == hash(d)
        assert CEOperator.from_json(d.to_json())._blocks is None
    d = structure_constants(verify._random_point_exact(rng))
    imgs = list(d.images)
    imgs[0] = imgs[0] + KForm(2, {(3, 5): F(1, 7)})   # the perturbed jacobi operator
    assert d._blocks is not None and CEOperator(tuple(imgs))._blocks is None


def test_killing_and_curvature_refuse_kappa_off_the_variety():
    for t in _off_variety_draws():
        for d in (kappa(t), kappa(t).to_float()):
            with pytest.raises(ValueError, match="not a Lie algebra"):
                killing_form(d)
            with pytest.raises(ValueError, match="not a Lie algebra"):
                curvature.levi_civita_oracle(d)


def test_killing_and_curvature_of_kappa_make_no_d_squared(monkeypatch):
    calls = []
    for name in ("apply_d", "d_squared_residual"):
        f = getattr(exterior, name)
        monkeypatch.setattr(exterior, name, lambda *a, f=f: calls.append(1) or f(*a))
    rng = random.Random(1)
    for _ in range(20):
        d = structure_constants(verify._random_point_exact(rng))
        killing_form(d)
        curvature.levi_civita_oracle(d)
        curvature.levi_civita_oracle(d.to_float())
    assert calls == []
    # any operator without blocks keeps the generic d^2
    killing_form(CEOperator(d.images))
    assert len(calls) == 1 + DIM


def ref_guard_passes(d) -> bool:
    """require_lie_algebra as it was before the minors: generic d^2 against
    an absolute 1e-9 for float coefficients."""
    residual = d_squared_residual(d)
    exact = is_exact(v for im in d.images for v in im.coeffs.values())
    return not ((exact and residual != 0) or float(residual) > 1e-9)


def _guard_passes(d) -> bool:
    try:
        require_lie_algebra(d)
    except ValueError:
        return False
    return True


def test_guard_decides_as_the_generic_route_on_the_curvature_scan_points():
    # the 20000 float points of the curvature-scan benchmark at seed 1, as
    # `so3g2 curvature` builds their operators
    rng = random.Random(1)
    worst_generic = worst_minors = 0.0
    for _ in range(20000):
        d = structure_constants(random_float_point(rng)).to_float()
        generic = d_squared_residual(d)
        assert _guard_passes(d) == (generic <= 1e-9) is True
        worst_generic = max(worst_generic, generic)
        worst_minors = max(worst_minors, max(map(abs, _kappa_minors(d._blocks))))
    assert 0 < worst_generic < 1e-13 and 0 < worst_minors < 1e-13


def test_guard_decides_as_the_generic_route_at_scale_at_most_one():
    rng = random.Random(32)
    refused = 0
    for _ in range(500):
        t = TorsionData(BinaryForm(3, [rng.uniform(-0.5, 0.5) for _ in range(4)]),
                        BinaryForm(1, [rng.uniform(-0.5, 0.5) for _ in range(2)]))
        on = structure_constants(ModelPoint.make([rng.uniform(-0.5, 0.5) for _ in range(2)],
                                                 [rng.uniform(-0.5, 0.5) for _ in range(3)]))
        for d in (kappa(t), on):
            assert max(map(abs, d._blocks)) <= 1
            assert _guard_passes(d) == ref_guard_passes(d)
            refused += not _guard_passes(d)
    assert refused == 500


@pytest.mark.parametrize("scale", [100.0, 300.0, 1e8])
def test_float_guard_is_scale_invariant(scale):
    # points of the variety at coordinate scale `scale`: d^2 leaves
    # roundoff of order scale^4 * 1e-16, which the absolute 1e-9 refused
    # (148, 197 and 200 of these 200 points)
    rng = random.Random(33)
    ref_refused = 0
    for _ in range(200):
        m = random_float_point(rng, span=scale)
        d = structure_constants(m)
        assert _guard_passes(d) and _guard_passes(CEOperator(d.images))
        ref_refused += not ref_guard_passes(d)
    assert ref_refused > 0


def test_float_guard_refuses_non_lie_operators_at_any_scale():
    z = KForm.zero(2)
    bad = CEOperator((KForm.basis(2, 4), KForm.basis(1, 3), z, z, z, z))
    for scale in (1.0, 1e3, 1e200):
        with pytest.raises(ValueError, match="not a Lie algebra"):
            require_lie_algebra(CEOperator(tuple(scale * im for im in bad.images)))
    t = _off_variety_draws(1)[0]
    for scale in (1e3, 1e200):
        with pytest.raises(ValueError, match="not a Lie algebra"):
            require_lie_algebra(kappa(TorsionData(scale * t.lam.to_float(), scale * t.mu.to_float())))
