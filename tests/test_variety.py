import math
import random
import warnings
from fractions import Fraction as F

import pytest

from conftest import random_exact_point, random_float_point
from so3g2 import verify
from so3g2._exact import mat_det, mat_rank, sym_signature
from so3g2.binaryform import BinaryForm, GL2, discriminant, resultant, split_b1_b2
from so3g2.exterior import CEOperator, KForm, apply_d, d_squared_residual, wedge
from so3g2.flow import flow_torsion_cubic
from so3g2.stableform import GAMMA_HAT, SIGMA, standard_forms
from so3g2.variety import (
    LieAlgebraClass,
    ModelPoint,
    TorsionData,
    act_on_point,
    alternation_matches_kappa,
    bracket_constants,
    center_dim,
    classify,
    derived_algebra_dim,
    is_nilpotent,
    is_totally_skew,
    kappa,
    killing_det,
    killing_form,
    killing_rank,
    killing_signature,
    membership_rank,
    skew_torsion_3form,
    structure_constants,
    su3_components,
    tau_lambda,
    torsion_blocks,
    torsion_of,
)

BI_INVARIANT = ModelPoint.make([F(1), F(0)], [F(1), F(0), F(-1)])


def test_structure_constants_bi_invariant_display():
    d = structure_constants(BI_INVARIANT)
    expect = [
        KForm(2, {(3, 6): F(1), (4, 5): F(1)}),
        KForm(2, {(3, 5): F(1), (4, 6): F(1)}),
        KForm(2, {(1, 6): F(-1), (2, 5): F(-1)}),
        KForm(2, {(1, 5): F(-1), (2, 6): F(-1)}),
        KForm(2, {(1, 4): F(1), (2, 3): F(1)}),
        KForm(2, {(1, 3): F(1), (2, 4): F(1)}),
    ]
    assert [d.d1(i) for i in range(1, 7)] == expect


def test_structure_constants_nilpotent_point():
    # x = u1, y = u1^2: only three nonzero images
    d = structure_constants(ModelPoint.make([F(1), F(0)], [F(1), F(0), F(0)]))
    assert d.d1(2) == KForm(2, {(3, 5): F(1)})
    assert d.d1(4) == KForm(2, {(1, 5): F(-1)})
    assert d.d1(6) == KForm(2, {(1, 3): F(1)})
    assert d.d1(1).is_zero() and d.d1(3).is_zero() and d.d1(5).is_zero()


def test_structure_constants_double_root_point():
    # the sign shorthand of the collapsing algebra, fixed by substitution:
    # (-e36-e45, -e46, e16+e25, e26, -e14-e23, -e24)
    d = structure_constants(ModelPoint.make([F(1), F(0)], [F(0), F(0), F(1)]))
    assert d.d1(1) == KForm(2, {(3, 6): F(-1), (4, 5): F(-1)})
    assert d.d1(2) == KForm(2, {(4, 6): F(-1)})
    assert d.d1(3) == KForm(2, {(1, 6): F(1), (2, 5): F(1)})
    assert d.d1(4) == KForm(2, {(2, 6): F(1)})
    assert d.d1(5) == KForm(2, {(1, 4): F(-1), (2, 3): F(-1)})
    assert d.d1(6) == KForm(2, {(2, 4): F(-1)})
    assert d_squared_residual(d) == 0


def test_jacobi_on_variety(rng):
    for _ in range(100):
        m = random_exact_point(rng)
        assert d_squared_residual(structure_constants(m)) == 0


def test_jacobi_fails_off_variety(rng):
    found = 0
    while found < 100:
        lam = BinaryForm(3, [F(rng.randint(-5, 5)) for _ in range(4)])
        mu = BinaryForm(1, [F(rng.randint(-5, 5)) for _ in range(2)])
        t = TorsionData(lam, mu)
        if membership_rank(t) != 2:
            continue
        found += 1
        assert d_squared_residual(kappa(t)) != 0


def test_torsion_of():
    assert torsion_of(BI_INVARIANT) == BinaryForm(3, [F(1), F(0), F(-1), F(0)])
    assert torsion_of(ModelPoint.make([F(0), F(1)], [F(1), F(0), F(0)])) == \
        BinaryForm(3, [F(0), F(1), F(0), F(0)])
    # two formal products with the same torsion
    m2 = ModelPoint.make([F(1), F(1)], [F(1), F(-1), F(0)])
    assert torsion_of(m2) == torsion_of(BI_INVARIANT)


# -- the torsion read from the coframe: flow_torsion_cubic, the reading of d sigma

SIGMA2 = wedge(SIGMA, SIGMA)
ETA0 = KForm(3, {(1, 3, 5): F(1)})


def complex_holds(d) -> bool:
    """Whether the derivatives of the invariant 3-forms agree with the
    torsion l = flow_torsion_cubic(d) read off d sigma, for an exact d:
    d eta_0 = -(1/2) l4 sigma^2 and d gamma_hat = (1/2)(l3 - l1) sigma^2
    exactly, and the derivatives of the rotated simple 3-forms, whose
    entries carry a float sqrt(3), to 1e-13 of max(1, |d sigma|)."""
    l1, l2, l3, l4 = flow_torsion_cubic(d).coeffs
    if (apply_d(d, ETA0) != F(-1, 2) * l4 * SIGMA2
            or apply_d(d, GAMMA_HAT) != F(1, 2) * (l3 - l1) * SIGMA2):
        return False
    s3 = math.sqrt(3.0)
    u1, u2, u3, u4 = (float(v) for v in (l1, l2, l3, l4))
    eta = standard_forms().eta
    rotated = [(eta[1], (3 * s3 * u1 + 3 * u2 + s3 * u3 + u4) / 16.0),
               (eta[2], -(3 * s3 * u1 - 3 * u2 + s3 * u3 - u4) / 16.0)]
    scale = max(1.0, float(apply_d(d, SIGMA).max_abs()))
    return all((apply_d(d.to_float(), e) - c * SIGMA2.to_float()).max_abs() <= 1e-13 * scale
               for e, c in rotated)


def test_torsion_from_coframe_reads_opposite_sign(rng):
    # the d(sigma)-reading of the model algebras carries the opposite
    # sign to the formal-product torsion (see the decisions ledger)
    for _ in range(100):
        m = random_exact_point(rng)
        lam = flow_torsion_cubic(structure_constants(m))
        assert lam == -1 * torsion_of(m)


def test_torsion_from_coframe_abelian():
    d = CEOperator(tuple(KForm.zero(2) for _ in range(6)))
    assert flow_torsion_cubic(d).is_zero()


def test_torsion_from_coframe_complex_identities():
    # d eta_0 = -(1/2) lam4_read sigma^2 and d gamma_hat = (1/2)(l3 - l1) sigma^2
    m = ModelPoint.make([F(0), F(1)], [F(0), F(0), F(1)])  # torsion u2^3
    d = structure_constants(m)
    lam = flow_torsion_cubic(d)
    assert lam == BinaryForm(3, [F(0), F(0), F(0), F(-1)])
    assert apply_d(d, ETA0) == F(-1, 2) * lam.coeffs[3] * SIGMA2
    assert apply_d(d, GAMMA_HAT).is_zero()


def test_torsion_from_coframe_rejects_non_invariant():
    z = KForm.zero(2)
    # d e^1 = e^34: d sigma = e^234 lies outside the invariant 3-forms
    with pytest.raises(ValueError, match="outside the invariant basis"):
        flow_torsion_cubic(CEOperator((KForm.basis(3, 4), z, z, z, z, z)))
    # d e^1 = e^24, d e^2 = e^13: d sigma = 0 reads l = 0, but d eta_0 = e^2345
    d = CEOperator((KForm.basis(2, 4), KForm.basis(1, 3), z, z, z, z))
    assert flow_torsion_cubic(d).is_zero()
    assert not complex_holds(d)


def test_torsion_from_coframe_float_operator(rng):
    m = ModelPoint.make([1.3, -0.4], [0.2, 1.1, -0.7])
    lam = flow_torsion_cubic(structure_constants(m))
    tor = torsion_of(m)
    assert max(abs(float(a) + float(b))
               for a, b in zip(lam.coeffs, tor.coeffs)) < 1e-12


def test_torsion_from_coframe_checks_whole_complex(rng):
    # every derivative of the invariant 3-forms agrees with the reading of
    # d sigma: exactly for d eta_0 and d gamma_hat, to 1e-13 for the
    # rotated simple 3-forms
    for _ in range(100):
        assert complex_holds(structure_constants(random_exact_point(rng)))
    # negative control: a 2-form added to d e^1 that leaves d(sigma)
    # untouched but breaks the derivative of the simple 3-form
    d = structure_constants(BI_INVARIANT)
    imgs = list(d.images)
    imgs[0] = imgs[0] + KForm(2, {(2, 4): F(1, 3)})
    bad = CEOperator(tuple(imgs))
    assert apply_d(bad, SIGMA) == apply_d(d, SIGMA)  # the pattern is intact
    assert complex_holds(d) and not complex_holds(bad)


def test_membership_rank_cases(rng):
    for _ in range(30):
        m = random_exact_point(rng)
        cubic, lin = split_b1_b2(m.x, m.y)
        assert membership_rank(TorsionData(cubic, lin)) == 1
    t = TorsionData(BinaryForm(3, [F(1), F(0), F(0), F(1)]),
                    BinaryForm(1, [F(0), F(0)]))
    assert membership_rank(t) == 2
    zero = TorsionData(BinaryForm(3, [F(0)] * 4), BinaryForm(1, [F(0)] * 2))
    assert membership_rank(zero) == 0


def test_kappa_displayed_blocks():
    # lam = u2^3: kappa(e1) = -e46
    t = TorsionData(BinaryForm(3, [F(0), F(0), F(0), F(1)]),
                    BinaryForm(1, [F(0), F(0)]))
    k = kappa(t)
    assert k.d1(1) == KForm(2, {(4, 6): F(-1)})
    # lam = 0, mu = u1: kappa(e1) = e35, kappa(e2) = (1/2)(e36 + e45)
    t = TorsionData(BinaryForm(3, [F(0)] * 4), BinaryForm(1, [F(1), F(0)]))
    k = kappa(t)
    assert k.d1(1) == KForm(2, {(3, 5): F(1)})
    assert k.d1(2) == KForm(2, {(3, 6): F(1, 2), (4, 5): F(1, 2)})


def test_kappa_round_trip_with_structure_constants(rng):
    for _ in range(100):
        m = random_exact_point(rng)
        cubic, lin = split_b1_b2(m.x, m.y)
        k = kappa(TorsionData(cubic, lin))
        d = structure_constants(m)
        assert all(k.d1(i) == d.d1(i) for i in range(1, 7))


def ref_kappa(t):
    """kappa as first written: KForm(2, {...}) of sgn * block products."""
    a, b, c, q, p, r = torsion_blocks(t)

    def odd(u, v, sgn):
        return KForm(2, {(u[0], v[0]): sgn * a, (u[0], v[1]): sgn * c,
                         (u[1], v[0]): sgn * c, (u[1], v[1]): sgn * b})

    def even(u, v, sgn):
        return KForm(2, {(u[0], v[0]): sgn * q, (u[0], v[1]): sgn * r,
                         (u[1], v[0]): sgn * r, (u[1], v[1]): sgn * p})

    p12, p34, p56 = (1, 2), (3, 4), (5, 6)
    return (odd(p34, p56, 1), even(p34, p56, 1), odd(p12, p56, -1),
            even(p12, p56, -1), odd(p12, p34, 1), even(p12, p34, 1))


def _kappa_inputs(kind):
    rng = random.Random(29)
    draw = {
        "int": lambda: rng.randint(-6, 6),
        "fraction": lambda: F(rng.randint(-6, 6), rng.randint(1, 6)),
        "float": lambda: rng.choice([0.0, rng.uniform(-2.0, 2.0)]),
    }
    if kind in draw:
        return [TorsionData(BinaryForm(3, [draw[kind]() for _ in range(4)]),
                            BinaryForm(1, [draw[kind]() for _ in range(2)]))
                for _ in range(200)]
    if kind == "sympy":
        sp = pytest.importorskip("sympy")
        l1, l2, l3, l4, m1, m2 = sp.symbols("l1:5 m1:3")
        return [TorsionData(BinaryForm(3, [l1, l2, l3, l4]), BinaryForm(1, [m1, m2])),
                TorsionData(BinaryForm(3, [0, l2, 3 * l2, l4]), BinaryForm(1, [m1, 0]))]
    if kind == "nan":
        return [TorsionData(BinaryForm(3, [math.nan, 0.0, 1.0, -0.0]), BinaryForm(1, [0.0, 2.5]))]
    # the five table representatives, whose blocks are partly 0, as ints and as Fractions
    return [TorsionData(*split_b1_b2(BinaryForm(1, [conv(v) for v in x]),
                                     BinaryForm(2, [conv(v) for v in y])))
            for (x, y), _, _ in verify.TABLE_REPRESENTATIVES for conv in (int, F)]


@pytest.mark.parametrize("kind", ["int", "fraction", "float", "sympy", "nan", "representatives"])
def test_kappa_table_matches_its_pattern(kind):
    # key order, type and value (repr, so NaN compares) of every stored coefficient
    def entries(images):
        return [[(key, type(v), repr(v)) for key, v in im.coeffs.items()] for im in images]

    for t in _kappa_inputs(kind):
        assert entries(kappa(t).images) == entries(ref_kappa(t))


def _int_and_fraction_draws(seed, span, frames, n=200):
    """The first n exact points of a suite's seed as drawn (ints), each with
    its Fraction copy and, when the suite draws frames, the frame after it."""
    rng = random.Random(seed)
    for _ in range(n):
        m = verify._random_point_exact(rng, span)
        g = None
        if frames:
            while True:
                g = GL2(*[rng.randint(-3, 3) for _ in range(4)])
                if g.det() != 0:
                    break
        yield m, ModelPoint.make(map(F, m.x.coeffs), map(F, m.y.coeffs)), g


def _invariants(m):
    d = structure_constants(m)
    b = killing_form(d)
    return ([[(key, type(v), v) for key, v in im.coeffs.items()] for im in d.images],
            d_squared_residual(d), mat_det(b), mat_rank(b), sym_signature(b), classify(m))


# the seed, span and frame draws of the jacobi, killing and classification suites
@pytest.mark.parametrize("seed, span, frames", [(0, 6, False), (1, 4, False), (2, 6, True)])
def test_int_and_fraction_draws_agree(seed, span, frames):
    # the suites draw ints; their Fraction copies must give the same values
    for m, m_frac, g in _int_and_fraction_draws(seed, span, frames):
        assert all(type(v) is int for v in m.x.coeffs + m.y.coeffs)
        assert _invariants(m) == _invariants(m_frac)
        if g is not None:
            g_frac = GL2(*map(F, (g.x, g.y, g.z, g.w)))
            assert classify(act_on_point(g, m)) == classify(act_on_point(g_frac, m_frac))


def test_int_and_fraction_off_variety_draws_agree():
    # jacobi's rank-two torsion data, drawn after its 1000 points on the variety
    rng = random.Random(0)
    for _ in range(1000):
        verify._random_point_exact(rng)
    for _ in range(200):
        lam = [rng.randint(-6, 6) for _ in range(4)]
        mu = [rng.randint(-6, 6) for _ in range(2)]
        t = TorsionData(BinaryForm(3, lam), BinaryForm(1, mu))
        t_frac = TorsionData(BinaryForm(3, [F(v) for v in lam]), BinaryForm(1, [F(v) for v in mu]))
        assert membership_rank(t) == membership_rank(t_frac)
        assert kappa(t) == kappa(t_frac)
        assert d_squared_residual(kappa(t)) == d_squared_residual(kappa(t_frac))


def ref_torsion_blocks(t):
    """torsion_blocks as the package computed it for every input: Fraction
    constants, then integer-valued Fractions as ints."""
    l1, l2, l3, l4 = t.lam.coeffs
    m1, m2 = t.mu.coeffs
    blocks = (-F(1, 3) * l2 + m1, -l4, -F(1, 3) * l3 + F(1, 2) * m2,
              l1, F(1, 3) * l3 + m2, F(1, 3) * l2 + F(1, 2) * m1)
    return tuple(v.numerator if isinstance(v, F) and v.denominator == 1 else v for v in blocks)


def ref_membership_rank(t):
    """membership_rank as the package computed it: a Fraction matrix."""
    l1, l2, l3, l4 = (F(v) for v in t.lam.coeffs)
    m1, m2 = (F(v) for v in t.mu.coeffs)
    return mat_rank([
        [-F(2, 3) * l2 + F(1, 2) * m1, -F(1, 3) * l3 + F(1, 2) * m2, l1],
        [-F(2, 3) * l3 - F(1, 2) * m2, -l4, F(1, 3) * l2 + F(1, 2) * m1],
    ])


def _torsion_inputs(kind):
    if kind == "mixed":
        # a CLI point mixes Fractions and floats
        rng = random.Random(30)
        draw = lambda: rng.choice([F(rng.randint(-6, 6)), F(1, 3), rng.uniform(-2.0, 2.0)])
        return [TorsionData(BinaryForm(3, [draw() for _ in range(4)]),
                            BinaryForm(1, [draw() for _ in range(2)])) for _ in range(200)]
    if kind in ("jacobi", "killing"):
        seed, span = {"jacobi": (0, 6), "killing": (1, 4)}[kind]
        return [TorsionData(*split_b1_b2(m.x, m.y))
                for m, _, _ in _int_and_fraction_draws(seed, span, False)]
    if kind == "off-variety":
        rng = random.Random(0)
        for _ in range(1000):
            verify._random_point_exact(rng)
        return [TorsionData(BinaryForm(3, [rng.randint(-6, 6) for _ in range(4)]),
                            BinaryForm(1, [rng.randint(-6, 6) for _ in range(2)]))
                for _ in range(200)]
    return _kappa_inputs(kind)


def _outcome(f, t):
    try:
        return f(t)
    except (TypeError, ValueError) as exc:
        return type(exc)


@pytest.mark.parametrize("kind", ["int", "fraction", "float", "mixed", "sympy", "nan",
                                  "representatives", "jacobi", "killing", "off-variety"])
def test_torsion_blocks_and_membership_rank_match_the_fraction_reference(kind):
    # value and type (repr, so NaN compares) of every block; the rank, or the error
    for t in _torsion_inputs(kind):
        assert ([(type(v), repr(v)) for v in torsion_blocks(t)]
                == [(type(v), repr(v)) for v in ref_torsion_blocks(t)])
        assert _outcome(membership_rank, t) == _outcome(ref_membership_rank, t)


@pytest.mark.parametrize("kind", ["int", "fraction", "jacobi", "off-variety"])
def test_exact_torsion_blocks_and_membership_rank_make_no_fraction_arithmetic(
        kind, fractions_made):
    inputs = _torsion_inputs(kind)
    del fractions_made[:]
    for t in inputs:
        made = len(fractions_made)
        blocks = torsion_blocks(t)
        assert len(fractions_made) - made == sum(type(v) is F for v in blocks)
        made = len(fractions_made)
        membership_rank(t)
        assert len(fractions_made) == made


def ref_killing_form(d):
    """killing_form as the package computed it: ad maps scanned out of the
    dense bracket_constants table."""
    c = bracket_constants(d)
    ad = [[(k, l, c[k][i][l]) for k in range(6) for l in range(6) if c[k][i][l] != 0]
          for i in range(6)]
    b = [[0] * 6 for _ in range(6)]
    for i in range(6):
        for j in range(i, 6):
            b[i][j] = b[j][i] = sum(v * c[l][j][k] for k, l, v in ad[i])
    return b


def _reversed_keys(d):
    """d with each image's coefficients stored in reverse key order."""
    images = []
    for im in d.images:
        f = KForm.zero(2)
        f.coeffs = dict(reversed(list(im.coeffs.items())))
        images.append(f)
    return CEOperator(tuple(images))


def test_killing_form_matches_the_dense_reference(rng):
    def entries(b):
        return [[(type(v), repr(v)) for v in row] for row in b]

    # float points: bit-identical, also when the image keys are not stored in order
    frng = random.Random("killing floats")
    for n in range(500):
        d = structure_constants(random_float_point(frng))
        if n % 2:
            d = _reversed_keys(d)
        assert entries(killing_form(d)) == entries(ref_killing_form(d))
    # int and Fraction points: equal, with types
    for n in range(200):
        m = random_exact_point(rng)
        if n % 2:
            m = ModelPoint.make([F(v, rng.randint(1, 5)) for v in m.x.coeffs],
                                [F(v, rng.randint(1, 5)) for v in m.y.coeffs])
        d = structure_constants(m)
        assert entries(killing_form(d)) == entries(ref_killing_form(d))
        assert entries(killing_form(_reversed_keys(d))) == entries(ref_killing_form(d))


def test_int_operators_make_no_fraction_arithmetic(fractions_made):
    # integer model points of the jacobi and killing seeds have int images;
    # the only Fractions structure_constants makes are the linear parts of
    # split_b1_b2 that 3 does not divide, one each
    points = [m for seed, span in ((0, 6), (1, 4))
              for m, _, _ in _int_and_fraction_draws(seed, span, False, n=50)]
    thirds = sum(type(v) is F for m in points for v in split_b1_b2(m.x, m.y)[1].coeffs)
    del fractions_made[:]
    ops = [structure_constants(m) for m in points]
    assert 0 < len(fractions_made) == thirds
    assert all(type(v) is int for d in ops for im in d.images for v in im.coeffs.values())
    del fractions_made[:]
    for d in ops:
        d_squared_residual(d)
        killing_form(d)
    assert fractions_made == []


def test_tau_lambda_zero():
    tau = tau_lambda(BinaryForm(3, [F(0)] * 4))
    assert all(tau[i].is_zero() for i in range(1, 7))


def test_tau_lambda_blocks_at_pure_l4():
    tau = tau_lambda(BinaryForm(3, [F(0), F(0), F(0), F(1)]))
    # -l4/2 block on the even-index slots, (l2+l4)/4 block on the odd ones
    assert tau[2] == KForm(2, {(4, 5): F(-1, 2), (3, 6): F(-1, 2)})
    assert tau[1] == KForm(2, {(4, 6): F(1, 4), (3, 5): F(-1, 4)})


def test_tau_lambda_alternation_matches_kappa(rng):
    for _ in range(12):
        lam = BinaryForm(3, [F(rng.randint(-4, 4)) for _ in range(4)])
        assert alternation_matches_kappa(lam)


def test_naturally_reductive_condition(rng):
    # pure skew type exactly when l2 + 3 l4 = 0 = 3 l1 + l3
    for _ in range(20):
        a, b = F(rng.randint(-4, 4)), F(rng.randint(-4, 4))
        lam = BinaryForm(3, [a, -3 * b, -3 * a, b])
        assert is_totally_skew(tau_lambda(lam))
    for _ in range(60):
        lam = BinaryForm(3, [F(rng.randint(-3, 3)) for _ in range(4)])
        cond = (lam.coeffs[1] + 3 * lam.coeffs[3] == 0
                and 3 * lam.coeffs[0] + lam.coeffs[2] == 0)
        assert is_totally_skew(tau_lambda(lam)) == cond


def test_su3_component_form_closes_decomposition(rng):
    # W3 is the residual of the invariant 3-form after the gamma and
    # gamma_hat multiples are removed
    from so3g2.stableform import GAMMA, cubic_to_3form
    for _ in range(10):
        lam = BinaryForm(3, [F(rng.randint(-4, 4)) for _ in range(4)])
        w1p, w1m, w3 = su3_components(lam)
        l1, l2, l3, l4 = lam.coeffs
        residual = (cubic_to_3form(lam)
                    - F(3, 4) * (l1 - l3) * GAMMA
                    - F(3, 4) * (l2 - l4) * GAMMA_HAT)
        assert residual == w3


def test_su3_components():
    w1p, w1m, w3 = su3_components(BinaryForm(3, [F(1), F(0), F(-1), F(0)]))
    assert w1p == 0 and w1m == -1
    w1p, w1m, w3 = su3_components(BinaryForm(3, [F(0)] * 4))
    assert w1p == 0 and w1m == 0 and w3.is_zero()
    # half-flat iff l2 = l4
    w1p, _, _ = su3_components(BinaryForm(3, [F(2), F(5), F(-1), F(5)]))
    assert w1p == 0
    w1p, _, _ = su3_components(BinaryForm(3, [F(2), F(5), F(-1), F(4)]))
    assert w1p != 0


def test_skew_torsion_3form():
    assert skew_torsion_3form(BinaryForm(3, [F(0)] * 4)).is_zero()
    t = skew_torsion_3form(BinaryForm(3, [F(1), F(0), F(-1), F(0)]))
    expect = KForm(3, {
        (2, 3, 5): F(1, 2), (1, 4, 5): F(1, 2), (1, 3, 6): F(1, 2),
        (2, 4, 6): F(1, 2),
    })
    assert t == expect


def test_classify_representatives():
    table = [
        (([1, 0], [1, 0, -1]), LieAlgebraClass.SO3xSO3),
        (([1, 0], [1, 0, 1]), LieAlgebraClass.SO3C),
        (([1, 0], [0, 0, 1]), LieAlgebraClass.SO3semidirectR3),
        (([1, 0], [0, 1, 0]), LieAlgebraClass.SO3directR3),
        (([1, 0], [1, 0, 0]), LieAlgebraClass.Nilpotent),
    ]
    for (x, y), want in table:
        m = ModelPoint.make([F(v) for v in x], [F(v) for v in y])
        assert classify(m) == want


def test_classification_suite_checks_the_invariant_table(monkeypatch):
    # negative control: a nilpotent algebra reported as not nilpotent fails the suite
    assert verify.suite_classification(n_samples=5).passed
    monkeypatch.setattr(verify, "is_nilpotent", lambda d: False)
    res = verify.suite_classification(n_samples=5)
    assert not res.passed and "(0, (0, 0), 3, 3, False)" in res.detail


def test_classify_zero_point_raises():
    with pytest.raises(ValueError):
        classify(ModelPoint.make([F(0), F(0)], [F(1), F(0), F(0)]))


def test_classify_orbit_invariance(rng):
    for _ in range(60):
        m = random_exact_point(rng)
        while True:
            g = GL2(*[F(rng.randint(-3, 3)) for _ in range(4)])
            if g.det() != 0:
                break
        assert classify(m) == classify(act_on_point(g, m))


def test_classify_decides_floats_exactly():
    # Delta = 1e-30 and R = 0 of the rationals the floats represent: no
    # snapping to the nilpotent class, and no warning
    m = ModelPoint.make([1.0, 0.0], [1.0, 1e-15, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert classify(m) == LieAlgebraClass.SO3directR3
        # Delta = -4e-14 < 0, R = 1e-7 != 0
        assert classify(ModelPoint.make([1, 0], [1e-7, 0, 1e-7])) == LieAlgebraClass.SO3C
    rng = random.Random("classify floats")
    for _ in range(200):
        # small-integer floats times powers of two, so the boundary classes occur
        x = [rng.randint(-2, 2) * 2.0 ** rng.randint(-60, 60) for _ in range(2)]
        y = [rng.randint(-2, 2) * 2.0 ** rng.randint(-60, 60) for _ in range(3)]
        if not any(x) or not any(y):
            continue
        exact = ModelPoint.make([F(v) for v in x], [F(v) for v in y])
        assert classify(ModelPoint.make(x, y)) == classify(exact)


def test_killing_identity_examples():
    d = structure_constants(BI_INVARIANT)
    assert killing_det(d) == 4096
    assert killing_rank(d) == 6
    pos, neg = killing_signature(d)
    assert {pos, neg} == {0, 6}
    m_c = ModelPoint.make([F(1), F(0)], [F(1), F(0), F(1)])
    d_c = structure_constants(m_c)
    assert killing_det(d_c) == -4096
    assert killing_signature(d_c) == (3, 3)


def test_killing_identity_random(rng):
    for _ in range(60):
        m = random_exact_point(rng, span=4)
        d = structure_constants(m)
        delta = discriminant(m.y)
        res = resultant(m.x, m.y)
        assert killing_det(d) == (4 * delta * res * res) ** 3
        assert killing_rank(d) in (0, 3, 6)


def test_killing_nilpotent_rank():
    d = structure_constants(ModelPoint.make([F(1), F(0)], [F(1), F(0), F(0)]))
    assert killing_det(d) == 0
    assert killing_rank(d) == 0


def test_killing_rejects_non_lie():
    z = KForm.zero(2)
    bad = CEOperator((KForm.basis(2, 4), KForm.basis(1, 3), z, z, z, z))
    with pytest.raises(ValueError):
        killing_det(bad)


def test_lie_invariants_match_classes():
    # derived dimension, center, nilpotency on the five representatives
    data = [
        (([1, 0], [1, 0, -1]), 6, 0, False),
        (([1, 0], [1, 0, 1]), 6, 0, False),
        (([1, 0], [0, 0, 1]), 6, 0, False),
        (([1, 0], [0, 1, 0]), 3, 3, False),
        (([1, 0], [1, 0, 0]), 3, 3, True),
    ]
    for (x, y), dd, cd, nil in data:
        d = structure_constants(ModelPoint.make([F(v) for v in x], [F(v) for v in y]))
        assert derived_algebra_dim(d) == dd
        assert center_dim(d) == cd
        assert is_nilpotent(d) == nil
