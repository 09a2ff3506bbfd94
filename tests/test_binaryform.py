import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from so3g2.binaryform import (
    BinaryForm,
    GL2,
    act,
    cubic_covariant,
    discriminant,
    hessian,
    q_invert,
    q_map,
    resultant,
    sigma3_all,
    sigma3_element,
    split_b1_b2,
)

U1 = BinaryForm(1, [F(1), F(0)])
U2 = BinaryForm(1, [F(0), F(1)])


def rand_cubic(rng, span=2.0):
    return BinaryForm(3, [rng.uniform(-span, span) for _ in range(4)])


def rand_gl2(rng, span=2.0):
    while True:
        g = GL2(*[rng.uniform(-span, span) for _ in range(4)])
        if abs(float(g.det())) > 0.1:
            return g


def test_power_is_repeated_product():
    f = BinaryForm(1, [F(2), F(-3)])
    assert f ** 0 == BinaryForm(0, [1])
    assert f ** 3 == f * f * f
    assert (U1 + U2) ** 2 == BinaryForm(2, [1, 2, 1])
    with pytest.raises(ValueError):
        f ** -1


def test_act_identity():
    f = BinaryForm(3, [F(1), F(2), F(3), F(4)])
    assert act(GL2.identity(), f) == f


def test_act_diagonal_weights():
    # the degree-3 action of diag(x, w) scales the ends by w^3 and x^3
    f = BinaryForm(3, [F(1), F(2), F(3), F(4)])
    g = GL2.diag(F(2), F(5))
    out = act(g, f)
    assert out.coeffs[0] == 1 * 5 ** 3
    assert out.coeffs[3] == 4 * 2 ** 3
    assert out.coeffs[1] == 2 * 2 * 5 ** 2
    assert out.coeffs[2] == 3 * 4 * 5


def test_triality_matrix_order_three_under_act():
    ell = GL2(F(-1, 2), F(1, 2), F(-3, 2), F(-1, 2))
    f = BinaryForm(3, [F(1), F(-2), F(0), F(7)])
    out = act(ell, act(ell, act(ell, f)))
    assert out == f


def test_act_is_group_action():
    rng = random.Random(11)
    f = rand_cubic(rng)
    g, h = rand_gl2(rng), rand_gl2(rng)
    lhs = act(h, act(g, f))
    rhs = act(h @ g, f)
    assert max(abs(a - b) for a, b in zip(lhs.coeffs, rhs.coeffs)) < 1e-12


def test_discriminant_quadratic():
    assert discriminant(BinaryForm(2, [F(1), F(0), F(-1)])) == 4


def test_discriminant_cubic_lines():
    # along the double-root direction: Delta(lam u1^3 + s u1 u2^2) = -4 lam s^3
    lam, s = F(3), F(2)
    q = BinaryForm(3, [lam, F(0), s, F(0)])
    assert discriminant(q) == -4 * lam * s ** 3
    # along the one-real-root direction: Delta = -4 s^3 (lam + s)
    q = BinaryForm(3, [lam + s, F(0), s, F(0)])
    assert discriminant(q) == -4 * s ** 3 * (lam + s)


def test_resultant_examples():
    assert resultant(U1, BinaryForm(2, [F(1), F(0), F(-1)])) == -1
    assert resultant(U1, BinaryForm(2, [F(0), F(1), F(0)])) == 0
    assert resultant(U2, BinaryForm(2, [F(1), F(0), F(0)])) == 1


def test_resultant_vanishes_iff_common_root():
    rng = random.Random(12)
    for _ in range(50):
        a, b = F(rng.randint(-4, 4)), F(rng.randint(-4, 4))
        if a == 0 and b == 0:
            continue
        x = BinaryForm(1, [a, b])
        other = BinaryForm(1, [F(rng.randint(-4, 4)), F(rng.randint(-4, 4))])
        y = x * other
        assert resultant(x, y) == 0


def test_split_b1_b2_linear_part_on_ints_and_floats():
    rng = random.Random(34)
    for _ in range(200):
        x = [rng.randint(-9, 9) for _ in range(2)]
        y = [rng.randint(-9, 9) for _ in range(3)]
        _, lin = split_b1_b2(BinaryForm(1, x), BinaryForm(2, y))
        ref = [F(2, 3) * (2 * x[1] * y[0] - x[0] * y[1]), F(2, 3) * (x[1] * y[1] - 2 * x[0] * y[2])]
        # an int where 3 divides, else the Fraction
        assert [(type(v), v) for v in lin.coeffs] == [
            (int, v.numerator) if v.denominator == 1 else (F, v) for v in ref]
        xf, yf = [v / 7 for v in x], [v / 3 for v in y]
        _, lin = split_b1_b2(BinaryForm(1, xf), BinaryForm(2, yf))
        assert [repr(v) for v in lin.coeffs] == [
            repr(F(2, 3) * (2 * xf[1] * yf[0] - xf[0] * yf[1])),
            repr(F(2, 3) * (xf[1] * yf[1] - 2 * xf[0] * yf[2]))]


def test_split_b1_b2_examples():
    cubic, lin = split_b1_b2(U1, BinaryForm(2, [F(0), F(1), F(0)]))
    assert cubic == BinaryForm(3, [F(0), F(1), F(0), F(0)])
    assert lin == BinaryForm(1, [F(-2, 3), F(0)])
    cubic, lin = split_b1_b2(U1, BinaryForm(2, [F(1), F(0), F(0)]))
    assert cubic == BinaryForm(3, [F(1), F(0), F(0), F(0)])
    assert lin.is_zero()
    cubic, lin = split_b1_b2(U2, BinaryForm(2, [F(0), F(0), F(1)]))
    assert cubic == BinaryForm(3, [F(0), F(0), F(0), F(1)])
    assert lin.is_zero()


def test_split_cubic_is_polynomial_product():
    rng = random.Random(13)
    for _ in range(30):
        x = BinaryForm(1, [F(rng.randint(-4, 4)) for _ in range(2)])
        y = BinaryForm(2, [F(rng.randint(-4, 4)) for _ in range(3)])
        cubic, _ = split_b1_b2(x, y)
        assert cubic == x * y


def test_q_map_identity():
    q = q_map(GL2.identity())
    assert q == BinaryForm(3, [F(1, 3), F(0), F(-1), F(0)])


def test_q_map_symmetric_family():
    # diag((3(s+lam))^(1/3), (3(s+lam))^(-1/6) sqrt(s)) maps to
    # (s+lam) u1^3 - s u1 u2^2
    lam, s = 0.7, 1.3
    x = (3 * (s + lam)) ** (1 / 3)
    w = (3 * (s + lam)) ** (-1 / 6) * math.sqrt(s)
    q = q_map(GL2(x, 0.0, 0.0, w))
    expect = [s + lam, 0.0, -s, 0.0]
    assert max(abs(float(a) - b) for a, b in zip(q.coeffs, expect)) < 1e-12


def test_q_map_row_proportional_sqrt3_vanishes():
    rng = random.Random(14)
    for _ in range(10):
        x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
        h = 1 / math.sqrt(3)
        q = q_map(GL2(x, y, h * x, h * y))
        assert q.norm() < 1e-12


def test_q_map_right_equivariance():
    rng = random.Random(15)
    g, h = rand_gl2(rng), rand_gl2(rng)
    lhs = q_map(g @ h)
    rhs = q_map(g).substitute(h.x, h.y, h.z, h.w)
    assert max(abs(a - b) for a, b in zip(lhs.coeffs, rhs.coeffs)) < 1e-10


def test_q_invert_contains_identity():
    q0 = BinaryForm(3, [F(1, 3), F(0), F(-1), F(0)])
    pre = q_invert(q0)
    best = min(
        abs(g.x - 1) + abs(g.y) + abs(g.z) + abs(g.w - 1) for g in pre
    )
    assert best < 1e-10


def test_q_invert_round_trip():
    rng = random.Random(16)
    count = 0
    while count < 25:
        q = rand_cubic(rng)
        if float(discriminant(q)) <= 0.01:
            continue
        count += 1
        for g in q_invert(q):
            back = q_map(g)
            assert max(abs(float(a) - float(b))
                       for a, b in zip(back.coeffs, q.coeffs)) < 1e-10


def test_q_invert_rejects_nonpositive_discriminant():
    with pytest.raises(ValueError):
        q_invert(BinaryForm(3, [1.0, 0.0, 1.0, 0.0]))


def test_q_invert_preimages_left_related():
    # the three preimages all have det > 0 and are the first one turned
    # through +-2 pi/3, the even elements (1,2,0) and (2,0,1) of sigma3
    rng = random.Random(17)
    turns = [sigma3_element((1, 2, 0)), sigma3_element((2, 0, 1))]
    for _ in range(20):
        pre = q_invert(q_map(rand_gl2(rng)))
        assert len(pre) == 3
        assert all(float(g.det()) > 0 for g in pre)
        matches = []
        for g in pre[1:]:
            errs = [max(abs(a - b) for a, b in zip((g.x, g.y, g.z, g.w), (kg.x, kg.y, kg.z, kg.w)))
                    for kg in (k @ pre[0] for k in turns)]
            assert min(errs) < 1e-9
            matches.append(errs.index(min(errs)))
        assert sorted(matches) == [0, 1]


def test_sigma3_elements():
    assert sigma3_element((0, 1, 2)) == GL2(1.0, 0.0, 0.0, 1.0)
    t23 = sigma3_element((0, 2, 1))
    assert (t23.x, t23.y, t23.z, t23.w) == (1.0, 0.0, 0.0, -1.0)
    prod = sigma3_element((1, 0, 2)) @ sigma3_element((0, 2, 1))
    cubed = prod @ prod @ prod
    assert np.allclose(cubed.to_array(), np.eye(2), atol=1e-14)


def test_sigma3_homomorphism():
    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]

    def compose(p, q):
        return tuple(p[q[i]] for i in range(3))

    for p1 in perms:
        for p2 in perms:
            lhs = sigma3_element(p1).to_array() @ sigma3_element(p2).to_array()
            rhs = sigma3_element(compose(p1, p2)).to_array()
            assert np.allclose(lhs, rhs, atol=1e-13)


def test_discriminant_covariance():
    rng = random.Random(18)
    for _ in range(40):
        g = rand_gl2(rng)
        q = rand_cubic(rng)
        lhs = float(discriminant(act(g, q)))
        rhs = float(g.det()) ** 6 * float(discriminant(q))
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


def test_discriminant_sign_vs_real_root_count():
    # companion-matrix eigenvalues as the independent root counter
    rng = random.Random(19)
    checked = 0
    while checked < 1000:
        q = rand_cubic(rng)
        c = [float(v) for v in q.coeffs]
        if abs(c[0]) < 1e-3:
            continue
        disc = float(discriminant(q))
        if abs(disc) < 1e-6:
            continue
        checked += 1
        roots = np.roots(c)
        n_real = sum(1 for r in roots if abs(r.imag) < 1e-7 * (1 + abs(r)))
        assert (disc > 0) == (n_real == 3)
        assert (disc < 0) == (n_real == 1)


def test_json_round_trip():
    f = BinaryForm(3, [F(1, 3), F(0), F(-1), F(2)])
    assert BinaryForm.from_json(f.to_json()) == f
    g = GL2(F(1, 2), F(0), F(3), F(-2))
    assert GL2.from_json(g.to_json()) == g


def test_symbolic_clock_identity():
    # criterion 7: Delta(q(g)) = (4/3) det(g)^6 as a polynomial identity,
    # which is the clock (det g)^6 = (3/4) Delta along the flow
    sp = pytest.importorskip("sympy")
    a, b, c, d = sp.symbols("a b c d")
    q = q_map(GL2(a, b, c, d))
    want = sp.Rational(4, 3) * (a * d - b * c) ** 6
    assert sp.expand(discriminant(q) - want) == 0
    # negative control: one perturbed coefficient breaks the identity
    bad = BinaryForm(3, [q.coeffs[0], q.coeffs[1] + a * b ** 2, q.coeffs[2], q.coeffs[3]])
    assert sp.expand(discriminant(bad) - want) != 0


def test_symbolic_cubic_of_a_frame_is_a_cube():
    # with zeta = f1 + i f2 for the rows of g: hessian(q(g)) = -det^2 (f1^2 + f2^2)
    # and cubic_covariant(q(g)) = -2 det^3 Im(zeta^3), while q(g) = Re(zeta^3)/3;
    # so 3(q + i qhat) = zeta^3 with qhat = -cubic_covariant / (6 det^3)
    sp = pytest.importorskip("sympy")
    x, y, z, w = sp.symbols("x y z w", real=True)
    q = q_map(GL2(x, y, z, w))
    f1, f2 = BinaryForm(1, [x, y]), BinaryForm(1, [z, w])
    zeta = BinaryForm(1, [x + sp.I * z, y + sp.I * w])
    cube = [sp.expand(c) for c in (zeta * zeta * zeta).coeffs]
    det = x * w - y * z
    want_h = [-det ** 2 * c for c in (f1 * f1 + f2 * f2).coeffs]
    want_t = [-2 * det ** 3 * sp.im(c) for c in cube]

    def same(lhs, rhs):
        return all(sp.expand(a - b) == 0 for a, b in zip(lhs, rhs))

    assert same(q.coeffs, [sp.re(c) / 3 for c in cube])
    assert same(hessian(q).coeffs, want_h)
    assert same(cubic_covariant(q).coeffs, want_t)
    # negative control: one perturbed coefficient breaks both identities
    bad = BinaryForm(3, [q.coeffs[0], q.coeffs[1] + x * y ** 2, q.coeffs[2], q.coeffs[3]])
    assert not same(hessian(bad).coeffs, want_h)
    assert not same(cubic_covariant(bad).coeffs, want_t)
