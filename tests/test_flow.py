import itertools
import json
import math
import random
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from so3g2 import verify
from so3g2.binaryform import BinaryForm, GL2, act, discriminant, q_invert, q_map
from so3g2._exact import scale_to_ints
from so3g2.cli import main
from so3g2.flow import (
    CANONICAL_GENERATORS,
    EndpointKind,
    FlowState,
    InvalidEndpoint,
    Line,
    Q0,
    clock_detg,
    contraction_field,
    contraction_plane,
    direct_ode_oracle,
    endpoint_classify,
    flow_torsion_cubic,
    frame_change_torsion,
    hamiltonian,
    integrate_line,
    integrate_time_grid,
    line_cubic,
    line_discriminant_poly,
    lowest_term,
    no_complete_line_witness,
    plane_is_invariant,
    planes_equal,
    time_integral,
    _factor_roots,
    _poly_deriv,
    _poly_eval,
    _poly_real_roots,
    _square_free_split,
    _strip,
)
from so3g2.variety import ModelPoint, structure_constants, torsion_of


def halfflat_cubic(rng, span=1.5):
    l1, l2, l3 = (rng.uniform(-span, span) for _ in range(3))
    return BinaryForm(3, [l1, l2, l3, l2])


def halfflat_defect(p, g):
    """l2 - l4 of the torsion in the g-frame: zero iff that frame is half-flat."""
    lam = frame_change_torsion(p, g).coeffs
    return lam[1] - lam[3]


def hermitian_defect(p, g):
    """l1 - l3 of the torsion in the g-frame: zero, together with the
    half-flat defect, iff that frame is Hermitian."""
    lam = frame_change_torsion(p, g).coeffs
    return lam[0] - lam[2]


def test_halfflat_condition_identity_frame():
    # at the identity the condition reduces to l2 - l4
    p = BinaryForm(3, [2.0, 5.0, -1.0, 5.0])
    assert abs(halfflat_defect(p, GL2.identity())) < 1e-14
    p = BinaryForm(3, [1.0, 0.0, 0.0, 0.0])
    assert abs(halfflat_defect(p, GL2.identity())) < 1e-14
    p = BinaryForm(3, [0.0, 1.0, 0.0, 0.0])
    assert halfflat_defect(p, GL2.identity()) != 0


def test_halfflat_condition_row_proportional():
    rng = random.Random(31)
    h = 1.0 / math.sqrt(3.0)
    for _ in range(10):
        x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
        p = BinaryForm(3, [rng.uniform(-2, 2) for _ in range(4)])
        g = GL2(x, y, h * x, h * y)
        assert abs(halfflat_defect(p, g)) < 1e-12
        g_bad = GL2(x, y, 0.5 * x, 0.5 * y)
        if abs(float(p(y, -x))) > 1e-3:
            assert abs(halfflat_defect(p, g_bad)) > 1e-6


def test_hermitian_condition_examples():
    # l1 = l3 with l2 = l4 = 0 is Hermitian at the identity
    p = BinaryForm(3, [1.5, 0.0, 1.5, 0.0])
    assert abs(hermitian_defect(p, GL2.identity())) < 1e-14
    assert abs(hermitian_defect(BinaryForm(3, [1.0, 0.0, 0.0, 0.0]),
                                GL2.identity()) - 1.0) < 1e-14
    assert hermitian_defect(BinaryForm(3, [0.0] * 4), GL2.identity()) == 0


def test_frame_change_torsion_examples():
    lam = BinaryForm(3, [F(1), F(2), F(3), F(4)])
    assert frame_change_torsion(lam, GL2.identity()) == lam
    g = GL2.diag(F(2), F(3))
    out = frame_change_torsion(lam, g)
    assert out.coeffs == (1 * 27, 2 * 2 * 9, 3 * 4 * 3, 4 * 8)


def test_frame_change_is_substitution_action():
    rng = random.Random(32)
    for _ in range(20):
        lam = BinaryForm(3, [rng.uniform(-2, 2) for _ in range(4)])
        g = GL2(*[rng.uniform(-2, 2) for _ in range(4)])
        a = frame_change_torsion(lam, g)
        b = act(g, lam)
        assert max(abs(u - v) for u, v in zip(a.coeffs, b.coeffs)) < 1e-12


def test_frame_change_composition():
    rng = random.Random(33)
    lam = BinaryForm(3, [rng.uniform(-2, 2) for _ in range(4)])
    g = GL2(*[rng.uniform(-2, 2) for _ in range(4)])
    h = GL2(*[rng.uniform(-2, 2) for _ in range(4)])
    # two successive frame changes compose through the product h g
    lhs = frame_change_torsion(frame_change_torsion(lam, g), h)
    rhs = frame_change_torsion(lam, h @ g)
    assert max(abs(u - v) for u, v in zip(lhs.coeffs, rhs.coeffs)) < 1e-10


def test_clock_identity_along_line():
    p = BinaryForm(3, [1.0, 0.0, -1.0, 0.0])
    for s in np.linspace(0.05, 2.0, 12):
        q = line_cubic(BinaryForm(3, [1.0, 0.0, 0.0, 0.0]), p, s)
        assert abs(clock_detg(float(discriminant(q))) ** 6 - 0.75 * float(discriminant(q))) < 1e-12


def test_time_integral_against_plain_quadrature():
    lam = 1.0
    p = BinaryForm(3, [1.0, 0.0, -1.0, 0.0])
    q_b = BinaryForm(3, [lam, 0.0, 0.0, 0.0])
    for s in (0.25, 1.0, 4.0):
        mine = time_integral(q_b, p, 0.0, s)
        ref, _ = quad(lambda u: (3 * (u + lam)) ** (-1 / 6) * u ** (-0.5),
                      0, s, points=[0], limit=300)
        assert abs(mine - ref) < 1e-10


def test_advance_static_and_clamp():
    # the step of so3g2 flow: Line.boundary clamps it, Line.time clocks it.
    # p = 0: q constant, t advances at rate 1/detg
    q0 = BinaryForm(3, [1.0 / 3.0, 0.0, -1.0, 0.0])
    line = Line(q0, BinaryForm(3, [0.0] * 4))
    assert line.boundary(2.0) is None
    assert line.cubic(2.0) == q0
    assert abs(line.time(0.0, 2.0) - 2.0 / clock_detg(float(discriminant(q0)))) < 1e-10
    # clamping at the discriminant boundary, one unit back where q = u1^3
    p = BinaryForm(3, [1.0, 0.0, -1.0, 0.0])
    line = Line(line_cubic(BinaryForm(3, [1.0, 0, 0, 0]), p, 1.0), p)
    assert abs(line.boundary(-5.0) + 1.0) < 1e-9


def test_case2_time_closed_form():
    # double-root direction: the clock gives s = -t^2 (3 lam)^(1/3) / 4
    for lam in (0.5, 1.0, 2.0):
        p = BinaryForm(3, [0.0, 0.0, 1.0, 0.0])
        q_b = BinaryForm(3, [lam, 0.0, 0.0, 0.0])
        for s in (-0.2, -1.0, -3.0):
            t = time_integral(q_b, p, 0.0, s)
            assert abs(s + 0.25 * t * t * (3 * lam) ** (1.0 / 3.0)) < 1e-9


def test_case3_time_diverges():
    # the symmetric direction has infinite total time on the open side
    lam = 1.0
    p = BinaryForm(3, [1.0, 0.0, -1.0, 0.0])
    q_b = BinaryForm(3, [lam, 0.0, 0.0, 0.0])
    t1 = time_integral(q_b, p, 0.0, 10.0)
    t2 = time_integral(q_b, p, 0.0, 1000.0)
    assert t2 > t1 + 3.0  # grows like s^(1/3), unbounded


def test_oracle_matches_closed_form_line():
    m = ModelPoint.make([1.0, 0.0], [-1.0, 0.0, 1.0])
    d = structure_constants(m)
    p = flow_torsion_cubic(d)
    orc = direct_ode_oracle(d, GL2.identity(), (0.0, 0.5), n_samples=9)
    assert orc.status == "ok"
    for i, t in enumerate(orc.ts):
        s_t = brentq(lambda s: time_integral(Q0.to_float(), p, 0.0, s) - t,
                     -0.05, 2.0, xtol=1e-13)
        q_closed = line_cubic(Q0.to_float(), p, s_t)
        err = max(abs(float(a) - float(b))
                  for a, b in zip(q_closed.coeffs, orc.qs[i].coeffs))
        assert err < 1e-8
        assert abs(orc.cs[i] ** 3 - 0.75 * float(discriminant(orc.qs[i]))) < 1e-10


def test_oracle_requires_halfflat_start():
    m = ModelPoint.make([1.0, 0.0], [0.0, 1.0, 0.0])  # torsion u1^2 u2: l2 != l4
    d = structure_constants(m)
    with pytest.raises(ValueError, match="half-flat"):
        direct_ode_oracle(d, GL2.identity(), (0.0, 0.1))


def test_oracle_constant_for_zero_torsion():
    d = structure_constants(ModelPoint.make([0.0, 0.0], [0.0, 0.0, 0.0]))
    orc = direct_ode_oracle(d, GL2.identity(), (0.0, 0.5), n_samples=5)
    for q in orc.qs:
        assert max(abs(float(a) - float(b))
                   for a, b in zip(q.coeffs, Q0.to_float().coeffs)) < 1e-12


def test_discriminant_monotone_and_hermitian_stationary():
    # p Hermitian at the identity: d Delta / ds vanishes exactly there
    p = BinaryForm(3, [1.0, 0.0, 1.0, 0.0])
    poly = [float(c) for c in line_discriminant_poly(Q0.to_float(), p)]
    dpoly = np.polyder(np.array(poly))
    assert abs(np.polyval(dpoly, 0.0)) < 1e-14
    assert all(np.polyval(dpoly, s) < 0 for s in np.linspace(0.05, 0.5, 9))
    assert all(np.polyval(dpoly, s) > 0 for s in np.linspace(-0.25, -0.05, 9))
    # away from the Hermitian locus the discriminant is strictly monotone
    p2 = BinaryForm(3, [1.0, 0.0, -1.0, 0.0])
    poly2 = np.array([float(c) for c in line_discriminant_poly(Q0.to_float(), p2)])
    vals = np.polyval(np.polyder(poly2), np.linspace(0.0, 1.0, 20))
    assert np.all(vals > 0)


def test_endpoint_admissible_families():
    info = endpoint_classify(BinaryForm(3, [1.0, 0.0, 1.0, 0.0]),
                             BinaryForm(3, [2.0, 0.0, 0.0, 0.0]))
    assert info.kind == EndpointKind.TripleRootDividingP
    assert abs(info.lambda_coefficient - 2.0) < 1e-10
    info = endpoint_classify(BinaryForm(3, [0.0, 0.0, 1.0, 0.0]),
                             BinaryForm(3, [-3.0, 0.0, 0.0, 0.0]))
    assert info.kind == EndpointKind.TripleRootDividingP
    info = endpoint_classify(BinaryForm(3, [1.0, 0.0, -1.0, 0.0]),
                             BinaryForm(3, [1.0, 3.0, 3.0, 1.0]))
    assert info.root is not None
    a, b = (float(v) for v in info.root.coeffs)
    assert abs(a - b) < 1e-9  # proportional to u1 + u2
    info = endpoint_classify(BinaryForm(3, [1.0, 0.0, -1.0, 0.0]),
                             BinaryForm(3, [0.0, 0.0, 0.0, 0.0]))
    assert info.kind == EndpointKind.ZeroCubic
    # a cube below the float range keeps its root; lambda underflows to 0
    info = endpoint_classify(BinaryForm(3, [1, 0, 1, 0]),
                             BinaryForm(3, [F(1, 10 ** 400), 0, 0, 0]))
    assert info.kind == EndpointKind.TripleRootDividingP
    assert info.root.coeffs == (1.0, 0.0) and info.lambda_coefficient == 0.0


def test_endpoint_ruled_out_families():
    with pytest.raises(InvalidEndpoint):
        endpoint_classify(BinaryForm(3, [1.0, 0.0, 0.0, 0.0]),
                          BinaryForm(3, [2.0, 0.0, 0.0, 0.0]))
    with pytest.raises(InvalidEndpoint):
        endpoint_classify(BinaryForm(3, [0.0, 0.0, 1.0, 0.0]),
                          BinaryForm(3, [0.0, 0.0, 0.0, 2.0]))
    with pytest.raises(InvalidEndpoint):
        endpoint_classify(BinaryForm(3, [1.0, 0.0, 1.0, 0.0]),
                          BinaryForm(3, [0.0, 0.0, 0.0, 0.0]))
    with pytest.raises(InvalidEndpoint, match="double root"):
        endpoint_classify(BinaryForm(3, [1.0, 0.0, -1.0, 0.0]),
                          BinaryForm(3, [0.0, 1.0, 0.0, 0.0]))
    with pytest.raises(InvalidEndpoint, match="vanishing"):
        endpoint_classify(BinaryForm(3, [1.0, 0.0, -1.0, 0.0]),
                          BinaryForm(3, [1.0, 0.0, -1.0, 0.0]))


def test_endpoint_nondividing_triple_root_rejected():
    # a triple root not dividing p forces the adjacent discriminant
    # negative: Delta = -108 s^2 + ..., the row (k, sign) = (2, -1)
    with pytest.raises(InvalidEndpoint, match="never has positive"):
        endpoint_classify(BinaryForm(3, [1.0, 0.0, 1.0, 0.0]),
                          BinaryForm(3, [0.0, 0.0, 0.0, 2.0]))


def _table_claims(sp, q, p, coeffs):
    """Whether Delta(q + s p), [c4, ..., c0] from line_discriminant_poly,
    equals coeffs, as polynomials in the symbols p."""
    got = line_discriminant_poly(BinaryForm(3, q), BinaryForm(3, p))
    return all(sp.expand(a - b) == 0 for a, b in zip(got, coeffs))


def test_endpoint_table_at_the_normal_forms():
    """The rows of flow.endpoint_of_term at u1^2 u2, u1^3 and 0 with symbolic p;
    every cubic with a repeated root is real-equivalent to one of them, and
    Delta(g.q) = det(g)^6 Delta(q) keeps (k, sign)."""
    sp = pytest.importorskip("sympy")
    p = list(sp.symbols("p1:5"))
    p1, p2, p3, p4 = p
    s, x = sp.symbols("s x")
    disc_p = discriminant(BinaryForm(3, p))
    # line_discriminant_poly is the discriminant of the dehomogenized cubic
    for q in ([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [1, 2, 0, 3]):
        ref = sp.discriminant(sum((q[i] + s * p[i]) * x ** (3 - i) for i in range(4)), x)
        got = line_discriminant_poly(BinaryForm(3, q), BinaryForm(3, p))
        assert sp.expand(ref - sum(c * s ** (4 - i) for i, c in enumerate(got))) == 0

    # u1^3, f = u1: f | p iff p4 = 0, f^2 | p iff p3 = p4 = 0
    cube = [disc_p, -2 * (27 * p1 * p4 ** 2 - 9 * p2 * p3 * p4 + 2 * p3 ** 3), -27 * p4 ** 2, 0, 0]
    assert _table_claims(sp, [1, 0, 0, 0], p, cube)
    # k >= 3 iff c2 = -27 p4^2 vanishes iff f | p; then c3 = -4 p3^3, so k = 3
    # iff f^2 does not divide p; otherwise k = 2 with c2 < 0
    assert sp.expand(cube[1].subs(p4, 0) + 4 * p3 ** 3) == 0
    assert all(sp.sympify(c).subs({p3: 0, p4: 0}).expand() == 0 for c in cube)
    # u1^2 u2: k = 1 unless p4 = 0, then c2 = p3^2 > 0 (k = 2, sign > 0)
    # unless also p3 = 0, where Delta vanishes on the whole line
    double = [disc_p, 2 * (9 * p1 * p3 * p4 - 6 * p2 ** 2 * p4 + p2 * p3 ** 2),
              p3 ** 2 - 12 * p2 * p4, -4 * p4, 0]
    assert _table_claims(sp, [0, 1, 0, 0], p, double)
    assert sp.expand(double[2].subs(p4, 0) - p3 ** 2) == 0
    assert all(sp.sympify(c).subs({p3: 0, p4: 0}).expand() == 0 for c in double)
    # 0: Delta(s p) = s^4 Delta(p), so k = 4 or Delta vanishes on the line
    assert _table_claims(sp, [0, 0, 0, 0], p, [disc_p, 0, 0, 0, 0])
    # negative control: moving one coefficient of u1^3 breaks its row
    e = sp.Symbol("e", nonzero=True)
    assert not _table_claims(sp, [1, 0, 0, e], p, cube)
    assert sp.expand(line_discriminant_poly(BinaryForm(3, [1, 0, 0, e]),
                                            BinaryForm(3, p))[-1] + 27 * e ** 2) == 0

    # Delta(g.q) = det(g)^6 Delta(q); not with another power of det(g)
    a, b, c, d = sp.symbols("a b c d")
    q = BinaryForm(3, list(sp.symbols("q1:5")))
    moved = discriminant(q.substitute(a, b, c, d))
    assert sp.expand(moved - (a * d - b * c) ** 6 * discriminant(q)) == 0
    assert sp.expand(moved - (a * d - b * c) ** 4 * discriminant(q)) != 0


@pytest.mark.parametrize("q_end, p, term", [
    ((1, 0, 0, 0), (5, 1, 2, 0), (3, -1)),     # u1^3, u1 | p: c3 = -32
    ((1, 0, 0, 0), (5, 1, 0, 0), (None, 0)),   # u1^3, u1^2 | p
    ((1, 0, 0, 0), (0, 0, 0, 1), (2, -1)),     # u1^3, u1 does not divide p: c2 = -27
    ((0, 1, 0, 0), (0, 0, 0, 1), (1, -1)),     # u1^2 u2: c1 = -4
    ((0, 1, 0, 0), (0, 0, 1, 0), (2, 1)),      # c2 = 1
    ((0, 0, 0, 0), (1, 0, -1, 0), (4, 1)),     # 0: c4 = Delta(p) = 4
    ((0, 0, 0, 0), (1, 0, 1, 0), (4, -1)),     # c4 = -4
    ((F(1, 3), 0, -1, 0), (0, 0, 1, 0), (0, 1)),
])
def test_lowest_term_at_the_normal_forms(q_end, p, term):
    assert lowest_term(BinaryForm(3, list(q_end)), BinaryForm(3, list(p))) == term


def _certified(p, s, k):
    """Whether (s, k) from no_complete_line_witness certifies Delta <= 0 on
    the exact line: Delta(s) < 0 in Fractions, or a real root of even
    multiplicity."""
    exact = BinaryForm(3, [F(c) for c in p.coeffs])
    if k == 0:
        return discriminant(line_cubic(Q0, exact, F(s))) < 0
    return k % 2 == 0 and (s, k) in _poly_real_roots(line_discriminant_poly(Q0, exact))


def test_no_complete_line_witness_examples():
    p = BinaryForm(3, [1.0, 0.0, 0.0, 0.0])
    s, k = no_complete_line_witness(p)
    assert abs(s + 1.0 / 3.0) < 1e-8
    assert k == 0 and _certified(p, s, k)
    # the Hermitian-containing direction has negative leading coefficient
    p = BinaryForm(3, [1.0, 0.0, 1.0, 0.0])
    poly = [float(c) for c in line_discriminant_poly(Q0.to_float(), p)]
    assert poly[0] < 0
    s, k = no_complete_line_witness(p)
    assert float(discriminant(line_cubic(Q0.to_float(), p, s))) < 0
    assert k == 0 and _certified(p, s, k)
    # the split direction has a real zero
    p = BinaryForm(3, [1.0, 0.0, -1.0, 0.0])
    s, k = no_complete_line_witness(p)
    assert float(discriminant(line_cubic(Q0.to_float(), p, s))) < 1e-8
    assert _certified(p, s, k)


def test_no_complete_line_witness_at_an_even_root():
    # p = -Q0 runs into the zero cubic: Delta = (4/3)(1 - s)^4 is never negative
    p = BinaryForm(3, [F(-1, 3), 0, 1, 0])
    assert no_complete_line_witness(p) == (1.0, 4)


def test_no_complete_line_witness_random():
    rng = random.Random(34)
    for _ in range(100):
        p = halfflat_cubic(rng)
        if p.norm() < 0.05:
            continue
        s, k = no_complete_line_witness(p)
        assert float(discriminant(line_cubic(Q0.to_float(), p, s))) <= 1e-6
        assert _certified(p, s, k), p


def test_symbolic_no_halfflat_line_is_complete():
    # criterion 9 for every half-flat p = (a, b, c, b) (LEDGER "Criterion 9")
    sp = pytest.importorskip("sympy")
    a, b, c, s = sp.symbols("a b c s")
    R = sp.Rational
    p = BinaryForm(3, [a, b, c, b])
    A4, A3, A2, A1, A0 = (sp.expand(x) for x in line_discriminant_poly(Q0, p))
    assert sp.expand(A4 - discriminant(p)) == 0
    assert sp.expand(A3 + R(4, 3) * (9 * a - c) * (3 * b ** 2 - c ** 2)) == 0
    assert sp.expand(A2 + 4 * (3 * a * c + 2 * b ** 2 - c ** 2)) == 0
    assert A1 == sp.expand(4 * (a - c)) and A0 == R(4, 3)
    delta = A4 * s ** 4 + A3 * s ** 3 + A2 * s ** 2 + A1 * s + A0
    Q = 27 * a ** 2 + 18 * a * c - 16 * b ** 2 + 3 * c ** 2
    # the discriminant in s is never positive
    assert sp.expand(sp.discriminant(delta, s) + R(256, 27) * b ** 4 * Q ** 4) == 0
    # b = 0: a real root of odd multiplicity unless a = c = 0
    assert sp.expand(delta.subs(b, 0) + R(4, 3) * (3 * a * s + 1) * (c * s - 1) ** 3) == 0
    assert sp.solve([3 * a, c], [a, c], dict=True) == [{a: 0, c: 0}]
    # Q = 0, that is b^2 = 3 (3a + c)^2 / 16 (delta depends on b^2 only):
    # likewise, and a = c = 0 there forces b = 0
    on_q = delta.subs(b, sp.sqrt(3) * (3 * a + c) / 4)
    assert sp.expand(on_q + (9 * a * s - c * s + 4) ** 3 * (15 * a * s + 9 * c * s - 4) / 192) == 0
    assert sp.solve([9 * a - c, 15 * a + 9 * c], [a, c], dict=True) == [{a: 0, c: 0}]
    # otherwise the discriminant is negative: for A4 != 0 the quartic has
    # two simple real roots.  A4 = 0 with A3 = 0 needs Q = 0 or b = 0: on
    # the factor c = 9a of A3, A4 = -Q^2/64; on c^2 = 3b^2, A4 = -c^2 (c - 9a)^2 / 9
    # and Q = -(c - 9a)(7c + 9a)/3.  So for A4 = 0 the cubic has a simple root.
    assert sp.expand(A4.subs(c, 9 * a) + Q.subs(c, 9 * a) ** 2 / 64) == 0
    on_c = {b: c / sp.sqrt(3)}
    assert sp.expand(A4.subs(on_c) + c ** 2 * (c - 9 * a) ** 2 / 9) == 0
    assert sp.expand(Q.subs(on_c) + (c - 9 * a) * (7 * c + 9 * a) / 3) == 0
    # negative control: (0, 1, 0, -1/3) is not half-flat, and its line stays positive
    bad = BinaryForm(3, [0, 1, 0, R(-1, 3)])
    bad_delta = sp.Poly(line_discriminant_poly(Q0, bad), s)
    assert bad_delta.as_expr() == sp.expand(R(4, 3) * (1 + s ** 2) ** 2)
    assert sp.real_roots(bad_delta) == []


@pytest.mark.parametrize("forged", [(0.0, 0), (0.0, 2)])
def test_noncomplete_suite_rejects_a_forged_witness(monkeypatch, forged):
    # Delta(Q0) = 4/3: s = 0 is neither a negative point nor a root
    monkeypatch.setattr(verify, "no_complete_line_witness", lambda p: forged)
    assert not verify.suite_noncomplete(n_samples=5).passed
    monkeypatch.undo()
    assert verify.suite_noncomplete(n_samples=5).passed


def test_no_complete_line_witness_preconditions():
    with pytest.raises(ValueError):
        no_complete_line_witness(BinaryForm(3, [0.0] * 4))
    with pytest.raises(ValueError):
        no_complete_line_witness(BinaryForm(3, [1.0, 1.0, 0.0, -1.0]))


def test_contraction_field_examples():
    lam = BinaryForm(3, [F(1), F(2), F(3), F(4)])
    out = contraction_field(1, 0, 0, lam)
    assert out.coeffs == (3, 2, -3, -12)
    assert contraction_field(2, -1, 5, BinaryForm(3, [F(0)] * 4)).is_zero()


def test_contraction_planes():
    planes = {gen: contraction_plane(*gen) for gen in CANONICAL_GENERATORS}
    assert planes_equal(planes[(1, 0, 0)],
                        [[F(1), F(0), F(0), F(0)], [F(0), F(0), F(1), F(0)]])
    assert planes_equal(planes[(0, 1, 3)],
                        [[F(1), F(0), F(9), F(0)], [F(0), F(1), F(0), F(1)]])
    assert planes_equal(planes[(0, 1, -1)],
                        [[F(1), F(0), F(1), F(0)], [F(0), F(1), F(0), F(1)]])
    # tangency: the field maps each plane into itself
    for gen, basis in planes.items():
        assert plane_is_invariant(*gen)
        for v in basis:
            img = contraction_field(*gen, BinaryForm(3, v))
            assert planes_equal(basis, basis)  # basis sanity
            from so3g2._exact import mat_rank
            assert mat_rank([list(b) for b in basis] + [list(img.coeffs)]) == 2


def test_contraction_scan_rejects_generic():
    for gen in [(1, 1, 0), (0, 1, 1), (2, 3, 5), (1, 0, 1), (0, 2, 1)]:
        assert not plane_is_invariant(*gen)
    # scaling and sign do not matter
    assert plane_is_invariant(-2, 0, 0)
    assert plane_is_invariant(0, 3, 9)


def test_hermitian_plane_points_are_hermitian():
    basis = contraction_plane(0, 1, -1)
    for v in basis:
        p = BinaryForm(3, [float(c) for c in v])
        assert abs(float(p.coeffs[0]) - float(p.coeffs[2])) < 1e-14
        assert abs(float(p.coeffs[1]) - float(p.coeffs[3])) < 1e-14
        assert abs(hermitian_defect(p, GL2.identity())) < 1e-12


def test_flow_preserves_only_first_plane():
    def lam_path(p, s_max):
        traj = integrate_line(p, Q0.to_float(), np.linspace(0.0, s_max, 5))
        return [frame_change_torsion(p, g) for g in traj.frames]

    lams = lam_path(BinaryForm(3, [0.7, 0.0, -1.3, 0.0]), 0.25)
    assert max(max(abs(float(l.coeffs[1])), abs(float(l.coeffs[3])))
               for l in lams) < 1e-10
    lams = lam_path(BinaryForm(3, [0.1, 0.3, 0.9, 0.3]), 0.1)
    assert abs(9 * float(lams[0].coeffs[0]) - float(lams[0].coeffs[2])) < 1e-10
    assert abs(9 * float(lams[-1].coeffs[0]) - float(lams[-1].coeffs[2])) > 1e-4
    lams = lam_path(BinaryForm(3, [0.8, 0.4, 0.8, 0.4]), 0.1)
    assert abs(float(lams[-1].coeffs[0]) - float(lams[-1].coeffs[2])) > 1e-4


def test_sigma3_symmetry_of_lines():
    # composing the frame with a permutation matrix leaves the cubic fixed
    from so3g2.binaryform import q_map, sigma3_all
    g = GL2(1.2, 0.1, -0.3, 0.8)
    q = q_map(g)
    for k in sigma3_all():
        q2 = q_map(k @ g)
        assert max(abs(float(a) - float(b))
                   for a, b in zip(q.coeffs, q2.coeffs)) < 1e-10


def test_hamiltonian_zero_at_origin():
    assert abs(hamiltonian(0.0, 0.0, BinaryForm(3, [1.0, 0.2, -0.5, 0.2]))) < 1e-14


def test_hamiltonian_conserved_along_flow():
    rng = random.Random(35)
    for _ in range(4):
        p = halfflat_cubic(rng, span=0.8)
        if p.norm() < 0.05:
            continue
        tg = np.linspace(0.0, 0.1, 9)
        try:
            traj = integrate_time_grid(p, Q0.to_float(), 0.0, tg)
        except ValueError:
            continue
        for st in traj.states:
            assert abs(hamiltonian(st.s, st.detg ** 2 - 1.0, p)) < 1e-8


def test_hamiltonian_torsion_free_keeps_momentum():
    # lam = 0: H = 2 - 2 (1 + a2)^(3/2); the line is static so a2 is constant
    lam0 = BinaryForm(3, [0.0] * 4)
    assert abs(hamiltonian(3.7, 0.0, lam0)) < 1e-14
    assert hamiltonian(0.0, 0.5, lam0) == pytest.approx(2 - 2 * 1.5 ** 1.5)


def test_flow_torsion_cubic_sign_relation():
    m = ModelPoint.make([1.0, 0.0], [1.0, 0.0, -1.0])
    p = flow_torsion_cubic(structure_constants(m))
    tor = torsion_of(m)
    assert max(abs(float(a) + float(b)) for a, b in zip(p.coeffs, tor.coeffs)) < 1e-12
    # a float operator reads a float cubic, its zero coefficients too
    assert [type(c) for c in p.coeffs] == [float] * 4, p.coeffs


def test_plane_tangency_defect_float_families():
    from so3g2.flow import plane_tangency_defect
    s3 = math.sqrt(3.0)
    # the irrational qualifying families, permutation-equivalent to the
    # rational generators
    for gen in [(1.0, s3, s3), (1.0, -s3, -s3), (s3 / 2.0, 1.0, 0.0)]:
        assert plane_tangency_defect(*gen) < 1e-12
    for gen in CANONICAL_GENERATORS:
        assert plane_tangency_defect(*gen) < 1e-12
    for gen in [(1.0, 1.0, 0.0), (1.0, s3 * 1.01, s3), (0.5, 1.0, 2.9)]:
        assert plane_tangency_defect(*gen) > 1e-4
    assert plane_tangency_defect(0.0, 0.0, 0.0) == math.inf


def _plane_and_image_rows(a, b, c):
    """[R; R X]: the plane's two equations and their pullbacks by the field."""
    rows = [[3 * c, 4 * a, 2 * b - c, 0], [0, 1, 0, -1]]
    cols = [contraction_field(a, b, c, BinaryForm(3, e)).coeffs for e in np.eye(4, dtype=int).tolist()]
    return rows + [[sum(r[i] * col[i] for i in range(4)) for col in cols] for r in rows]


def test_plane_is_invariant_is_the_rank_condition_on_the_grid():
    from so3g2._exact import mat_rank
    for gen in itertools.product(range(-3, 4), repeat=3):
        expected = any(gen) and mat_rank(_plane_and_image_rows(*map(F, gen))) == 2
        assert plane_is_invariant(*gen) == expected, gen
    assert not plane_is_invariant(0, 0, 0)


def _minors3(m):
    return [m.extract(list(r), list(k)).det()
            for r in itertools.combinations(range(m.rows), 3)
            for k in itertools.combinations(range(m.cols), 3)]


def _projective_real_zeros(sp, polys, a, b, c):
    """Real common zeros of homogeneous polys in (a, b, c), one point per line,
    on the charts c = 1, (b, c) = (1, 0) and (1, 0, 0)."""
    pts = [(s[a], s[b], 1) for s in sp.solve([f.subs(c, 1) for f in polys], [a, b], dict=True)]
    pts += [(s[a], 1, 0) for s in sp.solve([f.subs({b: 1, c: 0}) for f in polys], [a], dict=True)]
    if all(f.subs({a: 1, b: 0, c: 0}) == 0 for f in polys):
        pts.append((1, 0, 0))
    pts = [tuple(map(sp.sympify, pt)) for pt in pts]
    return {pt for pt in pts if all(v.is_real for v in pt)}


def test_tangency_cubics_are_the_rank_condition():
    sp = pytest.importorskip("sympy")
    from so3g2.flow import _tangency_residuals
    a, b, c = sp.symbols("a b c")
    lam = sp.symbols("l1:5")
    field = contraction_field(a, b, c, BinaryForm(3, list(lam))).coeffs
    x = sp.Matrix([[sp.expand(f).coeff(l) for l in lam] for f in field])
    r = sp.Matrix([[3 * c, 4 * a, 2 * b - c, 0], [0, 1, 0, -1]])
    minors = sp.groebner(_minors3(r.col_join(r * x)), a, b, c, order="grevlex")
    cubics = _tangency_residuals(a, b, c)
    assert sp.groebner(cubics, a, b, c, order="grevlex") == minors
    # the real zeros are seven generator lines, three of them rational
    s3 = sp.sqrt(3)
    lines = {(0, sp.Rational(1, 3), 1), (0, -1, 1), (1, 0, 0), (s3 / 3, 1, 1),
             (-s3 / 3, 1, 1), (s3 / 2, 1, 0), (-s3 / 2, 1, 0)}
    assert _projective_real_zeros(sp, cubics, a, b, c) == {
        tuple(map(sp.sympify, pt)) for pt in lines}
    # the field vanishes on its plane (rank [R; X] = 2) only at the zero
    # generator: the ideal of those minors holds a^2, b^2 and c^2
    vanish = sp.groebner(_minors3(r.col_join(x)), a, b, c, order="grevlex")
    assert all(vanish.contains(v ** 2) for v in (a, b, c))
    # negative control: 8 -> 9 in the first cubic changes the ideal and
    # drops the line (sqrt3/2, 1, 0)
    wrong = (cubics[0] + a * a * b,) + cubics[1:]
    assert sp.groebner(wrong, a, b, c, order="grevlex") != minors
    assert wrong[0].subs({a: s3 / 2, b: 1, c: 0}) != 0
    assert (s3 / 2, 1, 0) not in _projective_real_zeros(sp, wrong, a, b, c)


def test_flow_cli_stops_at_a_simple_boundary_root(capsys):
    # the loose multiplicity estimate judged the simple root 3.96959 of
    # this line double; polishing on the derivative moved it to 4.0798,
    # so the default range (s-max 4) sampled past Delta = 0
    p = "-0.0006201756091347175,0.0007284980955100141,0.24511293753442095,0.0007284980955100141"
    assert main(["flow", f"--p={p}", "--q0=1/3,0,-1,0"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert min(row[7] for row in rows) >= -1e-10
    assert abs(abs(rows[-1][0]) - 3.9695876) < 1e-6


# ---------------------------------------------------------------------------
# exact root multiplicities and the clock at a multiple root
# ---------------------------------------------------------------------------

def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _poly_divmod(num, den):
    """Quotient and remainder of exact polynomial division (den has a
    nonzero leading coefficient); remainder without leading zeros."""
    num = list(num)
    quot = []
    for i in range(len(num) - len(den) + 1):
        q = num[i] / den[0]
        quot.append(q)
        for j, d in enumerate(den):
            num[i + j] -= q * d
    return quot, _strip(num[len(quot):])


def _poly_gcd(a, b):
    """Monic greatest common divisor by Euclid's algorithm over Fractions."""
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return [c / a[0] for c in a]


def ref_square_free_split(coeffs):
    """Yun's split as the package computed it on Fractions, with Euclid's gcd."""
    f = _strip([F(c) for c in coeffs])
    if len(f) < 2:
        return []
    df = _poly_deriv(f)
    a = _poly_gcd(f, df)
    b, c = _poly_divmod(f, a)[0], _poly_divmod(df, a)[0]
    out = []
    k = 1
    while len(b) > 1:
        d = _strip([u - v for u, v in zip(c, _poly_deriv(b))])
        a = _poly_gcd(b, d)
        b, c = _poly_divmod(b, a)[0], _poly_divmod(d, a)[0]
        if len(a) > 1:
            out.append((a, k))
        k += 1
    return out


def _ref_sign(poly, x):
    v = _poly_eval(poly, F(x))
    return (v > 0) - (v < 0)


def ref_factor_roots(factor):
    """Sturm isolation and bisection as the package computed them: the
    chain of negated Euclid remainders over Fractions, signs in Fractions."""
    chain = [factor, _poly_deriv(factor)]
    while len(chain[-1]) > 1:
        chain.append([-c for c in _poly_divmod(chain[-2], chain[-1])[1]])
    den = math.lcm(*(c.denominator for c in factor))
    lead = abs(factor[0] * den)
    exponent = ((lead + max(abs(c * den) for c in factor[1:])) // lead).bit_length()
    bound = float(2 ** exponent)

    def variations(x):
        signs = [v for v in (_ref_sign(p, x) for p in chain) if v]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    def bisect(lo, hi):
        sign_hi = _ref_sign(factor, hi)
        if sign_hi == 0:
            return hi
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                return lo if _ref_sign(factor, (F(lo) + F(hi)) / 2) == sign_hi else hi
            sign = _ref_sign(factor, mid)
            if sign == 0:
                return mid
            lo, hi = (lo, mid) if sign == sign_hi else (mid, hi)

    roots = []
    todo = [(-bound, bound, variations(-bound), variations(bound))]
    while todo:
        lo, hi, v_lo, v_hi = todo.pop()
        mid = 0.5 * (lo + hi)
        if v_lo - v_hi == 1:
            roots.append(bisect(lo, hi))
        elif v_lo - v_hi > 1 and lo < mid < hi:
            v_mid = variations(mid)
            todo += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
        elif v_lo > v_hi:
            roots += [mid] * (v_lo - v_hi)
    return roots


def ref_poly_real_roots(coeffs):
    trimmed = list(coeffs)
    if any(isinstance(c, float) for c in coeffs):
        scale = max(abs(c) for c in coeffs)
        while trimmed and abs(trimmed[0]) <= 1e-14 * scale:
            trimmed.pop(0)
    return sorted((r, k) for factor, k in ref_square_free_split(trimmed)
                  for r in ref_factor_roots(factor))


def _random_split_input(rng):
    """A constant times a random product of linear and quadratic factors,
    some repeated; degree 3 or 4."""
    poly = [F(rng.randint(1, 5), rng.randint(1, 4)) * rng.choice((1, -1))]
    while len(poly) < 4:
        if rng.random() < 0.3:
            factor = [1, rng.randint(-3, 3), rng.randint(1, 4)]  # may be irreducible
        else:
            factor = [rng.randint(1, 3), F(rng.randint(-5, 5), rng.randint(1, 3))]
        for _ in range(rng.randint(1, 4)):
            if len(poly) + len(factor) - 1 <= 5:
                poly = _poly_mul(poly, factor)
    return poly


SPLIT_EXAMPLES = [
    ([3, 1, -5, -1, 2], [([1, F(-5, 3), F(2, 3)], 1), ([1, 1], 2)]),
    ([1, -4, 6, -4, 1], [([1, -1], 4)]),
    ([0, 0, 1, -2, 1], [([1, -1], 2)]),     # leading zeros are a degree drop
    ([0.5, -1.5, 1.0], [([1, -3, 2], 1)]),
    ([7], []),
    ([0, 0], []),
]


@pytest.mark.parametrize("coeffs, want", SPLIT_EXAMPLES)
def test_square_free_split_examples(coeffs, want):
    assert _square_free_split(coeffs) == want


def test_square_free_split_reassembles_and_is_square_free():
    rng = random.Random(91)
    for _ in range(200):
        poly = _random_split_input(rng)
        if rng.random() < 0.5:
            poly = [float(c) for c in poly]
        split = _square_free_split(poly)
        product = [1]
        for factor, k in split:
            assert factor[0] == 1 and len(factor) > 1
            assert _poly_gcd(factor, _poly_deriv(factor)) == [1]  # square-free
            for _ in range(k):
                product = _poly_mul(product, factor)
        exact = [F(c) for c in poly]
        assert [exact[0] * c for c in product] == exact
        for i, (f, _) in enumerate(split):
            for g, _ in split[i + 1:]:
                assert _poly_gcd(f, g) == [1]  # pairwise coprime


@pytest.mark.parametrize("kind", ["int", "fraction", "float"])
def test_square_free_split_matches_sympy(kind):
    sp = pytest.importorskip("sympy")
    x = sp.symbols("x")
    rng = random.Random({"int": 1, "fraction": 2, "float": 3}[kind])
    for _ in range(60):
        poly = _random_split_input(rng)
        if kind == "int":
            den = math.lcm(*(F(c).denominator for c in poly))
            poly = [int(c * den) for c in poly]
        elif kind == "float":
            poly = [float(c) + rng.choice((0.0, 1e-3)) for c in poly]
        ref = sp.Poly([sp.Rational(c) for c in poly], x, domain="QQ")
        _, factors = ref.sqf_list()
        want = sorted((tuple(F(str(c)) for c in f.monic().all_coeffs()), k) for f, k in factors)
        got = sorted((tuple(f), k) for f, k in _square_free_split(poly))
        assert got == want, poly


def _noncomplete_lines():
    """The int-scaled discriminant polynomials of the 100 sampled lines of
    suite_noncomplete at its default seed, as no_complete_line_witness
    builds them (coefficients up to about 2^220)."""
    rng = random.Random(7)
    for _ in range(100):
        lam = [rng.uniform(-2, 2) for _ in range(3)]
        p = BinaryForm(3, [lam[0], lam[1], lam[2], lam[1]])
        if p.norm() < 0.05:
            continue
        ints, _ = scale_to_ints(Q0.coeffs + p.coeffs)
        yield Line(BinaryForm(3, ints[:4]), BinaryForm(3, ints[4:])).poly


def _flow_g2_lines(seed):
    """The lines of `so3g2 flow` in the 400 requests of the flow-g2
    benchmark at seed: Q0 in Fractions, and the float torsion reading p of
    a half-flat float point whose first discriminant root ahead (np.roots)
    is at least 0.25.  The draws, including each request's unused lam and
    z values, are the benchmark's."""
    rng = random.Random(seed)
    lines = []
    while len(lines) < 400:
        x = [rng.uniform(-2.0, 2.0) for _ in range(2)]
        y = [rng.uniform(-2.0, 2.0) for _ in range(3)]
        if max(abs(v) for v in x) <= 0.1 or max(abs(v) for v in y) <= 0.1:
            continue
        (x1, x2), (y1, y2, y3) = x, y
        if abs(x2) >= abs(x1):
            y[2] = (x1 * y2 + x2 * y1) / x2
        else:
            y[1] = x2 * (y3 - y1) / x1
        if max(abs(v) for v in y) > 2.0 or max(abs(v) for v in y) <= 0.1:
            continue
        y1, y2, y3 = y
        p = [-x1 * y1, -(x1 * y2 + x2 * y1), -(x1 * y3 + x2 * y2), -x2 * y3]
        q1, q2, q3, q4 = (np.polynomial.Polynomial([a, b])
                          for a, b in zip((1.0 / 3.0, 0.0, -1.0, 0.0), p))
        disc = (q2 ** 2 * q3 ** 2 - 4 * q1 * q3 ** 3 - 4 * q2 ** 3 * q4
                + 18 * q1 * q2 * q3 * q4 - 27 * q1 ** 2 * q4 ** 2)
        ahead = [r.real for r in disc.roots() if abs(r.imag) <= 1e-9 and r.real > 0]
        if min(ahead, default=math.inf) < 0.25:
            continue
        rng.uniform(0.5, 2.0)
        [rng.uniform(0.0, 2.0) for _ in range(16)]
        lines.append(Line(Q0, BinaryForm(3, p)))
    return lines


def _assert_split_and_roots_match_the_reference(poly, roots=None):
    got, want = _square_free_split(poly), ref_square_free_split(poly)
    assert got == want, poly
    assert all(type(c) is F for factor, _ in got for c in factor)
    got_roots = _poly_real_roots(poly) if roots is None else roots
    assert got_roots == ref_poly_real_roots(poly), poly
    assert all(type(r) is float and type(k) is int for r, k in got_roots)


def test_split_and_roots_on_ints_match_the_fraction_reference():
    rng = random.Random(92)
    for _ in range(200):
        poly = _random_split_input(rng)
        if rng.random() < 0.5:
            poly = [float(c) for c in poly]
        _assert_split_and_roots_match_the_reference(poly)
    lines = list(_noncomplete_lines())
    assert len(lines) > 90 and max(abs(c) for poly in lines for c in poly).bit_length() > 200
    for poly in lines:
        _assert_split_and_roots_match_the_reference(poly)


@pytest.mark.parametrize("seed", [1, 90210])
def test_flow_g2_line_roots_match_the_fraction_reference(seed):
    for line in _flow_g2_lines(seed):
        _assert_split_and_roots_match_the_reference(line.poly, line.roots)


def test_sturm_chains_make_no_fraction_arithmetic(fractions_made):
    # the split makes only its monic factors; the chains and bisection none
    polys = list(_noncomplete_lines())[:20] + [line.poly for line in _flow_g2_lines(1)[:20]]
    for poly in polys:
        made = len(fractions_made)
        split = _square_free_split(poly)
        # a float coefficient is read as its rational, one Fraction each
        read = sum(isinstance(c, float) for c in poly)
        assert len(fractions_made) - made == read + sum(len(f) for f, _ in split)
        made = len(fractions_made)
        roots = [r for factor, _ in split for r in _factor_roots(factor)]
        assert roots and len(fractions_made) == made


def test_line_discriminant_poly_against_sympy():
    sp = pytest.importorskip("sympy")
    s, t = sp.symbols("s t")
    rng = random.Random(8)
    for _ in range(5):
        q0, p = (BinaryForm(3, [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(4)])
                 for _ in range(2))
        cubic = sum((sp.Rational(*a.as_integer_ratio()) + s * sp.Rational(*b.as_integer_ratio()))
                    * t ** (3 - i) for i, (a, b) in enumerate(zip(q0.coeffs, p.coeffs)))
        want = sp.Poly(sp.discriminant(cubic, t), s).all_coeffs()
        got = line_discriminant_poly(q0, p)
        assert got[len(got) - len(want):] == want and not any(got[:len(got) - len(want)])


def test_real_roots_carry_exact_multiplicities():
    # the zero cubic on a line: Delta = 4 (s - 3/2)^4
    poly = line_discriminant_poly(BinaryForm(3, [F(-3, 2), 0, F(3, 2), 0]),
                                  BinaryForm(3, [1, 0, -1, 0]))
    assert _poly_real_roots(poly) == [(1.5, 4)]
    # a leading coefficient at rounding level is a degree drop
    assert _poly_real_roots([1e-20, 1.0, -2.0, 1.0]) == [(1.0, 2)]
    assert _poly_real_roots([5]) == []


@pytest.mark.parametrize("coeffs", [[1.0, -2.0, 1 + 1e-12], [1, -2, 1 + F(1, 10 ** 12)]])
def test_real_roots_of_a_tangency_example_do_not_exist(coeffs):
    # s^2 - 2 s + 1 + eps has its minimum +eps at s = 1
    assert _poly_real_roots(coeffs) == []


def _correctly_rounded(coeffs, r):
    """Whether the exact polynomial changes sign between the midpoints of
    r with its float neighbours, so that its root is nearest to r."""
    lo = (F(r) + F(math.nextafter(r, -math.inf))) / 2
    hi = (F(r) + F(math.nextafter(r, math.inf))) / 2
    return _poly_eval(coeffs, lo) * _poly_eval(coeffs, hi) < 0


def test_real_roots_keep_an_exact_small_leading_coefficient():
    # s^2 / 10^15 + s - 1: roots 0.999999999999999... and about -1e15; the
    # 1e-14 degree-drop trim is for float residue, not for exact values
    coeffs = [F(1, 10 ** 15), 1, -1]
    got = _poly_real_roots(coeffs)
    assert [k for _, k in got] == [1, 1]
    (big, _), (near_one, _) = got
    assert near_one < 1.0 and abs(near_one - 1.0) < 1e-14
    assert -1.0000000000000011e15 < big < -0.999e15
    assert _correctly_rounded(coeffs, near_one) and _correctly_rounded(coeffs, big)
    # the same values as floats are a degree drop, as before
    assert _poly_real_roots([1e-15, 1.0, -1.0]) == [(1.0, 1)]


def test_real_roots_are_exact_floats_where_possible():
    assert _poly_real_roots([1, 0, 0]) == [(0.0, 2)]
    assert _poly_real_roots([4, 0, -1]) == [(-0.5, 1), (0.5, 1)]
    assert _poly_real_roots([1, 0, -2]) == [(-math.sqrt(2), 1), (math.sqrt(2), 1)]


def test_real_roots_match_sympy():
    """Counts and multiplicities against sympy's real_roots on int and
    rational polynomials of degree <= 4: random, (s - a)^2 g +- eps, or a
    cluster a, a + delta, ... of close roots; each root lies between the
    floats next to it."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    sp = pytest.importorskip("sympy")

    def rational(v):
        return sp.Rational(*F(v).as_integer_ratio())

    @st.composite
    def polys(draw):
        rat = st.builds(F, st.integers(-48, 48), st.integers(1, 12))
        lead = draw(st.builds(F, st.integers(1, 48), st.integers(-12, -1) | st.integers(1, 12)))
        kind = draw(st.sampled_from(["random", "tangent", "cluster"]))
        if kind == "random":
            poly = [lead] + [draw(rat) for _ in range(draw(st.integers(0, 4)))]
        elif kind == "tangent":
            a = draw(rat)
            poly = _poly_mul(_poly_mul([1, -a], [1, -a]),
                             [lead] + [draw(rat) for _ in range(draw(st.integers(0, 2)))])
            poly[-1] += draw(st.sampled_from((1, -1))) * F(1, 10 ** draw(st.integers(3, 30)))
        else:
            a, delta = draw(rat), F(1, 10 ** draw(st.integers(1, 12)))
            poly = [lead]
            for i in range(draw(st.integers(2, 4))):
                poly = _poly_mul(poly, [1, -(a + i * delta)])
        if draw(st.booleans()):
            den = math.lcm(*(F(c).denominator for c in poly))
            poly = [int(c * den) for c in poly]
        return poly

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=25)
    @hypothesis.given(polys())
    def check(poly):
        ref = sp.Poly([rational(c) for c in poly], sp.symbols("x"))
        want = [len(list(g)) for _, g in itertools.groupby(ref.real_roots())]
        got = _poly_real_roots(poly)
        assert [k for _, k in got] == want, (poly, got)
        for r, _ in got:
            assert ref.count_roots(rational(math.nextafter(r, -math.inf)),
                                   rational(math.nextafter(r, math.inf))) >= 1, (poly, r)

    check()


def test_real_roots_on_float_lines_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(13)
    with mpmath.workdps(60):
        for _ in range(50):
            poly = line_discriminant_poly(Q0.to_float(), halfflat_cubic(rng))
            ref = sorted(float(z.real) for z in mpmath.polyroots(poly)
                         if abs(z.imag) <= mpmath.mpf(10) ** -40)
            got = [r for r, k in _poly_real_roots(poly) for _ in range(k)]
            # correctly rounded, so well within 4 ulp
            assert got == ref, (poly, got, ref)


@pytest.mark.parametrize("scalar", [F, float])
def test_time_integral_at_a_triple_root_off_zero(scalar):
    # Delta = -(32/3)(s - 2)^3, so the clock from 0 to 2 is exactly 2
    q0 = BinaryForm(3, [scalar(8) / 3, 0, -2, 0])
    assert abs(time_integral(q0, BinaryForm(3, [0, 0, 1, 0]), 0, 2) - 2.0) < 1e-12


def test_flow_cli_clock_ends_exactly_at_a_triple_root(capsys):
    assert main(["flow", "--p", "0,0,1,0", "--q0", "8/3,0,-2,0", "--steps", "4"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows[-1][0] == 2.0
    assert abs(rows[-1][1] - 2.0) < 1e-12


def test_flow_cli_clock_just_short_of_a_triple_root(capsys):
    # Delta = (32/3) (2 - s)^3, so t = 2 - sqrt(2 (2 - s)); the last row ends
    # 1e-9 short of the root, so its integrand varies on a scale of 1e-9
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        assert main(["flow", "--p", "0,0,1,0", "--q0", "8/3,0,-2,0", "--s-max", "1.999999999",
                     "--steps", "4"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows[-1][0] == 1.999999999
    for s, t, *_ in rows:
        exact = 2 - math.sqrt(2 * (2 - s))
        assert abs(t - exact) <= 1e-12 * exact, (s, t, exact)


def test_flow_cli_stops_at_the_zero_cubic(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        assert main(["flow", "--p", "1,0,-1,0", "--q0=-3/2,0,3/2,0"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rows"][-1][0] == 1.5
    assert data["endpoint"]["kind"] == "ZeroCubic"
    # Delta = 4 (s - 3/2)^4: t = 3^(5/6) (3/2)^(1/3) at the zero cubic
    assert abs(data["rows"][-1][1] - 3 ** (5 / 6) * 1.5 ** (1 / 3)) < 1e-12


def _multiple_root_line(rng, k):
    """A rational line with a k-fold discriminant root at a rational r != 0.

    Returns (q0, p, r, s0, normal, det g): along the line Delta(s) equals
    det(g)^6 times the discriminant of normal[0] + (s - r) normal[1], a
    normal form with its k-fold root at 0, and s0 = r +- 1/20 lies on the
    positive side.
    """
    c = [rng.randint(-2, 2) for _ in range(4)]
    if k == 4:    # the zero cubic: Delta = 4 t^4
        normal, side = ([0, 0, 0, 0], [1, 0, -1, 0]), rng.choice((1, -1))
    elif k == 3:  # lam u1^3: Delta = -4 (lam + c1 t) t^3
        normal, side = ([F(rng.randint(1, 4), 2), 0, 0, 0], [c[0], 0, 1, 0]), -1
    elif k == 2:  # u1^2 u2, tangent direction: Delta = t^2 (c3^2 + O(t))
        c[2] = c[2] or 1
        normal, side = ([0, 1, 0, 0], [c[0], c[1], c[2], 0]), rng.choice((1, -1))
    else:         # u1^2 u2, transverse direction: Delta = -4 c4 t + O(t^2)
        c[3] = c[3] or 1
        normal, side = ([0, 1, 0, 0], c), (-1 if c[3] > 0 else 1)
    r = F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))
    while True:
        g = GL2(*(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(4)))
        if g.det() != 0:
            break
    q_r, p_n = (BinaryForm(3, v) for v in normal)
    q0 = act(g, BinaryForm(3, [a - r * b for a, b in zip(q_r.coeffs, p_n.coeffs)]))
    return q0, act(g, p_n), r, r + side * F(1, 20), (q_r, p_n), g.det()


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_clock_at_a_multiple_root_against_mpmath(mpmath, k):
    rng = random.Random(100 + k)
    for _ in range(6):
        q0, p, r, s0, (q_r, p_n), det = _multiple_root_line(rng, k)
        # the exactly factored integrand: Delta = det^6 t^k h(t), t = s - r
        normal_poly = line_discriminant_poly(q_r, p_n)
        assert all(c == 0 for c in normal_poly[len(normal_poly) - k:])
        h = [mpmath.mpf(c.numerator) / c.denominator for c in map(F, normal_poly[:-k])]
        scale = mpmath.mpf(det.numerator) ** 6 / mpmath.mpf(det.denominator) ** 6 * 3 / 4

        def integrand(t):
            return (scale * t ** k * mpmath.polyval(h, t)) ** (-mpmath.mpf(1) / 6)

        t0 = mpmath.mpf((s0 - r).numerator) / (s0 - r).denominator
        ref = float(mpmath.quad(integrand, [t0, 0]))
        roots = _poly_real_roots(line_discriminant_poly(q0, p))
        end, mult = min(roots, key=lambda rk: abs(rk[0] - r))
        assert mult == k and abs(end - r) <= 1e-12 * abs(r)
        got = time_integral(q0, p, float(s0), end)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (k, q0, p, got, ref)


@pytest.fixture
def mpmath():
    """mpmath at 40 digits: at 30, tanh-sinh is off by 4e-12 on t^(-2/3)."""
    module = pytest.importorskip("mpmath")
    with module.workdps(40):
        yield module


def _mp(x):
    """A rational or float x as an mpmath number, exactly."""
    import mpmath

    x = F(x)
    return mpmath.mpf(x.numerator) / x.denominator


def test_one_piece_clock_on_regular_intervals_against_mpmath(mpmath):
    # one quadrature per interval, started at the end where Delta is smaller
    rng = random.Random(41)
    checked = 0
    while checked < 40:
        p = BinaryForm(3, [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)])
        poly = line_discriminant_poly(Q0, p)
        roots = [r for r, _ in _poly_real_roots(poly)]
        lo = max((r for r in roots if r < 0), default=-3.0)
        hi = min((r for r in roots if r > 0), default=3.0)
        inner = [lo + (hi - lo) * f for f in (0.1, 0.9)]
        s0, s1 = (rng.uniform(*inner) for _ in range(2))
        if s0 == s1:
            continue
        coeffs = [_mp(c) for c in poly]
        ref = mpmath.quad(lambda s: (mpmath.mpf(3) / 4 * mpmath.polyval(coeffs, s))
                          ** (-mpmath.mpf(1) / 6), [s0, s1])
        got = time_integral(Q0, p, s0, s1)
        assert abs(got - ref) <= 1e-12 * abs(ref), (p, s0, s1, got, ref)
        checked += 1


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_one_piece_clock_next_to_a_root_against_mpmath(mpmath, k):
    # an end that is not a root but lies next to a k-fold one, taken as the
    # upper and as the lower end of the interval
    rng = random.Random(200 + k)
    for _ in range(4):
        q0, p, r, s0, (q_r, p_n), det = _multiple_root_line(rng, k)
        normal_poly = line_discriminant_poly(q_r, p_n)
        h = [_mp(c) for c in normal_poly[:-k]]
        scale = _mp(det) ** 6 * 3 / 4

        def integrand(t):
            return (scale * t ** k * mpmath.polyval(h, t)) ** (-mpmath.mpf(1) / 6)

        side = 1 if s0 > r else -1
        for gap in (1e-3, 1e-6, 1e-9, 1e-12):
            end = float(r) + side * gap * max(1.0, abs(float(r)))
            ref = mpmath.quad(integrand, [_mp(s0 - r), _mp(F(end) - r)])
            for a, b, sign in ((float(s0), end, 1), (end, float(s0), -1)):
                with warnings.catch_warnings():
                    warnings.simplefilter("error", IntegrationWarning)
                    got = time_integral(q0, p, a, b)
                assert abs(got - sign * ref) <= 1e-12 * abs(ref), (k, gap, got, ref)


def test_one_piece_clock_between_two_roots_against_mpmath(mpmath):
    # Delta(Q0 + s m (1, 0, 1, 0)) = 4 (1/3 + m s)(1 - m s)^3: a simple root
    # at -1/(3m) and a triple root at 1/m, both ends of the interval, so the
    # midpoint split runs; the frame change g scales Delta by det(g)^6
    rng = random.Random(43)
    for m in (F(1), F(2), F(3, 5), F(-7, 4)):
        g = GL2(*(F(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(2)),
                *(F(rng.randint(-3, -1), rng.randint(1, 3)) for _ in range(2)))
        q0, p = act(g, Q0), act(g, BinaryForm(3, [m, 0, m, 0]))
        lo, hi = sorted((-1 / (3 * m), 1 / m))
        assert [r for r, _ in _poly_real_roots(line_discriminant_poly(q0, p))] \
            == [float(lo), float(hi)]
        scale = _mp(g.det()) ** 6 * 3

        def integrand(s):
            return (scale * (mpmath.mpf(1) / 3 + _mp(m) * s) * (1 - _mp(m) * s) ** 3) \
                ** (-mpmath.mpf(1) / 6)

        ref = mpmath.quad(integrand, [_mp(lo), _mp(lo + hi) / 2, _mp(hi)])
        got = time_integral(q0, p, float(lo), float(hi))
        assert abs(got - ref) <= 1e-12 * abs(ref), (m, got, ref)
        assert time_integral(q0, p, float(hi), float(lo)) == -got


# ---------------------------------------------------------------------------
# the clock on Gauss-Legendre panels and its Newton inverse
# ---------------------------------------------------------------------------

#: Delta of this line has a complex pair at -0.397 +- 0.294i, 0.29
#: half-widths off the midpoint of the panel [-1.4, 0.6], and its real roots
#: lie more than 2.5 away; Horner's value is trusted at every node there
COMPLEX_PAIR_LINE = (BinaryForm(3, [F(-1, 3), -1, 1, F(1, 2)]), BinaryForm(3, [-2, 1, 2, 0]))


def _mp_clock(mpmath, poly, a, b):
    """The clock from a to b at 40 digits, on the exact values of poly."""
    coeffs = [_mp(c) for c in poly]
    return mpmath.quad(lambda s: (mpmath.mpf(3) / 4 * mpmath.polyval(coeffs, s))
                       ** (-mpmath.mpf(1) / 6), [_mp(a), _mp(b)])


def test_panel_clock_next_to_a_complex_pair_against_mpmath(mpmath, monkeypatch):
    from so3g2 import flow

    line = Line(*COMPLEX_PAIR_LINE)
    assert min(abs(z - complex(-0.3973, 0.2942)) for z in line._float_roots) < 1e-4
    assert line._horner(-0.4 + flow._GL_NODES)[1].all()
    ref = _mp_clock(mpmath, line.poly, -1.4, 0.6)
    assert abs(line.times([0.6], start=-1.4)[0] - ref) <= 1e-13 * ref
    # the inverse from s0 = -1.4, with its Newton panels next to the pair
    s_values = [-1.0, -0.6, -0.2, 0.2, 0.6]
    t_grid = [0.0] + [float(_mp_clock(mpmath, line.poly, -1.4, s)) for s in s_values]
    got = Line(*COMPLEX_PAIR_LINE).s_at(t_grid, -1.4)
    assert got[0] == -1.4
    for g, s in zip(got[1:], s_values):
        assert abs(g - s) <= 1e-13 * abs(s), (g, s)
    # negative control: without the distance test 24 nodes take the panel,
    # whose Bernstein ellipse (rho = 1.34) the pair cuts
    monkeypatch.setattr(flow, "_PANEL_ROOT_DISTANCE", 0.0)
    assert abs(Line(*COMPLEX_PAIR_LINE).times([0.6], start=-1.4)[0] - ref) > 1e-9 * ref


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_panel_clock_next_to_a_multiple_root_against_mpmath(mpmath, k):
    # panels from s0 = r +- 1/20 towards a k-fold root r != 0 (k = 4 is the
    # zero cubic), the last 1e-9 of the way short of it, and their Newton
    # inverse from s0 != 0; both directions occur
    rng = random.Random(300 + k)
    for _ in range(4):
        q0, p, r, s0, (q_r, p_n), det = _multiple_root_line(rng, k)
        h = [_mp(c) for c in line_discriminant_poly(q_r, p_n)[:-k]]
        scale = _mp(det) ** 6 * 3 / 4

        def integrand(t):
            return (scale * t ** k * mpmath.polyval(h, t)) ** (-mpmath.mpf(1) / 6)

        start = float(s0)
        s_values = [float(r + f * (s0 - r)) for f in
                    (F(3, 4), F(1, 2), F(1, 4), F(1, 10), F(1, 100), F(1, 10 ** 4), F(1, 10 ** 9))]
        refs = [mpmath.quad(integrand, [_mp(F(start) - r), _mp(F(s) - r)]) for s in s_values]
        got = Line(q0, p).times(s_values, start=start)
        for g, ref in zip(got, refs):
            assert abs(g - ref) <= 1e-13 * abs(ref), (k, q0, p, g, ref)
        s_got = Line(q0, p).s_at([0.0] + [float(ref) for ref in refs], start)
        assert s_got[0] == start
        for g, s in zip(s_got[1:], s_values):
            assert abs(g - s) <= 1e-13 * abs(s), (k, q0, p, g, s)


@pytest.mark.parametrize("direction", [1, -1])
def test_panel_clock_at_the_zero_cubic_against_mpmath(mpmath, monkeypatch, direction):
    # the rows of `so3g2 flow --p 1,0,-1,0 --q0=-3/2,0,3/2,0` and their
    # mirror image: Delta = 4 (s -+ 3/2)^4, so t = +-3^(5/6) ((3/2)^(1/3)
    # - (3/2 - |s|)^(1/3)); the expanded quartic cancels next to the root
    from so3g2 import flow

    q0 = BinaryForm(3, [F(-3, 2), 0, F(3, 2), 0])
    p = BinaryForm(3, [direction, 0, -direction, 0])
    s_values = [direction * 1.5 * (i + 1) / 80 for i in range(79)] + [direction * 1.5]
    third = mpmath.mpf(1) / 3
    refs = [direction * 3 ** (5 * third / 2) * (mpmath.mpf(1.5) ** third - (1.5 - _mp(abs(s))) ** third)
            for s in s_values]
    got = Line(q0, p).times(s_values)
    assert max(abs(g - ref) / abs(ref) for g, ref in zip(got, refs)) <= 1e-13
    # the inverse up to the last row short of the root; the root itself
    # and any time beyond it are past the boundary
    s_got = Line(q0, p).s_at([0.0] + [float(ref) for ref in refs[:-1]], 0.0)
    assert max(abs(g - s) / abs(s) for g, s in zip(s_got[1:], s_values)) <= 1e-13
    for reach in (1.0, 1.5):
        with pytest.raises(ValueError, match="boundary root"):
            Line(q0, p).s_at([0.0, reach * float(refs[-1])], 0.0)
    # negative control: without the conditioning test the panels next to
    # the root but more than 4 half-widths off it take rounded values
    monkeypatch.setattr(flow, "_PANEL_CONDITION", math.inf)
    got = Line(q0, p).times(s_values)
    assert max(abs(g - ref) / abs(ref) for g, ref in zip(got, refs)) > 1e-13


def test_time_grid_past_the_first_root_raises():
    p = BinaryForm(3, [0.3, -0.5, 0.7, -0.5])
    line = Line(Q0.to_float(), p)
    r = min(r for r, _ in line.roots if r > 0)
    t_r = line.time(0.0, r)
    traj = integrate_time_grid(p, Q0.to_float(), 0.0, np.linspace(0.0, 0.999 * t_r, 61))
    assert 0 < r - traj.states[-1].s < 1e-3
    for reach in (1.0, 1.5):
        with pytest.raises(ValueError, match="boundary root"):
            integrate_time_grid(p, Q0.to_float(), 0.0, np.linspace(0.0, reach * t_r, 61))


def test_time_grid_needs_neither_solve_ivp_nor_exact_roots(monkeypatch):
    from so3g2 import flow

    def refuse(*args, **kwargs):
        raise AssertionError("not to be called")

    p = BinaryForm(3, [0.3, -0.5, 0.7, -0.5])
    tg = np.linspace(0.0, 0.06, 61)
    with monkeypatch.context() as patch:
        patch.setattr(flow._sciint, "solve_ivp", refuse)
        patch.setattr(flow, "_poly_real_roots", refuse)
        traj = integrate_time_grid(p, Q0.to_float(), 0.0, tg)
    assert [st.t for st in traj.states] == tg.tolist() and traj.states[0].s == 0.0
    for st in traj.states[1:]:
        assert abs(time_integral(Q0.to_float(), p, 0.0, st.s) - st.t) <= 1e-14 * st.t


def test_oracle_stops_short_of_a_boundary_inside_t_span():
    # the complex semisimple class runs into the triple root u1^3 at s = 1;
    # with t_span twice its boundary time the oracle ends with "boundary",
    # just short of it and on the closed-form line
    d = structure_constants(ModelPoint.make([1.0, 0.0], [-1.0, 0.0, -1.0]))
    p = BinaryForm(3, [F(c) for c in flow_torsion_cubic(d).coeffs])
    t_b = time_integral(Q0, p, 0.0, 1.0)
    orc = direct_ode_oracle(d, GL2.identity(), (0.0, 2 * t_b), n_samples=21)
    assert orc.status == "boundary"
    assert 0.8 * t_b < orc.ts[-1] < t_b
    for t, q in zip(orc.ts, orc.qs):
        s_t = brentq(lambda s: time_integral(Q0, p, 0.0, s) - t, 0.0, 1.0, xtol=1e-15)
        q_closed = line_cubic(Q0, p, s_t)
        assert max(abs(float(a) - float(b)) for a, b in zip(q_closed.coeffs, q.coeffs)) < 1e-8


def _kernel_oracle(d, g0, t_span, n_samples):
    """The ODE oracle with its right-hand side and boundary event on the
    20-dimensional kernel (hitchin_dual_rows and _invariant_rows on
    gamma = B3_MATRIX @ y): the reference for the oracle on Lambda and G."""
    from scipy.integrate import solve_ivp
    from so3g2.exterior import BASIS
    from so3g2.flow import _BOUNDARY_MARGIN, OracleTrajectory
    from so3g2.stableform import B3_MATRIX, _invariant_rows, hitchin_dual_rows

    d = d.to_float()
    p_read = flow_torsion_cubic(d)
    q_init = q_map(g0)
    y0 = np.array([3.0 * q_init.coeffs[0], q_init.coeffs[1], q_init.coeffs[2],
                   3.0 * q_init.coeffs[3], float(g0.det()) ** 2], dtype=float)
    pv = np.array([3.0 * p_read.coeffs[0], p_read.coeffs[1], p_read.coeffs[2],
                   3.0 * p_read.coeffs[3]], dtype=float)
    d_1234 = d.d_matrix(3)[BASIS[4].index((1, 2, 3, 4))]

    def rhs(_t, y):
        ghat, stable = hitchin_dual_rows(B3_MATRIX @ y[:4])
        if not stable:
            raise ValueError("not stable of complex type")
        return np.concatenate([math.sqrt(max(y[4], 0.0)) * pv, [-(d_1234 @ ghat)]])

    def boundary(_t, y):
        gamma = B3_MATRIX @ y[:4]
        _, lam, _ = _invariant_rows(gamma)
        return min(y[4], -lam / max(1.0, np.abs(gamma).max()) ** 4 - _BOUNDARY_MARGIN)

    boundary.terminal = True
    sol = solve_ivp(rhs, t_span, y0, method="DOP853", rtol=1e-11, atol=1e-13, dense_output=True,
                    events=boundary, max_step=abs(t_span[1] - t_span[0]) / 8)
    ts = np.linspace(t_span[0], sol.t[-1], n_samples)
    ys = sol.sol(ts)
    status = "boundary" if sol.status == 1 else ("ok" if sol.status == 0 else "failed")
    return OracleTrajectory(ts=ts, qs=[BinaryForm(3, [a / 3, b, c, e / 3]) for a, b, c, e in ys[:4].T],
                            cs=ys[4], status=status)


def _oracle_lines():
    """(d, line, root) for the five model classes and 20 seeded half-flat
    float points drawn as the flow-g2 benchmark draws them, each with its
    closed-form line from Q0 and the first boundary root ahead on it: None
    for a class without one, and at least 0.25 for a seeded point."""
    out = []
    points = [([1.0, 0.0], [-1.0, 0.0, 1.0]), ([1.0, 0.0], [-1.0, 0.0, -1.0]),
              ([1.0, 0.0], [0.0, 0.0, -1.0]), ([0.0, 1.0], [0.0, 1.0, 0.0]),
              ([1.0, 0.0], [-1.0, 0.0, 0.0])]
    rng = random.Random(21)
    while len(out) < 25:
        if points:
            x, y = points.pop(0)
        else:
            x = [rng.uniform(-2.0, 2.0) for _ in range(2)]
            y = [rng.uniform(-2.0, 2.0) for _ in range(3)]
            if max(map(abs, x)) <= 0.1 or max(map(abs, y)) <= 0.1:
                continue
            # solve x1 y2 + x2 y1 = x2 y3 (lambda_2 = lambda_4) for one coordinate
            if abs(x[1]) >= abs(x[0]):
                y[2] = (x[0] * y[1] + x[1] * y[0]) / x[1]
            else:
                y[1] = x[1] * (y[2] - y[0]) / x[0]
            if not 0.1 < max(map(abs, y)) <= 2.0:
                continue
        d = structure_constants(ModelPoint.make(x, y))
        line = Line(Q0.to_float(), flow_torsion_cubic(d))
        root = line.boundary(math.inf)
        if len(out) < 5 or (root is not None and root >= 0.25):
            out.append((d, line, root))
    return out


def _state_gap(a, b) -> float:
    qa = np.array([q.coeffs for q in a.qs], dtype=float)
    qb = np.array([q.coeffs for q in b.qs], dtype=float)
    return max(float(np.abs(qa - qb).max()), float(np.abs(a.cs - b.cs).max()))


def test_oracle_on_the_invariant_tensors_matches_the_kernel_oracle():
    long_lines = 0
    for d, line, root in _oracle_lines():
        # on the benchmark span
        got = direct_ode_oracle(d, GL2.identity(), (0.0, 0.06), n_samples=61)
        ref = _kernel_oracle(d, GL2.identity(), (0.0, 0.06), 61)
        assert got.status == ref.status
        assert np.abs(got.ts - ref.ts).max() <= 1e-14
        assert _state_gap(got, ref) <= 1e-14
        if root is None:
            continue
        # past the boundary: c' grows like (-lambda)^(-1/2) next to the stop,
        # which amplifies rounding
        long_lines += 1
        t_b = line.time(0.0, root)
        got = direct_ode_oracle(d, GL2.identity(), (0.0, 2 * t_b), n_samples=21)
        ref = _kernel_oracle(d, GL2.identity(), (0.0, 2 * t_b), 21)
        assert got.status == ref.status == "boundary"
        assert abs(got.ts[-1] - ref.ts[-1]) <= 1e-12 * ref.ts[-1]
        scale = max(np.abs([q.coeffs for q in ref.qs]).max(), np.abs(ref.cs).max())
        assert _state_gap(got, ref) <= 1e-9 * scale
    assert long_lines >= 20


def test_oracle_does_not_call_the_20_dimensional_kernel(monkeypatch):
    from so3g2 import flow, stableform

    def refuse(*_args, **_kwargs):
        raise AssertionError("the oracle called the 20-dimensional kernel")

    for name in ("hitchin_dual_rows", "_invariant_rows", "_k_rows"):
        monkeypatch.setattr(stableform, name, refuse)
        assert not hasattr(flow, name)
    d = structure_constants(ModelPoint.make([1.0, 0.0], [-1.0, 0.0, -1.0]))
    assert direct_ode_oracle(d, GL2.identity(), (0.0, 0.06), n_samples=5).status == "ok"
    assert direct_ode_oracle(d, GL2.identity(), (0.0, 2.0), n_samples=5).status == "boundary"


@pytest.mark.parametrize("eps", [1e-6, 1e-8])
def test_frames_next_to_a_boundary_root_reproduce_the_cubic(eps):
    # at s = r (1 - eps) before the first boundary root r the frame is nearly
    # singular; the closed-form inversion still has a tiny backward error
    rng = random.Random(5)
    q0 = Q0.to_float()
    worst = 0.0
    lines = 0
    while lines < 200:
        p = BinaryForm(3, [rng.uniform(-1, 1) for _ in range(4)])
        ahead = [r for r, _ in _poly_real_roots(line_discriminant_poly(q0, p)) if r > 0]
        if not ahead:
            continue
        lines += 1
        q = line_cubic(q0, p, min(ahead) * (1 - eps))
        for g in q_invert(q):
            back = q_map(g)
            worst = max(worst, max(abs(a - b) for a, b in zip(back.coeffs, q.coeffs)) / q.norm())
    assert worst <= 1e-9
