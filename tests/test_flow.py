import json
import math
import random
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq

from so3g2.binaryform import BinaryForm, GL2, act, discriminant, q_invert, q_map
from so3g2.cli import main
from so3g2.flow import (
    CANONICAL_GENERATORS,
    EndpointKind,
    FlowState,
    InvalidEndpoint,
    Q0,
    advance,
    clock_detg,
    contraction_field,
    contraction_plane,
    direct_ode_oracle,
    endpoint_classify,
    flow_torsion_cubic,
    frame_change_torsion,
    halfflat_condition,
    hamiltonian,
    hermitian_condition,
    integrate_line,
    integrate_time_grid,
    line_cubic,
    line_discriminant_poly,
    no_complete_line_witness,
    plane_is_invariant,
    planes_equal,
    time_integral,
    _poly_deriv,
    _poly_gcd,
    _poly_real_roots,
    _square_free_split,
)
from so3g2.variety import ModelPoint, structure_constants, torsion_of


def halfflat_cubic(rng, span=1.5):
    l1, l2, l3 = (rng.uniform(-span, span) for _ in range(3))
    return BinaryForm(3, [l1, l2, l3, l2])


def test_halfflat_condition_identity_frame():
    # at the identity the condition reduces to l2 - l4
    p = BinaryForm(3, [2.0, 5.0, -1.0, 5.0])
    assert abs(halfflat_condition(p, GL2.identity())) < 1e-14
    p = BinaryForm(3, [1.0, 0.0, 0.0, 0.0])
    assert abs(halfflat_condition(p, GL2.identity())) < 1e-14
    p = BinaryForm(3, [0.0, 1.0, 0.0, 0.0])
    assert halfflat_condition(p, GL2.identity()) != 0


def test_halfflat_condition_row_proportional():
    rng = random.Random(31)
    h = 1.0 / math.sqrt(3.0)
    for _ in range(10):
        x, y = rng.uniform(-2, 2), rng.uniform(-2, 2)
        p = BinaryForm(3, [rng.uniform(-2, 2) for _ in range(4)])
        g = GL2(x, y, h * x, h * y)
        assert abs(halfflat_condition(p, g)) < 1e-12
        g_bad = GL2(x, y, 0.5 * x, 0.5 * y)
        if abs(float(p(y, -x))) > 1e-3:
            assert abs(halfflat_condition(p, g_bad)) > 1e-6


def test_hermitian_condition_examples():
    # l1 = l3 with l2 = l4 = 0 is Hermitian at the identity
    p = BinaryForm(3, [1.5, 0.0, 1.5, 0.0])
    assert abs(hermitian_condition(p, GL2.identity())) < 1e-14
    assert abs(hermitian_condition(BinaryForm(3, [1.0, 0.0, 0.0, 0.0]),
                                   GL2.identity()) - 1.0) < 1e-14
    assert hermitian_condition(BinaryForm(3, [0.0] * 4), GL2.identity()) == 0


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
        assert abs(clock_detg(q) ** 6 - 0.75 * float(discriminant(q))) < 1e-12


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
    # p = 0: q constant, t advances at rate 1/detg
    q0 = BinaryForm(3, [1.0 / 3.0, 0.0, -1.0, 0.0])
    st = FlowState(q=q0, p=BinaryForm(3, [0.0] * 4), s=0.0, t=0.0,
                   detg=clock_detg(q0))
    st2, clamped = advance(st, 2.0)
    assert not clamped
    assert st2.q == q0
    assert abs(st2.t - 2.0 / st.detg) < 1e-10
    # clamping at the discriminant boundary
    p = BinaryForm(3, [1.0, 0.0, -1.0, 0.0])
    st = FlowState(q=line_cubic(BinaryForm(3, [1.0, 0, 0, 0]), p, 1.0), p=p,
                   s=1.0, t=0.0, detg=1.0)
    st2, clamped = advance(st, -5.0)
    assert clamped
    assert abs(st2.s - 0.0) < 1e-9  # boundary at s = 0 where q = u1^3


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
    # negative, so the rejection comes from the line-positivity check
    with pytest.raises(InvalidEndpoint):
        endpoint_classify(BinaryForm(3, [1.0, 0.0, 1.0, 0.0]),
                          BinaryForm(3, [0.0, 0.0, 0.0, 2.0]))


def test_no_complete_line_witness_examples():
    s = no_complete_line_witness(BinaryForm(3, [1.0, 0.0, 0.0, 0.0]))
    assert abs(s + 1.0 / 3.0) < 1e-8
    # the Hermitian-containing direction has negative leading coefficient
    p = BinaryForm(3, [1.0, 0.0, 1.0, 0.0])
    poly = [float(c) for c in line_discriminant_poly(Q0.to_float(), p)]
    assert poly[0] < 0
    s = no_complete_line_witness(p)
    assert float(discriminant(line_cubic(Q0.to_float(), p, s))) < 0
    # the split direction has a real zero
    s = no_complete_line_witness(BinaryForm(3, [1.0, 0.0, -1.0, 0.0]))
    assert float(discriminant(line_cubic(Q0.to_float(),
                                         BinaryForm(3, [1.0, 0.0, -1.0, 0.0]),
                                         s))) < 1e-8


def test_no_complete_line_witness_random():
    rng = random.Random(34)
    for _ in range(100):
        p = halfflat_cubic(rng)
        if p.norm() < 0.05:
            continue
        s = no_complete_line_witness(p)
        assert float(discriminant(line_cubic(Q0.to_float(), p, s))) <= 1e-6


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
        assert abs(hermitian_condition(p, GL2.identity())) < 1e-12


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


def test_real_roots_carry_exact_multiplicities():
    # the zero cubic on a line: Delta = 4 (s - 3/2)^4
    poly = line_discriminant_poly(BinaryForm(3, [F(-3, 2), 0, F(3, 2), 0]),
                                  BinaryForm(3, [1, 0, -1, 0]))
    assert _poly_real_roots(poly) == [(1.5, 4)]
    # a leading coefficient at rounding level is a degree drop
    assert _poly_real_roots([1e-20, 1.0, -2.0, 1.0]) == [(1.0, 2)]
    assert _poly_real_roots([5]) == []


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
def test_clock_at_a_multiple_root_against_mpmath(k):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
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
        assert abs(got - ref) <= 1e-10 * max(1.0, abs(ref)), (k, q0, p, got, ref)


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
