import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_float_point
from so3g2.binaryform import BinaryForm, GL2
from so3g2.flow import (
    FlowState,
    Q0,
    Trajectory,
    flow_torsion_cubic,
    integrate_line,
    integrate_time_grid,
    time_integral,
)
from so3g2.g2 import (
    MetricFamily,
    Power,
    assemble_g2,
    bs_metric,
    case2_family,
    case3_family,
    check_closedness,
    frame_metric6,
    ricci7,
    smoothness_check,
    smoothness_obstruction,
    triality_action,
    triality_matrix,
)
from so3g2.curvature import levi_civita_oracle
from so3g2.exterior import apply_d, wedge
from so3g2.stableform import SIGMA, cubic_to_3form, hitchin_dual
from so3g2.variety import ModelPoint, structure_constants


def bs_setup(lam=1.0, s0=0.5, t_len=0.06, h=1e-3):
    m = ModelPoint.make([1.0, 0.0], [-1.0, 0.0, 1.0])
    d = structure_constants(m)
    p = flow_torsion_cubic(d)
    q_b = BinaryForm(3, [lam, 0.0, 0.0, 0.0])
    t0 = time_integral(q_b, p, 0.0, s0)
    tg = t0 + np.arange(0.0, t_len + h / 2, h)
    traj = integrate_time_grid(p, q_b, s0, tg)
    return d, traj


def test_closedness_on_symmetric_trajectory():
    d, traj = bs_setup()
    samples = assemble_g2(traj)
    dphi, dstar = check_closedness(samples, d)
    assert dphi < 1e-6
    assert dstar < 1e-6


def test_closedness_convention_is_unique():
    d, traj = bs_setup(t_len=0.02)
    samples = assemble_g2(traj)
    # the opposite sign of the d gamma_hat ^ dt term
    _, dstar_wrong = check_closedness(replace(samples, gamma_hat=-samples.gamma_hat), d)
    assert dstar_wrong > 1e-2


def test_closedness_perturbed_control():
    d, traj = bs_setup()
    pert = Trajectory(p=traj.p, q_start=traj.q_start)
    for st, g in zip(traj.states, traj.frames):
        qp = BinaryForm(3, [st.q.coeffs[0],
                            st.q.coeffs[1] + 0.01 * math.sin(40.0 * st.t),
                            st.q.coeffs[2], st.q.coeffs[3]])
        pert.states.append(FlowState(q=qp, p=st.p, s=st.s, t=st.t, detg=st.detg))
        pert.frames.append(g)
    dphi, _ = check_closedness(assemble_g2(pert), d)
    assert dphi > 1e-3


def test_closedness_static_torsion_free():
    d = structure_constants(ModelPoint.make([0.0, 0.0], [0.0, 0.0, 0.0]))
    q0 = Q0.to_float()
    states = [FlowState(q=q0, p=BinaryForm(3, [0.0] * 4), s=0.0, t=i * 1e-3, detg=1.0)
              for i in range(6)]
    traj = Trajectory(p=BinaryForm(3, [0.0] * 4), q_start=q0, states=states,
                      frames=[GL2.identity()] * 6)
    samples = assemble_g2(traj)
    dphi, dstar = check_closedness(samples, d)
    # exactly zero in the algebra directions, only time-difference noise
    assert dphi < 1e-12 and dstar < 1e-12


def test_nearly_kahler_cone_evolution():
    # the symmetric point evolves conically: q(t) proportional to q(0)
    m = ModelPoint.make([1.0, 0.0], [-1.0, 0.0, 3.0])
    d = structure_constants(m)
    p = flow_torsion_cubic(d)
    tg = np.linspace(0.0, 0.3, 13)
    traj = integrate_time_grid(p, Q0.to_float(), 0.0, tg)
    for st in traj.states:
        ratio = [float(a) / float(b) for a, b in zip(st.q.coeffs, Q0.coeffs)
                 if float(b) != 0]
        assert abs(ratio[0] - ratio[1]) < 1e-10
    samples = assemble_g2(traj)
    dphi, dstar = check_closedness(samples, d)
    assert max(dphi, dstar) < 1e-6


def test_bs_metric_values_and_errors():
    m = bs_metric(1.0, 0.0)
    assert abs(m[0, 0] - 3.0 ** (2.0 / 3.0)) < 1e-14
    assert abs(m[3, 3] - 4.0 * 3.0 ** (-1.0 / 3.0)) < 1e-14
    assert np.allclose(bs_metric(2.0, 0.8), bs_metric(2.0, -0.8))
    with pytest.raises(ValueError):
        bs_metric(-1.0, 0.0)


def test_bs_metric_rescaling_normalizes_lambda():
    # scaling z by lam^(1/2) relates the lam family to the unit one
    lam, z = 2.0, 0.7
    left = bs_metric(lam, z)
    right = bs_metric(1.0, z / math.sqrt(lam))
    assert np.allclose(left[:3, :3], lam ** (2.0 / 3.0) * right[:3, :3])
    assert np.allclose(left[3:, 3:], lam ** (-1.0 / 3.0) * right[3:, 3:])


def test_smoothness_cases():
    for lam in (0.5, 1.0, 2.0):
        assert smoothness_check(case3_family(lam))
    assert smoothness_check(case2_family(1.0 / 3.0))
    assert not smoothness_check(case2_family(1.0))
    assert not smoothness_check(case2_family(0.1))
    # lam = 0 is the cone over the orbit, and lam < 0 leaves the domain
    for lam in (0.0, -1.0):
        assert not smoothness_check(case3_family(lam))
        assert not smoothness_check(case2_family(lam))
    obs = smoothness_obstruction(case2_family(1.0))
    assert abs(obs - (1.0 - 3.0 ** (1.0 / 3.0))) < 1e-8


def test_bs_metric_float_powers_match_fraction_exponents():
    for lam, z in ((1.0, 0.0), (1.0, 0.37), (2.5, -1.3), (0.2, 7.0)):
        r = 3 * (z * z + lam)
        want = [r ** Fraction(2, 3)] * 3 + [4 * z ** 0 * r ** Fraction(-1, 3)] * 4
        assert list(np.diag(bs_metric(lam, z))) == want
    # exact and symbolic bases keep the Fraction exponent
    exact = case3_family(Fraction(1, 3)).value(Power(1, 1, Fraction(-1)), Fraction(1))
    assert exact == Fraction(1, 4) and isinstance(exact, Fraction)
    sp = pytest.importorskip("sympy")
    z, lam = sp.symbols("z lam", positive=True)
    fam = case3_family(lam)
    assert fam.value(fam.base, z) == (3 * (z ** 2 + lam)) ** sp.Rational(2, 3)


def test_smoothness_obstruction_names_a_pole():
    fam = MetricFamily(1.0, Power(1.0, 0, 0), Power(1.0, 1, 0), Power(1.0, 0, 0))
    assert not smoothness_check(fam)
    with pytest.raises(ValueError, match="angular coefficient has a pole at z = 0"):
        smoothness_obstruction(fam)
    fam = MetricFamily(1.0, Power(1.0, 0, 0), Power(1.0, 2, 0), Power(1.0, -1, 0))
    with pytest.raises(ValueError, match="radial coefficient has a pole at z = 0"):
        smoothness_obstruction(fam)


def test_smoothness_rejects_odd_component():
    fam = MetricFamily(1.0, base=Power(1.0, 1, 0), fib=Power(0.25, 2, 0),
                       rad=Power(1.0, 0, 0))
    assert not smoothness_check(fam)


def test_flow_metric_matches_complete_family():
    # along the trajectory from q = lam u1^3: base and fibre eigenvalues
    # follow (3(s+lam))^(2/3) and s (3(s+lam))^(-1/3), i.e. the complete
    # metric functions in z^2 = s
    lam = 1.0
    p = BinaryForm(3, [1.0, 0.0, -1.0, 0.0])
    q_b = BinaryForm(3, [lam, 0.0, 0.0, 0.0])
    svals = np.linspace(0.2, 3.0, 9)
    traj = integrate_line(p, q_b, svals)
    for s, g in zip(svals, traj.frames):
        block = frame_metric6(g)[:2, :2]
        ev = np.sort(np.linalg.eigvalsh(block))
        assert abs(ev[1] - (3 * (s + lam)) ** (2.0 / 3.0)) < 1e-9
        assert abs(ev[0] - s * (3 * (s + lam)) ** (-1.0 / 3.0)) < 1e-9
        z = math.sqrt(s)
        m7 = bs_metric(lam, z)
        assert abs(ev[1] - m7[0, 0]) < 1e-9
        # the 7-dim fibre coefficient is 4 fib / z^2 in the flat chart
        assert abs(4.0 * ev[0] / (z * z) - m7[3, 3]) < 1e-9


def test_triality_matrix_and_action():
    assert np.allclose(triality_matrix(3).to_array(), np.eye(2), atol=0)
    m = ModelPoint.make([1.0, 0.0], [1.0, 0.0, -1.0])
    xs = []
    for k in range(3):
        mk = triality_action(k, m)
        tor = mk.x * mk.y
        assert max(abs(float(a) - float(b))
                   for a, b in zip(tor.coeffs, (1.0, 0.0, -1.0, 0.0))) < 1e-12
        a, b = (float(v) for v in mk.x.coeffs)
        n = math.hypot(a, b)
        a, b = a / n, b / n
        if a < 0 or (a == 0 and b < 0):
            a, b = -a, -b
        xs.append((round(a, 6), round(b, 6)))
    assert len(set(xs)) == 3  # three distinct linear factors


def test_triality_requires_compact_class():
    with pytest.raises(ValueError):
        triality_action(1, ModelPoint.make([1.0, 0.0], [1.0, 0.0, 1.0]))


def test_triality_frame_identification():
    lam = 1.0
    p = BinaryForm(3, [1.0, 0.0, -1.0, 0.0])
    q_b = BinaryForm(3, [lam, 0.0, 0.0, 0.0])
    svals = np.linspace(0.3, 1.5, 5)
    traj0 = integrate_line(p, q_b, svals)
    mets0 = [frame_metric6(g)[:2, :2] for g in traj0.frames]
    for k in (1, 2):
        ellk = triality_matrix(k)
        qk = q_b.substitute(ellk.x, ellk.y, ellk.z, ellk.w)
        pk = p.substitute(ellk.x, ellk.y, ellk.z, ellk.w)
        assert max(abs(float(a) - float(b)) for a, b in zip(pk.coeffs, p.coeffs)) < 1e-12
        trajk = integrate_line(p, qk, svals)
        lk = ellk.to_array()
        for i, g in enumerate(trajk.frames):
            got = frame_metric6(g)[:2, :2]
            want = lk.T @ mets0[i] @ lk
            assert np.max(np.abs(got - want)) < 1e-10


def test_ricci7_spot_checks():
    m = ModelPoint.make([1.0, 0.0], [-1.0, 0.0, 1.0])
    d = structure_constants(m)
    for z in (0.4, 0.9, 1.6):
        assert np.max(np.abs(ricci7(case3_family(1.0), d, z))) < 1e-5
    # negative control: the displayed collapsing family away from the
    # flat parameter is visibly non-Ricci-flat
    m2 = ModelPoint.make([1.0, 0.0], [0.0, 0.0, -1.0])
    d2 = structure_constants(m2)
    assert np.max(np.abs(ricci7(case2_family(1.0), d2, 0.8))) > 1e-1


def test_ricci7_next_to_the_collapsed_orbit():
    # the closed-form frame derivatives keep the Ricci-flat family flat to
    # rounding where the fibre collapses (rounding grows like 1/z^2)
    d = structure_constants(ModelPoint.make([1.0, 0.0], [-1.0, 0.0, 1.0]))
    for lam in (0.5, 1.0, 2.0):
        for z in np.geomspace(0.01, 6.0, 25):
            assert np.max(np.abs(ricci7(case3_family(lam), d, z))) < 1e-10


def _distinct_ricci7(family, d, z):
    sp = pytest.importorskip("sympy")
    return {sp.cancel(v) for v in ricci7(family, d, z).ravel()}


def test_symbolic_ricci7_of_complete_family_vanishes():
    sp = pytest.importorskip("sympy")
    z, lam = sp.symbols("z lam", positive=True)
    d = structure_constants(ModelPoint.make([1, 0], [-1, 0, 1]))
    fam = case3_family(lam)
    assert _distinct_ricci7(fam, d, z) == {0}
    # negative control: radial exponent -1/4 in place of -1/3, exactly at z = lam = 1
    bad = MetricFamily(1, fam.base, fam.fib, Power(4, 0, Fraction(-1, 4)))
    assert _distinct_ricci7(bad, d, sp.Integer(1)) != {0}


def test_symbolic_ricci7_of_double_root_family_pins_lambda():
    sp = pytest.importorskip("sympy")
    z, lam = sp.symbols("z lam", positive=True)
    third = sp.Rational(1, 3)
    d = structure_constants(ModelPoint.make([1, 0], [0, 0, -1]))
    (entry,) = _distinct_ricci7(case2_family(lam), d, z) - {0}
    assert sp.cancel(entry - 2 * (3 ** (2 * third) - 3 * lam ** third)
                     / (3 * lam ** third * z ** 2)) == 0
    assert sp.solve(entry, lam) == [third]
    fam = case2_family(third)
    assert _distinct_ricci7(fam, d, z) == {0}
    # negative control: fibre exponent 1/4 in place of 0, exactly at z = 1
    bad = MetricFamily(third, fam.base, Power(fam.fib.coef, 2, Fraction(1, 4)), fam.rad)
    assert _distinct_ricci7(bad, d, sp.Integer(1)) != {0}


def test_ricci7_of_product_matches_six_dim_oracle(rng):
    # constant coefficients: the product of a line with the group metric
    product = MetricFamily(1.0, *[Power(1.0, 0, 0)] * 3)
    for _ in range(10):
        d = structure_constants(random_float_point(rng))
        ric6 = levi_civita_oracle(d).ricci
        ric7 = ricci7(product, d, rng.uniform(0.2, 2.0))
        scale = max(1.0, float(np.max(np.abs(ric6))))
        assert np.max(np.abs(ric7[1:, 1:] - ric6)) < 1e-12 * scale
        assert np.max(np.abs(ric7[0, :])) < 1e-12 * scale
        assert np.max(np.abs(ric7[:, 0])) < 1e-12 * scale


def test_g2_sample_export():
    d, traj = bs_setup(t_len=0.004)
    samples = assemble_g2(traj)
    n = len(traj.states)
    assert len(samples) == n
    assert samples.t.shape == samples.detg.shape == (n,)
    assert samples.gamma.shape == samples.gamma_hat.shape == (n, 20)
    assert samples.frames == traj.frames
    payload = samples.to_json()
    assert len(payload) == n
    assert set(payload[0]) == {"t", "phi_terms", "starphi_terms", "metric7"}
    idxs = [tuple(t["idx"]) for t in payload[0]["phi_terms"]]
    assert any(7 in idx for idx in idxs)      # the sigma ^ dt part
    assert any(7 not in idx for idx in idxs)  # the gamma part
    assert len(payload[0]["metric7"]) == 7


def test_assemble_truncates_at_stability_loss(recwarn):
    import warnings as _w
    # a fake trajectory running past the discriminant boundary
    p = BinaryForm(3, [1.0, 0.0, -1.0, 0.0])
    states, frames = [], []
    for i, s in enumerate([1.0, 0.5, 0.25, -0.1]):  # last point has Delta < 0
        q = BinaryForm(3, [1.0 + s, 0.0, -s, 0.0])
        states.append(FlowState(q=q, p=p, s=s, t=float(i), detg=0.0))
        frames.append(GL2.identity())
    traj = Trajectory(p=p, q_start=states[0].q, states=states, frames=frames)
    with _w.catch_warnings(record=True) as rec:
        _w.simplefilter("always")
        samples = assemble_g2(traj)
    assert len(samples) == 3
    assert any("truncated" in str(w.message) for w in rec)


# -- the array route against the per-sample KForm route ---------------------

MODEL_CLASSES = [
    ([1.0, 0.0], [-1.0, 0.0, 1.0]),    # compact semisimple
    ([1.0, 0.0], [-1.0, 0.0, -1.0]),   # complex semisimple
    ([1.0, 0.0], [0.0, 0.0, -1.0]),    # semidirect collapse
    ([0.0, 1.0], [0.0, 1.0, 0.0]),     # direct sum with center
    ([1.0, 0.0], [-1.0, 0.0, 0.0]),    # nilpotent
]


def loop_assemble(traj):
    """(gamma, sigma, sigma^2/2, gamma_hat) per state, as assemble_g2
    built them one sample at a time."""
    out = []
    for st in traj.states:
        gamma = cubic_to_3form(st.q).to_float()
        sigma_t = st.detg * SIGMA.to_float()
        out.append((gamma, sigma_t, 0.5 * wedge(sigma_t, sigma_t), hitchin_dual(gamma)))
    return out


def loop_closedness(forms, d, h):
    """check_closedness as a loop of apply_d over the samples."""
    d = d.to_float()
    gammas, sigmas, half_sigma2s, ghats = zip(*forms)

    def ddt(fs, i):
        return (fs[i - 2] - 8.0 * fs[i - 1] + 8.0 * fs[i + 1] - fs[i + 2]) / (12.0 * h)

    max_dphi = max_dstar = 0.0
    for i in range(2, len(forms) - 2):
        max_dphi = max(max_dphi, apply_d(d, gammas[i]).max_abs(),
                       (apply_d(d, sigmas[i]) - ddt(gammas, i)).max_abs())
        max_dstar = max(max_dstar, apply_d(d, half_sigma2s[i]).max_abs(),
                        (apply_d(d, ghats[i]) + ddt(half_sigma2s, i)).max_abs())
    return max_dphi, max_dstar


@pytest.mark.parametrize("x, y", MODEL_CLASSES)
def test_closedness_matches_per_sample_loop(x, y):
    d = structure_constants(ModelPoint.make(x, y))
    p = flow_torsion_cubic(d)
    tg = np.linspace(0.0, 0.06, 61)
    traj = integrate_time_grid(p, Q0.to_float(), 0.0, tg)
    samples = assemble_g2(traj)
    forms = loop_assemble(traj)
    assert len(samples) == len(forms) == 61
    assert samples.t.tolist() == [st.t for st in traj.states]
    assert samples.detg.tolist() == [st.detg for st in traj.states]
    for gamma_row, ghat_row, (gamma, _, _, ghat) in zip(samples.gamma, samples.gamma_hat, forms):
        assert gamma_row.tolist() == gamma.to_vector(float).tolist()
        assert np.abs(ghat_row - ghat.to_vector(float)).max() <= 1e-14 * ghat.max_abs()
    for sign in (1.0, -1.0):
        # sign -1 flips the sign of the d gamma_hat ^ dt term, exactly
        got = check_closedness(replace(samples, gamma_hat=sign * samples.gamma_hat), d)
        want = loop_closedness([(g, s, h, sign * gh) for g, s, h, gh in forms], d, tg[1] - tg[0])
        assert all(type(v) is float for v in got)
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12
        # the opposite sign fails on every class
        assert (got[1] > 1e-2) == (sign < 0)


def loop_export(traj):
    """assemble_g2(traj).to_json() built one sample at a time from the
    KForms of loop_assemble and the frame metric."""
    def terms(space, dt_part):
        pairs = [(idx, float(c)) for idx, c in space.coeffs.items()]
        pairs += [(idx + (7,), float(c)) for idx, c in dt_part.coeffs.items()]
        return [{"idx": list(idx), "value": v} for idx, v in sorted(pairs)]

    out = []
    for st, g, (gamma, sigma_t, half_sigma2, ghat) in zip(traj.states, traj.frames,
                                                          loop_assemble(traj)):
        metric7 = np.eye(7)
        metric7[:6, :6] = frame_metric6(g)
        out.append({"t": st.t, "phi_terms": terms(gamma, sigma_t),
                    "starphi_terms": terms(half_sigma2, ghat), "metric7": metric7.tolist()})
    return out


def assert_export_matches(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert set(g) == set(w)
        assert g["t"] == w["t"] and g["metric7"] == w["metric7"]
        assert g["phi_terms"] == w["phi_terms"]   # gamma and sigma ^ dt, exactly
        g_star, w_star = ({tuple(t["idx"]): t["value"] for t in x["starphi_terms"]}
                          for x in (g, w))
        # sigma^2 / 2 exactly, gamma_hat ^ dt to rounding
        assert {k: v for k, v in g_star.items() if 7 not in k} \
            == {k: v for k, v in w_star.items() if 7 not in k}
        scale = max(abs(v) for k, v in w_star.items() if 7 in k)
        assert all(abs(g_star.get(k, 0.0) - w_star.get(k, 0.0)) <= 1e-14 * scale
                   for k in set(g_star) | set(w_star) if 7 in k)


@pytest.mark.parametrize("x, y", MODEL_CLASSES)
def test_g2_export_matches_per_sample_forms(x, y):
    d = structure_constants(ModelPoint.make(x, y))
    traj = integrate_time_grid(flow_torsion_cubic(d), Q0.to_float(), 0.0, np.linspace(0.0, 0.06, 13))
    assert_export_matches(assemble_g2(traj).to_json(), loop_export(traj))


def test_g2_export_of_a_truncated_trajectory():
    p = BinaryForm(3, [1.0, 0.0, -1.0, 0.0])
    traj = integrate_line(p, Q0.to_float(), np.linspace(0.0, 0.3, 6))
    kept = Trajectory(p=p, q_start=traj.q_start, states=list(traj.states), frames=list(traj.frames))
    # a last state past the boundary: u1^3 + u1 u2^2 has one real root, so Delta < 0
    traj.states.append(FlowState(q=BinaryForm(3, [1.0, 0.0, 1.0, 0.0]), p=p, s=9.0, t=9.0, detg=0.0))
    traj.frames.append(GL2.identity())
    with pytest.warns(UserWarning, match="truncated"):
        samples = assemble_g2(traj)
    assert len(samples) == 6
    assert_export_matches(samples.to_json(), loop_export(kept))
