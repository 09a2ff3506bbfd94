import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from so3g2.binaryform import BinaryForm, cubic_covariant, discriminant
from so3g2.exterior import BASIS, DIM, KForm, interior, pullback, wedge, wedge_all
from so3g2.stableform import (
    B3_MATRIX,
    GAMMA,
    GAMMA_HAT,
    REFERENCE_VOLUME,
    SIGMA,
    _B_DUAL,
    _B_LAMBDA,
    _DUAL,
    _K_PAIRS,
    _K_TENSOR,
    _STABLE_TOL,
    _VOL,
    _invariant_rows,
    _k_matrix,
    cubic_to_3form,
    hitchin_dual,
    hitchin_dual_rows,
    hitchin_invariant,
    standard_forms,
    threeform_to_cubic,
    volume_gamma,
    volume_of_stable,
)


def test_gamma_is_average_of_simple_forms():
    forms = standard_forms()
    avg = (4.0 / 3.0) * (forms.eta[0] + forms.eta[1] + forms.eta[2])
    assert (avg - GAMMA.to_float()).max_abs() < 1e-14


def test_gamma_coefficients():
    assert GAMMA[(1, 3, 5)] == 1
    assert GAMMA[(2, 4, 6)] == 0
    assert GAMMA_HAT[(2, 4, 6)] == -1


def test_sigma_compatibility():
    assert wedge(GAMMA, SIGMA).is_zero()
    assert wedge(GAMMA_HAT, SIGMA).is_zero()


def test_gamma_wedge_dual_is_two_thirds_sigma_cubed():
    assert wedge(GAMMA, GAMMA_HAT) == F(2, 3) * wedge_all(SIGMA, SIGMA, SIGMA)


def test_dsigma_decomposition_identity():
    # 3 l1 e135 + l2 (e235+e145+e136) + l3 (e146+e236+e245) + 3 l4 e246
    #   = (3/4)(l1 - l3) gamma + (3/4)(l2 - l4) gamma_hat + beta
    rng = random.Random(21)
    for _ in range(10):
        l1, l2, l3, l4 = (F(rng.randint(-5, 5)) for _ in range(4))
        lhs = cubic_to_3form(BinaryForm(3, [l1, l2, l3, l4]))
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
        rhs = F(3, 4) * (l1 - l3) * GAMMA + F(3, 4) * (l2 - l4) * GAMMA_HAT + beta
        assert lhs == rhs


def test_hitchin_dual_standard_forms():
    dual = hitchin_dual(GAMMA)
    assert (dual - GAMMA_HAT.to_float()).max_abs() < 1e-13
    ddual = hitchin_dual(dual)
    assert (ddual + GAMMA.to_float()).max_abs() < 1e-12


def test_hitchin_dual_scaling():
    rng = random.Random(22)
    c = rng.uniform(0.2, 3.0)
    lhs = hitchin_dual(c * GAMMA.to_float())
    rhs = c * hitchin_dual(GAMMA.to_float())
    assert (lhs - rhs).max_abs() < 1e-12


def test_hitchin_dual_rejects_positive_type():
    # e123 + e456 is stable of real type, not complex
    rho = KForm(3, {(1, 2, 3): 1.0, (4, 5, 6): 1.0})
    with pytest.raises(ValueError, match="not stable"):
        hitchin_dual(rho)


def test_decomposability_witness():
    # dual(gamma) ^ gamma = gamma_hat ^ gamma and the product orients e123456
    dual = hitchin_dual(GAMMA)
    lhs = wedge(dual, GAMMA.to_float())
    rhs = wedge(GAMMA_HAT.to_float(), GAMMA.to_float())
    assert (lhs - rhs).max_abs() < 1e-12
    prod = wedge(GAMMA, GAMMA_HAT)
    assert prod[(1, 2, 3, 4, 5, 6)] > 0


def test_volume_gamma_constant_slices():
    assert volume_gamma(0.0, BinaryForm(3, [1.0, 0.5, -2.0, 0.5])) == 2.0
    assert volume_gamma(1.7, BinaryForm(3, [0.0, 0.0, 0.0, 0.0])) == 2.0


def test_volume_gamma_requires_halfflat():
    with pytest.raises(ValueError, match="half-flat"):
        volume_gamma(0.1, BinaryForm(3, [1.0, 0.3, 0.0, -0.3]))


def test_volume_gamma_example_against_both_oracles():
    lam = BinaryForm(3, [1.0, 0.0, -1.0, 0.0])
    v = volume_gamma(1.0, lam)
    assert abs(v ** 2 - 128.0) < 1e-10
    rho = GAMMA.to_float() + 1.0 * cubic_to_3form(lam).to_float()
    assert abs(volume_of_stable(rho) - v) < 1e-10


def test_volume_gamma_matches_stable_volume_on_random_halfflat():
    rng = random.Random(23)
    checked = 0
    while checked < 100:
        lam = BinaryForm(3, [rng.uniform(-1.5, 1.5), 0.0, rng.uniform(-1.5, 1.5), 0.0])
        lam = BinaryForm(3, [lam.coeffs[0], rng.uniform(-1.0, 1.0),
                             lam.coeffs[2], 0.0])
        lam = BinaryForm(3, [lam.coeffs[0], lam.coeffs[1], lam.coeffs[2],
                             lam.coeffs[1]])
        a1 = rng.uniform(-0.25, 0.25)
        try:
            v = volume_gamma(a1, lam)
        except ValueError:
            continue
        rho = GAMMA.to_float() + a1 * cubic_to_3form(lam).to_float()
        try:
            vo = volume_of_stable(rho)
        except ValueError:
            continue
        checked += 1
        assert abs(v - vo) < 1e-10


def test_volume_gamma_degenerate_raises():
    lam = BinaryForm(3, [0.0, 0.0, 1.0, 0.0])
    # V^2 = 4 - 12 a1 + 12 a1^2 - 4 a1^3 = 4 (1 - a1)^3: negative past 1
    with pytest.raises(ValueError, match="degenerate"):
        volume_gamma(2.5, lam)


def test_threeform_to_cubic_round_trip():
    q = BinaryForm(3, [F(1, 3), F(2), F(-1), F(5)])
    assert threeform_to_cubic(cubic_to_3form(q)) == q
    with pytest.raises(ValueError):
        threeform_to_cubic(KForm(3, {(1, 2, 3): 1.0}))


def test_hitchin_invariant_orientation_scale():
    lam_ref = hitchin_invariant(GAMMA)
    assert lam_ref < 0
    lam_unit = hitchin_invariant(GAMMA, KForm(6, {(1, 2, 3, 4, 5, 6): 1.0}))
    # invariant scales inverse-quadratically with the reference volume
    assert abs(lam_unit - lam_ref * 9.0) < 1e-12


# -- Hitchin's K as a fixed tensor against the wedge/interior loop ----------

def ref_k_matrix(rho, vol_coeff):
    """_k_matrix as the package computed it before K became T rho rho."""
    k = np.zeros((6, 6))
    for j in range(1, DIM + 1):
        xi = wedge(interior(j, rho), rho)
        for i in range(1, DIM + 1):
            comp = tuple(n for n in range(1, DIM + 1) if n != i)
            sign = (-1) ** (i - 1)
            k[i - 1, j - 1] = sign * float(xi.coeffs.get(comp, 0)) / vol_coeff
    return k


def ref_hitchin_dual(rho):
    """hitchin_dual on the loop kernels, with the same stability test."""
    from test_exterior import ref_pullback

    rho_f = rho.to_float()
    k = ref_k_matrix(rho_f, float(REFERENCE_VOLUME.coeffs[tuple(range(1, DIM + 1))]))
    lam = float(np.trace(k @ k)) / 6.0
    scale = max(1.0, rho_f.max_abs()) ** 4
    if lam >= -1e-14 * scale:
        raise ValueError("not stable of complex type")
    return ref_pullback(k / math.sqrt(-lam), rho_f)


def _random_3form(rng, kind, density=0.6):
    coeffs = {}
    for idx in BASIS[3]:
        if rng.random() < density:
            v = rng.randint(-4, 4)
            if kind == "mixed":
                kind_here = rng.choice(("int", "frac", "float"))
            else:
                kind_here = kind
            coeffs[idx] = {"int": v, "frac": F(v, rng.randint(1, 5)),
                           "float": rng.uniform(-3.0, 3.0)}[kind_here]
    return KForm(3, coeffs)


@pytest.mark.parametrize("kind", ["int", "frac", "float", "mixed"])
def test_k_matrix_matches_loop_reference(kind):
    rng = random.Random(f"k matrix {kind}")
    for _ in range(100):
        rho = _random_3form(rng, kind)
        vol = rng.choice([1.0, -3.0, 0.5])
        want = ref_k_matrix(rho.to_float(), vol)
        got = _k_matrix(rho.to_float(), vol)
        scale = max(1.0, float(rho.max_abs())) ** 2 / abs(vol)
        assert np.max(np.abs(got - want)) <= 1e-14 * scale


@pytest.mark.parametrize("kind", ["int", "frac", "float", "mixed"])
def test_hitchin_dual_matches_loop_reference(kind):
    # perturbations of gamma stay stable of complex type; wider draws
    # also reach the real type, where both must refuse
    rng = random.Random(f"hitchin dual {kind}")
    refused = 0
    for n in range(200):
        rho = GAMMA + (F(1, 2) if n % 2 else F(3, 1)) * _random_3form(rng, kind, 0.3)
        try:
            want = ref_hitchin_dual(rho)
        except ValueError:
            refused += 1
            with pytest.raises(ValueError, match="not stable"):
                hitchin_dual(rho)
            continue
        got = hitchin_dual(rho)
        assert all(type(v) is float for v in got.coeffs.values())
        k = ref_k_matrix(rho.to_float(), -3.0)
        lam = float(np.trace(k @ k)) / 6.0
        size = max(1.0, float(rho.max_abs())) ** 4
        assert abs(hitchin_invariant(rho) - lam) <= 1e-14 * size
        # rho_hat = K rho / sqrt(-lambda): a rounding of K moves lambda by
        # about eps |rho|^4, so near the stable boundary the dual is
        # ill-conditioned by |rho|^4 / |lambda|
        cond = size / abs(lam)
        assert (got - want).max_abs() <= 1e-14 * cond * max(1.0, want.max_abs())
    assert 0 < refused < 200


# -- the array kernel against the KForm pullback route ----------------------

def pullback_route_dual(v):
    """Hitchin's dual of the coefficient row v as hitchin_dual computed it
    on KForms: K = T v v, then exterior.pullback(K / sqrt(-lambda), rho)."""
    k = _K_TENSOR @ v @ v / -3.0
    lam = float(np.trace(k @ k)) / 6.0
    assert lam < 0
    return pullback(k / math.sqrt(-lam), KForm.from_vector(3, v)).to_vector(float)


def _stable_rows(n=200, seed=31):
    # gamma plus a dense perturbation: stable of complex type, with
    # condition |rho|^4 / |lambda| below 13
    rng = np.random.default_rng(seed)
    return GAMMA.to_vector(float) + rng.uniform(-0.3, 0.3, (n, len(BASIS[3])))


def _rel(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def test_hitchin_dual_rows_matches_pullback_route():
    rho = _stable_rows()
    dual, stable = hitchin_dual_rows(rho)
    assert dual.shape == rho.shape and stable.all()
    for v, got in zip(rho, dual):
        assert _rel(got, pullback_route_dual(v)) <= 1e-14
        one, one_stable = hitchin_dual_rows(v)
        assert one_stable and _rel(got, one) <= 1e-14
    # a batch of invariant forms gamma = B3_MATRIX @ (3 q1, q2, q3, 3 q4)
    cubics = np.random.default_rng(32).uniform(-0.3, 0.3, (50, 4)) + [1.0, 0.0, -1.0, 0.0]
    rows = cubics @ B3_MATRIX.T
    dual, stable = hitchin_dual_rows(rows)
    assert stable.all()
    for v, got in zip(rows, dual):
        assert _rel(got, pullback_route_dual(v)) <= 1e-14
    # leading axes are kept
    dual3, _ = hitchin_dual_rows(rho[:12].reshape(3, 4, -1))
    assert dual3.shape == (3, 4, len(BASIS[3]))
    assert _rel(dual3.reshape(12, -1), hitchin_dual_rows(rho[:12])[0]) <= 1e-14


def test_hitchin_dual_rows_double_dual_and_unstable_rows():
    rho = _stable_rows()
    dual, _ = hitchin_dual_rows(rho)
    ddual, stable = hitchin_dual_rows(dual)
    assert stable.all()
    for v, dd in zip(rho, ddual):
        assert _rel(dd, -v) <= 1e-14
    # real type (e123 + e456), the zero form and a decomposable form are
    # flagged in the middle of a batch, and leave the other rows alone
    real = KForm(3, {(1, 2, 3): 1.0, (4, 5, 6): 1.0}).to_vector(float)
    simple = KForm(3, {(1, 3, 5): 2.0}).to_vector(float)
    batch = np.vstack([rho[:3], real, np.zeros(len(BASIS[3])), simple, rho[3:6]])
    got, stable = hitchin_dual_rows(batch)
    assert stable.tolist() == [True] * 3 + [False] * 3 + [True] * 3
    assert np.isnan(got[~stable]).all()
    assert _rel(got[stable], hitchin_dual_rows(rho[:6])[0]) <= 1e-14
    # hitchin_dual wraps the kernel and refuses what it flags
    for v in (real, simple):
        with pytest.raises(ValueError, match="not stable"):
            hitchin_dual(KForm.from_vector(3, v))


def test_invariant_rows_decide_stability_as_the_kernel():
    # the lambda-only route of the oracle's boundary event builds no dual
    # and flags the same rows as hitchin_dual_rows
    rho = _stable_rows()
    real = KForm(3, {(1, 2, 3): 1.0, (4, 5, 6): 1.0}).to_vector(float)
    simple = KForm(3, {(1, 3, 5): 2.0}).to_vector(float)
    batch = np.vstack([rho[:3], real, np.zeros(len(BASIS[3])), simple, rho[3:6]])
    _, lam, stable = _invariant_rows(batch)
    assert stable.tolist() == hitchin_dual_rows(batch)[1].tolist()
    assert stable.tolist() == [True] * 3 + [False] * 3 + [True] * 3
    for v, got in zip(batch, lam):
        want = hitchin_invariant(KForm.from_vector(3, v))
        assert abs(got - want) <= 1e-14 * max(1.0, np.abs(v).max()) ** 4
    _, one, one_stable = _invariant_rows(rho[0])
    assert one.shape == () and one_stable and one == lam[0]


# ---------------------------------------------------------------------------
# the kernel on the invariant 3-forms B y: Lambda and G
# ---------------------------------------------------------------------------

def _invariant_coefficients():
    """Seeded y for rows B3_MATRIX @ y: 200 of either stability type, and
    100 stable ones near the identity frame's cubic."""
    rng = np.random.default_rng(21)
    wide = rng.uniform(-2.0, 2.0, (200, 4))
    near = rng.uniform(-0.3, 0.3, (100, 4)) + [1.0, 0.0, -1.0, 0.0]
    return np.vstack([wide, near])


def _tensor_mismatch(lam_t, dual_t, y) -> float:
    """Worst error, in units of 1e-14, of the tensors against the kernel on
    the rows B3_MATRIX @ y, with m = max(1, max|B y|): lambda over m^4,
    sqrt(-lambda) gamma_hat over m^3, and gamma_hat relative to its largest
    entry where -lambda >= 0.1 m^4; inf when a stability mask differs."""
    rows = y @ B3_MATRIX.T
    scale = np.maximum(1.0, np.abs(rows).max(axis=1))
    yy = (y[:, :, None] * y[:, None, :]).reshape(len(y), -1)
    lam = np.einsum("na,ab,nb->n", yy, lam_t, yy)
    num = np.einsum("na,acI,nc->nI", yy, dual_t, y)
    _, lam_k, stable_k = _invariant_rows(rows)
    dual_k, stable_d = hitchin_dual_rows(rows)
    stable = lam < -_STABLE_TOL * scale ** 4
    if stable.tolist() != stable_k.tolist() or stable.tolist() != stable_d.tolist():
        return math.inf
    num_k = dual_k[stable] * np.sqrt(-lam_k[stable])[:, None]
    errs = [np.abs(lam - lam_k) / scale ** 4,
            np.abs(num[stable] - num_k).max(axis=1) / scale[stable] ** 3]
    good = stable & (-lam_k >= 0.1 * scale ** 4)
    dual = num[good] / np.sqrt(-lam[good])[:, None]
    errs.append(np.abs(dual - dual_k[good]).max(axis=1) / np.abs(dual_k[good]).max(axis=1))
    return max(float(e.max()) for e in errs) / 1e-14


def test_invariant_tensors_match_the_kernel():
    y = _invariant_coefficients()
    rows = y @ B3_MATRIX.T
    # both stability types, and enough well-conditioned rows for the dual
    _, lam, stable = _invariant_rows(rows)
    assert 60 <= stable[:200].sum() <= 140 and stable[200:].all()
    assert (-lam >= 0.1 * np.maximum(1.0, np.abs(rows).max(axis=1)) ** 4).sum() >= 100
    # the oracle's stability scale: a row of B3_MATRIX holds at most one 1
    assert (np.abs(rows).max(axis=1) == np.abs(y).max(axis=1)).all()
    assert _tensor_mismatch(_B_LAMBDA, _B_DUAL, y) <= 1.0
    # negative control: any nonzero entry scaled by 1.001 is seen
    for tensor in (_B_LAMBDA, _B_DUAL):
        for idx in zip(*np.nonzero(tensor)):
            bad = tensor.copy()
            bad[idx] *= 1.001
            pair = (bad, _B_DUAL) if tensor is _B_LAMBDA else (_B_LAMBDA, bad)
            assert _tensor_mismatch(*pair, y) > 1.0, idx


def _exact_tensors():
    """54 Lambda and -18 G as int arrays, after checking that the float
    tensors are these integers divided once."""
    # the inputs are exact: T and B hold 0 and +-1, vol = -3, _DUAL holds
    # 0, +-1/6 and +-1/3; so 6 vol^2 Lambda and 6 vol G are integers
    assert set(np.unique(_K_PAIRS)) == {-1.0, 0.0, 1.0} and _VOL == -3.0
    assert set(np.unique(B3_MATRIX)) == {0.0, 1.0}
    assert set(np.unique(np.rint(6 * _DUAL))) == {-2.0, -1.0, 0.0, 1.0, 2.0}
    assert np.array_equal(_DUAL, np.rint(6 * _DUAL) / 6)
    lam54, dual18 = np.rint(54 * _B_LAMBDA), np.rint(-18 * _B_DUAL)
    assert np.array_equal(_B_LAMBDA, lam54 / 54) and np.array_equal(_B_DUAL, dual18 / -18)
    return lam54.astype(int), dual18.astype(int)


def _y_of_q(sp):
    q = sp.symbols("q1:5")
    return q, [3 * q[0], q[1], q[2], 3 * q[3]]


def _lambda_poly(sp, lam54, y):
    """(y y) Lambda (y y)."""
    yy = [a * b for a in y for b in y]
    return sp.expand(sum(int(lam54[i, j]) * yy[i] * yy[j] for i, j in zip(*np.nonzero(lam54))) / 54)


def _dual_polys(sp, dual18, y):
    """(y y) G y, one polynomial per BASIS[3] coefficient."""
    yy = [a * b for a in y for b in y]
    out = [sp.Integer(0)] * len(BASIS[3])
    for a, c, i in zip(*np.nonzero(dual18)):
        out[i] += int(dual18[a, c, i]) * yy[a] * y[c]
    return [sp.expand(v / -18) for v in out]


def test_invariant_lambda_is_minus_a_third_of_the_discriminant():
    # lambda(B y) = (y y) Lambda (y y) = -Delta(q) / 3 at y = (3 q1, q2, q3, 3 q4)
    sp = pytest.importorskip("sympy")
    lam54, _ = _exact_tensors()
    q, y = _y_of_q(sp)
    want = sp.expand(-discriminant(BinaryForm(3, list(q))) / 3)
    assert _lambda_poly(sp, lam54, y) == want
    # negative control: one nonzero entry moved by 1/54
    bad = lam54.copy()
    bad[tuple(v[0] for v in np.nonzero(bad))] += 1
    assert _lambda_poly(sp, bad, y) != want


def test_invariant_dual_is_the_cubic_covariant():
    # sqrt(-lambda) gamma_hat(B y) = (y y) G y = -(1/9) B (3 C1, C2, C3, 3 C4)
    # with C the cubic covariant of q, at y = (3 q1, q2, q3, 3 q4)
    sp = pytest.importorskip("sympy")
    _, dual18 = _exact_tensors()
    q, y = _y_of_q(sp)
    c = cubic_covariant(BinaryForm(3, list(q))).coeffs
    cy = [3 * c[0], c[1], c[2], 3 * c[3]]
    want = [sp.expand(sp.Rational(-1, 9) * sum(int(b) * v for b, v in zip(row, cy)))
            for row in B3_MATRIX]
    assert _dual_polys(sp, dual18, y) == want
    # negative control: one nonzero entry moved by 1/18
    bad = dual18.copy()
    bad[tuple(v[0] for v in np.nonzero(bad))] += 1
    assert _dual_polys(sp, bad, y) != want


def test_invariant_identities_hold_in_floats():
    # the same two identities on random q, relative to max|y|^4 and max|y|^3
    rng = random.Random(13)
    for _ in range(100):
        q = [rng.uniform(-1.5, 1.5) for _ in range(4)]
        y = np.array([3 * q[0], q[1], q[2], 3 * q[3]])
        scale = np.abs(y).max()
        yy = np.outer(y, y).ravel()
        assert abs(yy @ _B_LAMBDA @ yy + discriminant(BinaryForm(3, q)) / 3) <= 1e-15 * scale ** 4
        c = cubic_covariant(BinaryForm(3, q)).coeffs
        want = -B3_MATRIX @ [3 * c[0], c[1], c[2], 3 * c[3]] / 9
        got = (yy @ _B_DUAL.reshape(16, -1)).reshape(4, -1).T @ y
        assert np.abs(got - want).max() <= 1e-15 * scale ** 3
