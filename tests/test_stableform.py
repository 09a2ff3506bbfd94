import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from so3g2.binaryform import BinaryForm
from so3g2.exterior import BASIS, DIM, KForm, interior, wedge, wedge_all
from so3g2.stableform import (
    GAMMA,
    GAMMA_HAT,
    REFERENCE_VOLUME,
    SIGMA,
    _k_matrix,
    cubic_to_3form,
    hitchin_dual,
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
