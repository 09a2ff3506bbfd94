import itertools
from fractions import Fraction as F

import numpy as np
import pytest

from conftest import random_float_point
from so3g2.binaryform import BinaryForm
from so3g2.curvature import (
    TCoords,
    koszul_connection,
    koszul_riemann,
    levi_civita_oracle,
    model_tcoords,
    ricci_closed_form,
    riemann_tensor,
)
from so3g2.exterior import CEOperator, KForm
from so3g2.variety import ModelPoint, act_on_point, structure_constants
from so3g2.verify import EINSTEIN_REPRESENTATIVES, _so2, orbit_invariants


def test_tcoords_bijection(rng):
    for _ in range(20):
        lam = BinaryForm(3, [F(rng.randint(-6, 6)) for _ in range(4)])
        t = TCoords.from_lambda(lam)
        assert t.to_lambda() == lam


def test_abelian_is_flat():
    d = CEOperator(tuple(KForm.zero(2) for _ in range(6)))
    rep = levi_civita_oracle(d)
    assert rep.scalar == 0
    assert rep.ricci_traceless_norm == 0
    assert rep.weyl_norm == 0


def test_bi_invariant_point_scalar():
    m = ModelPoint.make([1.0, 0.0], [1.0, 0.0, -1.0])
    rep = levi_civita_oracle(structure_constants(m))
    assert rep.ricci_traceless_norm < 1e-14
    # unit-coframe convention: six directions of Einstein constant one
    assert abs(rep.scalar - 6.0) < 1e-12


def _koszul_loops(c, dgam):
    """Reference: the Koszul connection and Riemann tensor written as loops."""
    n = len(c)
    gam = np.zeros((n, n, n))
    for i, j, k in itertools.product(range(n), repeat=3):
        gam[i, j, k] = 0.5 * (c[k, i, j] - c[i, j, k] + c[j, k, i])
    riem = np.zeros((n, n, n, n))
    for i, j, k, l in itertools.product(range(n), repeat=4):
        val = dgam[i, j, k, l] - dgam[j, i, k, l]
        for m in range(n):
            val += gam[j, k, m] * gam[i, m, l] - gam[i, k, m] * gam[j, m, l]
            val -= c[m, i, j] * gam[m, k, l]
        riem[i, j, k, l] = val
    return gam, riem


def test_koszul_kernel_matches_loops():
    # generic brackets (no Jacobi needed) and a generic frame derivative in 7 dims
    gen = np.random.default_rng(20240915)
    c = gen.uniform(-1, 1, (7, 7, 7))
    c = c - c.transpose(0, 2, 1)
    dgam = gen.uniform(-1, 1, (7, 7, 7, 7))
    gam_ref, riem_ref = _koszul_loops(c, dgam)
    gam = koszul_connection(c)
    assert np.max(np.abs(gam - gam_ref)) < 1e-14
    assert np.max(np.abs(koszul_riemann(c, gam, dgam) - riem_ref)) < 1e-12
    assert np.max(np.abs(koszul_riemann(c, gam) - _koszul_loops(c, 0 * dgam)[1])) < 1e-12


def test_bi_invariant_point_weyl_norm():
    # S^3 x S^3 with sectional curvature 1/2 on each factor: |W|^2 = 18/5
    m = ModelPoint.make([1.0, 0.0], [1.0, 0.0, -1.0])
    rep = levi_civita_oracle(structure_constants(m))
    assert abs(rep.weyl_norm ** 2 - 18.0 / 5.0) < 1e-12


def test_weyl_norm_identity(rng):
    # |W|^2 = |R|^2 - 4 |Ric|^2 / (n-2) + 2 s^2 / ((n-1)(n-2)) for n = 6
    for _ in range(30):
        d = structure_constants(random_float_point(rng))
        rep = levi_civita_oracle(d)
        riem = np.asarray(riemann_tensor(d), dtype=float)
        expected = (np.sum(riem * riem) - np.sum(rep.ricci * rep.ricci)
                    + rep.scalar ** 2 / 10.0)
        assert abs(rep.weyl_norm ** 2 - expected) < 1e-12 * max(1.0, rep.scalar ** 2)


def test_closed_form_matches_oracle(rng):
    for _ in range(60):
        m = random_float_point(rng)
        rep = levi_civita_oracle(structure_constants(m))
        ric0, s = ricci_closed_form(model_tcoords(m))
        ric0_oracle = rep.ricci - (rep.scalar / 6.0) * np.eye(6)
        assert np.max(np.abs(ric0 - ric0_oracle)) < 1e-10 * max(1.0, abs(rep.scalar))
        assert abs(s - rep.scalar) < 1e-10 * max(1.0, abs(rep.scalar))


def test_closed_form_einstein_slice():
    # t = (1/2, 0, 1/2, 0): both traceless coefficients cancel
    ric0, s = ricci_closed_form(TCoords(0.5, 0.0, 0.5, 0.0))
    assert np.max(np.abs(ric0)) == 0.0
    assert s == 6.0
    ric0, s = ricci_closed_form(TCoords(0.0, 0.0, 0.0, 0.0))
    assert np.max(np.abs(ric0)) == 0.0 and s == 0.0


def test_first_bianchi(rng):
    for _ in range(10):
        riem = riemann_tensor(structure_constants(random_float_point(rng)))
        cycle = riem + np.einsum("jkil->ijkl", riem) + np.einsum("kijl->ijkl", riem)
        assert np.max(np.abs(cycle)) < 1e-12


def is_einstein(m):
    """Whether the Koszul oracle's traceless Ricci vanishes, relative to |Ric|."""
    rep = levi_civita_oracle(structure_constants(m).to_float())
    return rep.ricci_traceless_norm <= 1e-12 * max(1.0, float(np.max(np.abs(rep.ricci))))


def is_conformally_flat(m):
    """Whether the Koszul oracle's Weyl tensor vanishes, relative to the curvature."""
    rep = levi_civita_oracle(structure_constants(m).to_float())
    return rep.weyl_norm <= 1e-11 * max(1.0, abs(rep.scalar), rep.ricci_traceless_norm)


def test_einstein_locus_representatives():
    reps = [([1, 0], [1, 0, -1]), ([1, 0], [0, 1, 1]), ([1, 0], [1, 0, -3])]
    for x, y in reps:
        m = ModelPoint.make([float(v) for v in x], [float(v) for v in y])
        assert is_einstein(m)
        assert levi_civita_oracle(structure_constants(m)).scalar > 0
    assert not is_einstein(ModelPoint.make([1.0, 0.0], [0.0, 0.0, 1.0]))


def test_orbit_invariants_are_constant_on_rotation_orbits():
    for x, y in EINSTEIN_REPRESENTATIVES:
        m = ModelPoint.make([float(v) for v in x], [float(v) for v in y])
        inv = orbit_invariants(model_tcoords(m))
        for theta in (0.3, 1.1, 2.0, 4.5):
            moved = orbit_invariants(model_tcoords(act_on_point(_so2(theta), m)))
            assert max(abs(a - b) for a, b in zip(inv, moved)) < 1e-12, (x, y, theta)


def test_conformally_flat_iff_flat(rng):
    zero = ModelPoint.make([0.0, 0.0], [0.0, 0.0, 0.0])
    assert is_conformally_flat(zero)
    reps = [([1, 0], [1, 0, -1]), ([1, 0], [1, 0, 1]), ([1, 0], [0, 0, 1]),
            ([1, 0], [0, 1, 0]), ([1, 0], [1, 0, 0])]
    for x, y in reps:
        m = ModelPoint.make([float(v) for v in x], [float(v) for v in y])
        assert not is_conformally_flat(m)
    for _ in range(20):
        m = random_float_point(rng)
        assert not is_conformally_flat(m)


def test_scale_covariance(rng):
    # rescaling the coframe by z rescales s by z^(-2) and keeps Einstein-ness
    m = random_float_point(rng)
    z = 1.7
    d = structure_constants(m)
    rep = levi_civita_oracle(d)
    scaled = CEOperator(tuple((1.0 / z) * im for im in d.images))
    rep_scaled = levi_civita_oracle(scaled)
    assert abs(rep_scaled.scalar - rep.scalar / z ** 2) < 1e-10
    m_e = ModelPoint.make([1.0, 0.0], [1.0, 0.0, -3.0])
    d_e = structure_constants(m_e)
    scaled_e = CEOperator(tuple((1.0 / z) * im for im in d_e.images))
    rep_e = levi_civita_oracle(scaled_e)
    assert rep_e.ricci_traceless_norm < 1e-11


def test_oracle_rejects_non_lie():
    z = KForm.zero(2)
    bad = CEOperator((KForm.basis(2, 4), KForm.basis(1, 3), z, z, z, z))
    with pytest.raises(ValueError):
        levi_civita_oracle(bad)
