from dataclasses import replace

import numpy as np
import pytest

from diracpolar.algebra import SEED_SPINOR
from diracpolar.bilinears import (
    BilinearSet,
    adjoint,
    check_fierz,
    check_spinor_constraints,
    compute_bilinears,
    is_regular,
    random_regular_spinor,
    random_spinor,
    require_regular,
)
from diracpolar.errors import SingularSpinor


def test_seed_spinor_densities(basis):
    bil = compute_bilinears(SEED_SPINOR, basis)
    assert bil.scalar == 2.0
    assert bil.pseudoscalar == 0.0
    assert np.array_equal(bil.vector, [2, 0, 0, 0])
    assert np.array_equal(bil.axial, [0, 0, 0, 2])
    # only the xy tensor component survives at rest with spin along z
    m = bil.tensor
    assert m[1, 2] == 2.0
    m[1, 2] = m[2, 1] = 0.0
    assert np.array_equal(m, np.zeros((4, 4)))
    assert bil.imag_residual == 0.0


def test_fixed_spinor_densities(basis):
    # worked example, values computed by hand from the matrix definitions
    psi = np.array([0.3 + 0.4j, -0.1 + 0.2j, 0.5 - 0.6j, 0.7 + 0.1j])
    bil = compute_bilinears(psi, basis)
    assert abs(bil.scalar - (-0.28)) < 1e-12
    assert abs(bil.pseudoscalar - 1.06) < 1e-12
    assert np.abs(bil.vector - [1.41, 0.48, 0.74, -0.09]).max() < 1e-12
    assert np.abs(bil.axial - [0.81, 0.68, 1.14, 0.31]).max() < 1e-12
    assert np.abs(bil.tensor6 - [-0.58, -0.84, -0.46, -0.08, 0.42, 0.16]).max() < 1e-12
    assert bil.imag_residual < 1e-14


def test_adjoint_is_dagger_gamma0(basis):
    rng = np.random.default_rng(0)
    psi = random_spinor(rng)
    adj = adjoint(psi, basis)
    assert np.allclose(adj, psi.conj() @ basis.gamma[0])
    # scalar built from it is real
    assert abs((adj @ psi).imag) < 1e-14


def test_fierz_identities_random(basis):
    rng = np.random.default_rng(42)
    for _ in range(1000):
        psi = random_spinor(rng, scale=float(rng.uniform(0.2, 5.0)))
        bil = compute_bilinears(psi, basis)
        rep = check_fierz(bil)
        assert max(rep.values()) < 1e-10, rep


def test_spinor_constraints_random(basis):
    rng = np.random.default_rng(43)
    for _ in range(1000):
        psi = random_spinor(rng, scale=float(rng.uniform(0.2, 5.0)))
        rep = check_spinor_constraints(psi, basis)
        assert max(rep.values()) < 1e-10, rep


def test_fierz_report_names(basis):
    rng = np.random.default_rng(1)
    bil = compute_bilinears(random_spinor(rng), basis)
    rep = check_fierz(bil)
    assert set(rep) == {
        "vector_norm",
        "axial_norm",
        "orthogonality",
        "tensor_square",
        "tensor_dual_square",
        "tensor_dot_vector",
        "tensor_dot_axial",
        "tensor_reconstruction",
    }


def test_fierz_on_perturbed_densities(basis):
    # on the densities of a spinor every residual is about 0, so only
    # densities that no spinor has can show a wrong normalization; the values
    # were recorded from the single-spinor implementation
    bil = compute_bilinears(np.array([0.3 + 0.4j, -0.1 + 0.2j, 0.5 - 0.6j, 0.7 + 0.1j]), basis)
    bad = replace(
        bil,
        scalar=bil.scalar + 0.04,
        axial=bil.axial + np.array([0.05, -0.1, 0.02, 0.07]),
        tensor6=bil.tensor6 + np.array([0.03, -0.02, 0.01, 0.04, -0.05, 0.06]),
    )
    recorded = {
        "vector_norm": 0.01046225038981928,
        "axial_norm": 0.04748252099994973,
        "orthogonality": 0.055329208792314254,
        "tensor_square": 0.004174840299783924,
        "tensor_dual_square": 0.03943463608470395,
        "tensor_dot_vector": 0.0546753181429506,
        "tensor_dot_axial": 0.031185554046577166,
        "tensor_reconstruction": 0.05318025228834968,
    }
    got = check_fierz(bad)
    assert list(got) == list(recorded)
    for name, want in recorded.items():
        assert abs(got[name] - want) <= 1e-12 * want, name


def test_regularity_detects_lightlike(basis):
    # right-handed Weyl-type spinor: scalar and pseudoscalar both vanish
    psi = np.array([0.0, 0.0, 1.0, 0.5 + 0.5j])
    bil = compute_bilinears(psi, basis)
    assert bil.density_squared() < 1e-14
    assert not is_regular(bil)
    with pytest.raises(SingularSpinor):
        require_regular(bil)
    assert is_regular(compute_bilinears(SEED_SPINOR, basis))


def test_random_regular_spinor_is_regular(basis):
    rng = np.random.default_rng(2)
    for _ in range(50):
        psi = random_regular_spinor(rng, basis)
        assert is_regular(compute_bilinears(psi, basis))


def test_densities_scale_quartically(basis):
    rng = np.random.default_rng(3)
    psi = random_spinor(rng)
    b1 = compute_bilinears(psi, basis)
    b2 = compute_bilinears(2.0 * psi, basis)
    assert abs(b2.scalar - 4 * b1.scalar) < 1e-12
    assert np.abs(b2.vector - 4 * b1.vector).max() < 1e-12
    assert np.abs(b2.tensor6 - 4 * b1.tensor6).max() < 1e-12


def test_tensor_property_antisymmetric(basis):
    rng = np.random.default_rng(4)
    m = compute_bilinears(random_spinor(rng), basis).tensor
    assert np.abs(m + m.T).max() == 0.0


def test_bilinears_transform_covariantly(basis):
    # vector density pushes forward with the vector representation
    from diracpolar.algebra import lorentz_exp

    from conftest import random_antisymmetric

    rng = np.random.default_rng(5)
    for _ in range(20):
        psi = random_spinor(rng)
        pair = lorentz_exp(random_antisymmetric(rng, 0.5), basis)
        bil = compute_bilinears(psi, basis)
        bil2 = compute_bilinears(pair.spin_rep @ psi, basis)
        assert abs(bil2.scalar - bil.scalar) < 1e-10
        assert abs(bil2.pseudoscalar - bil.pseudoscalar) < 1e-10
        assert np.abs(bil2.vector - pair.vec_rep @ bil.vector).max() < 1e-9
        assert np.abs(bil2.axial - pair.vec_rep @ bil.axial).max() < 1e-9
