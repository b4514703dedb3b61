import numpy as np
import pytest

from diracpolar.algebra import SEED_SPINOR, mdot
from diracpolar.bilinears import compute_bilinears, random_regular_spinor
from diracpolar.errors import SingularSpinor
from diracpolar.polar import (
    PolarData,
    kinematic_velocity,
    polar_decompose,
    polar_reconstruct,
    wrap_angle,
)

from conftest import density_values


def test_wrap_angle():
    assert wrap_angle(0.0) == 0.0
    assert abs(wrap_angle(3 * np.pi / 2) - (-np.pi / 2)) < 1e-15
    assert abs(wrap_angle(-3 * np.pi / 2) - (np.pi / 2)) < 1e-15
    # pi maps to +pi, not -pi
    assert abs(wrap_angle(np.pi) - np.pi) < 1e-15
    assert abs(wrap_angle(7.0) - (7.0 - 2 * np.pi)) < 1e-15


def test_seed_decomposition(basis):
    pd = polar_decompose(SEED_SPINOR, basis)
    assert abs(pd.density - 1.0) < 1e-14
    assert abs(pd.chiral_angle) < 1e-14
    assert np.abs(pd.velocity - [1, 0, 0, 0]).max() < 1e-14
    assert np.abs(pd.spin - [0, 0, 0, 1]).max() < 1e-14
    assert abs(pd.residual_phase) < 1e-14
    assert pd.fit_residual < 1e-14


def test_known_phase_and_angle(basis):
    # scale, rotate the chiral angle, and shift the phase of the seed
    beta = 0.6
    rho = 0.7
    chiral = np.cos(beta / 2) * np.eye(4) - 1j * np.sin(beta / 2) * basis.pi
    psi = 1.3 * chiral @ SEED_SPINOR * np.exp(-1j * rho)
    pd = polar_decompose(psi, basis)
    assert abs(pd.density - 1.3) < 1e-14
    assert abs(pd.chiral_angle - beta) < 1e-14
    assert abs(pd.residual_phase - rho) < 1e-14


def test_round_trip_random(basis):
    rng = np.random.default_rng(21)
    for _ in range(1000):
        psi = random_regular_spinor(rng, basis, scale=float(rng.uniform(0.3, 3.0)))
        pd = polar_decompose(psi, basis)
        back = polar_reconstruct(pd, basis)
        assert np.abs(back - psi).max() < 1e-10 * np.linalg.norm(psi)
        assert pd.fit_residual < 1e-10


def test_velocity_spin_normalization(basis):
    rng = np.random.default_rng(22)
    for _ in range(200):
        pd = polar_decompose(random_regular_spinor(rng, basis), basis)
        assert abs(mdot(pd.velocity, pd.velocity) - 1.0) < 1e-10
        assert abs(mdot(pd.spin, pd.spin) + 1.0) < 1e-10
        assert abs(mdot(pd.velocity, pd.spin)) < 1e-10
        assert pd.velocity[0] > 0


def test_kinematic_velocity_matches_density_velocity(basis):
    rng = np.random.default_rng(23)
    for _ in range(200):
        psi = random_regular_spinor(rng, basis)
        pd = polar_decompose(psi, basis)
        assert np.abs(kinematic_velocity(pd) - pd.velocity).max() < 1e-10
        # frame also carries the spin axis: e_3 pulls back to s
        assert np.abs(np.linalg.inv(pd.l_vec)[:, 3] - pd.spin).max() < 1e-10


def test_frame_consistency(basis):
    # l_spin and l_vec represent the same transformation
    rng = np.random.default_rng(24)
    psi = random_regular_spinor(rng, basis)
    pd = polar_decompose(psi, basis)
    inv = np.linalg.inv(pd.l_spin)
    for a in range(4):
        lhs = inv @ basis.gamma[a] @ pd.l_spin
        rhs = np.einsum("b,bij->ij", pd.l_vec[a], basis.gamma)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_singular_spinor_rejected(basis):
    psi = np.array([0.0, 0.0, 1.0, 1j])
    with pytest.raises(SingularSpinor):
        polar_decompose(psi, basis)


def test_densities_recovered_from_polar(basis):
    rng = np.random.default_rng(25)
    psi = random_regular_spinor(rng, basis)
    bil = compute_bilinears(psi, basis)
    pd = polar_decompose(psi, basis)
    mod2 = 2 * pd.density**2
    assert abs(mod2 * np.cos(pd.chiral_angle) - bil.scalar) < 1e-12
    assert abs(mod2 * np.sin(pd.chiral_angle) - bil.pseudoscalar) < 1e-12
    assert np.abs(mod2 * pd.velocity - bil.vector).max() < 1e-11
    assert np.abs(mod2 * pd.spin - bil.axial).max() < 1e-11


def test_spin_aligned_with_z_axis_cases(basis):
    # spinors whose rest spin already points along +z or -z exercise the
    # degenerate branches of the axis construction
    for lower_pair in [(1.0, 0.0), (0.0, 1.0)]:
        psi = np.array([1.0, 0.0, lower_pair[0], lower_pair[1]], dtype=complex)
        values = density_values(psi, basis)
        if values[0] ** 2 + values[1] ** 2 < 1e-12:
            continue
        pd = polar_decompose(psi, basis)
        back = polar_reconstruct(pd, basis)
        assert np.abs(back - psi).max() < 1e-12
