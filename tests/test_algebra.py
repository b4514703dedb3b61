import numpy as np

from diracpolar.algebra import (
    EPS_LOWER,
    EPS_UPPER,
    ETA,
    SEED_SPINOR,
    CliffordBasis,
    boost_params,
    build_chiral_basis,
    lorentz_exp,
    mdot,
    rot_z_to_params,
    rotation_params,
    verify_basis,
)

from conftest import random_antisymmetric


def test_epsilon_convention():
    # lowered component with indices 0123 in order is +1, raised is -1
    assert EPS_LOWER[0, 1, 2, 3] == 1.0
    assert EPS_UPPER[0, 1, 2, 3] == -1.0
    assert EPS_LOWER[1, 0, 2, 3] == -1.0
    assert EPS_LOWER[0, 0, 2, 3] == 0.0


def test_chiral_matrices_exact(basis):
    # the representation is pinned entry by entry, not just up to equivalence
    g0 = np.zeros((4, 4), dtype=complex)
    g0[0, 2] = g0[1, 3] = g0[2, 0] = g0[3, 1] = 1
    assert np.array_equal(basis.gamma[0], g0)
    pi = np.diag([-1, -1, 1, 1]).astype(complex)
    assert np.array_equal(basis.pi, pi)
    g3 = np.zeros((4, 4), dtype=complex)
    g3[0, 2] = 1
    g3[1, 3] = -1
    g3[2, 0] = -1
    g3[3, 1] = 1
    assert np.array_equal(basis.gamma[3], g3)


def test_basis_identities_exact_zero(basis):
    rep = verify_basis(basis)
    expected = {
        "anticommutator",
        "sigma_definition",
        "sigma_duality",
        "triple_product",
        "pi_anticommutation",
        "pi_square",
        "sigma_orthogonality",
    }
    assert set(rep) == expected
    # entries of every matrix involved are 0, +-1, +-i, so the identities
    # close exactly in floating point
    assert max(rep.values()) == 0.0


def test_tampered_basis_is_caught(basis):
    bad_gam = basis.gamma.copy()
    bad_gam[3] = -bad_gam[3]
    rep = verify_basis(CliffordBasis.from_gammas(bad_gam, basis.pi))
    # anticommutator still closes but the pseudoscalar-linked identities break
    assert rep["anticommutator"] == 0.0
    assert rep["sigma_duality"] > 0.5

    rep2 = verify_basis(CliffordBasis.from_gammas(basis.gamma, np.eye(4)))
    assert rep2["pi_anticommutation"] > 0.5


def test_seed_bilinears(basis):
    psi = SEED_SPINOR
    adj = psi.conj() @ basis.gamma[0]
    assert adj @ psi == 2.0          # scalar
    assert adj @ basis.pi @ psi == 0  # pseudoscalar vanishes at rest
    u = np.array([(adj @ basis.gamma[a] @ psi).real for a in range(4)])
    s = np.array([(adj @ basis.gamma[a] @ basis.pi @ psi).real for a in range(4)])
    assert np.array_equal(u, [2, 0, 0, 0])
    assert np.array_equal(s, [0, 0, 0, 2])


def test_lorentz_identity(basis):
    pair = lorentz_exp(np.zeros((4, 4)), basis)
    assert np.allclose(pair.spin_rep, np.eye(4), atol=1e-15)
    assert np.allclose(pair.vec_rep, np.eye(4), atol=1e-15)


def test_z_boost_closed_form(basis):
    chi = 0.83
    lam = np.zeros((4, 4))
    lam[0, 3] = chi
    lam[3, 0] = -chi
    pair = lorentz_exp(lam, basis)
    vec = np.eye(4)
    vec[0, 0] = vec[3, 3] = np.cosh(chi)
    vec[0, 3] = vec[3, 0] = -np.sinh(chi)
    assert np.allclose(pair.vec_rep, vec, atol=1e-14)
    # inverse transform carries the rest velocity to (cosh, 0, 0, +sinh)
    u = np.linalg.inv(pair.vec_rep)[:, 0]
    assert np.allclose(u, [np.cosh(chi), 0, 0, np.sinh(chi)], atol=1e-14)
    # spin rep of a z boost is diagonal exp(+-chi/2)
    d = np.exp([chi / 2, -chi / 2, -chi / 2, chi / 2])
    assert np.allclose(pair.spin_rep, np.diag(d), atol=1e-14)


def test_full_turn_flips_spinor_sign(basis):
    pair = lorentz_exp(rotation_params(np.array([0.0, 0.0, 1.0]), 2 * np.pi), basis)
    assert np.allclose(pair.spin_rep, -np.eye(4), atol=1e-13)
    assert np.allclose(pair.vec_rep, np.eye(4), atol=1e-13)


def test_conjugation_invariant_random(basis):
    # spin_rep^-1 gamma^a spin_rep = vec^a_b gamma^b over random parameters
    rng = np.random.default_rng(7)
    for _ in range(100):
        lam = random_antisymmetric(rng, scale=0.7)
        pair = lorentz_exp(lam, basis)
        inv = np.linalg.inv(pair.spin_rep)
        worst = 0.0
        for a in range(4):
            lhs = inv @ basis.gamma[a] @ pair.spin_rep
            rhs = np.einsum("b,bij->ij", pair.vec_rep[a], basis.gamma)
            worst = max(worst, np.abs(lhs - rhs).max())
        assert worst < 1e-10


def test_vec_rep_preserves_metric(basis):
    rng = np.random.default_rng(11)
    for _ in range(50):
        pair = lorentz_exp(random_antisymmetric(rng, scale=0.9), basis)
        assert np.abs(pair.vec_rep.T @ ETA @ pair.vec_rep - ETA).max() < 1e-11


def test_homomorphism(basis):
    rng = np.random.default_rng(3)
    la, lb = random_antisymmetric(rng, 0.4), random_antisymmetric(rng, 0.4)
    pa, pb = lorentz_exp(la, basis), lorentz_exp(lb, basis)
    prod_vec = pa.vec_rep @ pb.vec_rep
    prod_spin = pa.spin_rep @ pb.spin_rep
    # conjugation by the product matches the product of vector reps
    inv = np.linalg.inv(prod_spin)
    for a in range(4):
        lhs = inv @ basis.gamma[a] @ prod_spin
        rhs = np.einsum("b,bij->ij", prod_vec[a], basis.gamma)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_boost_params_reaches_velocity(basis):
    rng = np.random.default_rng(5)
    for _ in range(25):
        v3 = rng.standard_normal(3)
        u = np.concatenate([[np.sqrt(1 + v3 @ v3)], v3])
        pair = lorentz_exp(boost_params(u), basis)
        got = np.linalg.inv(pair.vec_rep)[:, 0]
        assert np.allclose(got, u, atol=1e-12)
        assert abs(mdot(got, got) - 1.0) < 1e-12


def test_rot_z_to_target(basis):
    rng = np.random.default_rng(9)
    for _ in range(25):
        t = rng.standard_normal(3)
        t = t / np.linalg.norm(t)
        pair = lorentz_exp(rot_z_to_params(t), basis)
        got = np.linalg.inv(pair.vec_rep)[1:, 3]
        assert np.allclose(got, t, atol=1e-12)
    # degenerate directions
    pair = lorentz_exp(rot_z_to_params(np.array([0.0, 0.0, 1.0])), basis)
    assert np.allclose(pair.vec_rep, np.eye(4), atol=1e-15)
    pair = lorentz_exp(rot_z_to_params(np.array([0.0, 0.0, -1.0])), basis)
    got = np.linalg.inv(pair.vec_rep)[1:, 3]
    assert np.allclose(got, [0, 0, -1], atol=1e-13)


def test_boost_rotation_hermiticity(basis):
    # boosts are Hermitian in the spin rep, rotations unitary
    chi_pair = lorentz_exp(boost_params(np.array([1.2, 0.3, -0.4, 0.5])), basis)
    assert np.abs(chi_pair.spin_rep - chi_pair.spin_rep.conj().T).max() < 1e-13
    rot_pair = lorentz_exp(rotation_params(np.array([0.2, -1.0, 0.4]), 1.1), basis)
    prod = rot_pair.spin_rep @ rot_pair.spin_rep.conj().T
    assert np.abs(prod - np.eye(4)).max() < 1e-13
