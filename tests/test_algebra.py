import numpy as np
import pytest

from diracpolar import algebra
from diracpolar.algebra import (
    EPS_LOWER,
    EPS_UPPER,
    ETA,
    SEED_SPINOR,
    PAIR_I,
    PAIR_J,
    CliffordBasis,
    boost_params,
    build_chiral_basis,
    frame_connection,
    lorentz_exp,
    mdot,
    rot_z_to_params,
    rotation_params,
    verify_basis,
)
from diracpolar.fieldconn import plane_wave
from diracpolar.polar import polar_decompose

from conftest import random_antisymmetric, spin_dual, turn_about_spin


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


def test_expm_is_scipy_expm(basis):
    # algebra.expm imports scipy on its first call and hands back its result
    from scipy.linalg import expm

    rng = np.random.default_rng(17)
    lam = random_antisymmetric(rng, 0.7)
    gen = 0.5 * np.einsum("ab,abij->ij", lam, basis.sigma_lower)
    for a in (gen, lam @ ETA, rng.standard_normal((3, 4, 4))):
        assert np.array_equal(algebra.expm(a), expm(a))


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


def test_density_rows_hold_each_matrix_once(basis):
    # one layout of the sixteen density matrices; the jet and velocity rows
    # are prefixes of it, not copies
    stack = basis.density_rows.reshape(4, 16, 4).transpose(1, 0, 2)
    g0, pi, sig_low = basis.gamma[0], basis.pi, basis.sigma_lower
    assert np.array_equal(stack[0], g0)
    assert np.array_equal(stack[1], 1j * g0 @ pi)
    assert np.array_equal(stack[2:6], g0 @ basis.gamma)
    assert np.array_equal(stack[6:10], g0 @ basis.gamma @ pi)
    assert np.array_equal(stack[10:], 2j * g0 @ sig_low[PAIR_I, PAIR_J])
    for rows, width in ((basis.jet_rows, 40), (basis.velocity_rows, 24)):
        assert rows.shape == (4, width)
        assert np.shares_memory(rows, basis.density_rows)
        assert np.array_equal(rows, basis.density_rows[:, :width])


def test_jet_reads_pi_and_sigma_through_densities(basis):
    # the identities that let the exact jet read psi^dagger pi psi and
    # psi^dagger sigma^{ij} psi off A: exact, entry by entry
    g0, pi, sig = basis.gamma[0], basis.pi, basis.sigma_upper
    axial = g0 @ basis.gamma @ pi       # gamma^0 gamma^a pi, the rows behind A^a
    assert np.array_equal(pi, axial[0])
    for i in (1, 2, 3):
        assert np.array_equal(sig[0, i], 0.5 * g0 @ basis.gamma[i])
        assert np.array_equal(sig[0, i], sig[0, i].conj().T)
    # sigma^{jk} = -i gamma^0 gamma^l pi / 2 for (j, k, l) cyclic
    for j, k, l in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        assert np.array_equal(sig[j, k], -0.5j * axial[l])


def test_balance_stack_is_hermitian_or_antihermitian(basis):
    # adj(nabla psi) M psi = +-conj(adj(psi) M nabla psi) rests on this
    stack = basis.balance_rows.reshape(4, -1, 4).transpose(1, 0, 2)
    assert stack.shape == (42, 4, 4)
    adjoint = stack.conj().swapaxes(-1, -2)
    for matrix, adj, sign in zip(stack, adjoint, basis.balance_signs, strict=True):
        assert np.array_equal(adj, sign * matrix)


def test_basis_built_once_and_read_only():
    basis = build_chiral_basis()
    assert build_chiral_basis() is basis
    for name, value in vars(basis).items():
        assert not value.flags.writeable, name


def lowered_connection(fld, basis, points, h=1e-6):
    """u, du, s, ds and l_vec^T eta d_mu l_vec at every point of points (n, 4),
    from one decomposition of the points and their neighbours +-h e_mu and
    central differences, mu right after the point axis."""
    steps = np.concatenate([np.zeros((1, 4)), h * np.eye(4), -h * np.eye(4)])
    pd = polar_decompose(fld.evaluate(points + steps[:, None]), basis)

    def central(values):
        return np.moveaxis((values[1:5] - values[5:]) / (2 * h), 0, 1)

    l_vec = pd.l_vec[0][:, None]
    want = np.swapaxes(l_vec, -1, -2) @ ETA @ central(pd.l_vec)
    return pd.velocity[0], central(pd.velocity), pd.spin[0], central(pd.spin), want


@pytest.mark.parametrize(
    "axis, weak",
    [
        ((0.2, 0.5, 1.0), 0.3),
        # next to -z: the weak wave holds the rest spin about 0.02 from -z,
        # where the minimal rotation turns about the spin at order 1
        ((3.6e-4 * np.cos(0.7), 3.6e-4 * np.sin(0.7), -1.0), 0.01),
        ((0.0, 1e-3, -2.0), 0.01),
    ],
)
def test_frame_connection_matches_differences(basis, axis, weak):
    momenta = np.array([[0.3, -0.1, 0.05], [-0.1, 0.15, 0.15]])
    momenta = np.column_stack([np.sqrt(1.0 + (momenta**2).sum(axis=1)), momenta])
    axes = np.array([axis, (-0.1, 0.1, 1.0)])
    fld = plane_wave(momenta, 1.0, axes, np.array([1.0, weak]), basis)
    points = np.random.default_rng(23).uniform(-0.5, 0.5, size=(4, 4))
    u, du, s, ds, want = lowered_connection(fld, basis, points)
    # the frame of the differences turns about the spin; the transport gauge
    # does not, and every other component must agree
    want = want - turn_about_spin(want, u, s)[..., None, None] * spin_dual(u, s)[:, None]
    got = frame_connection(u, du, s, ds)
    assert got.shape == (4, 4, 4, 4)
    assert np.abs(got - want).max() < 1e-7
