import numpy as np
import pytest

from diracpolar.algebra import ETA, mdot
from diracpolar.errors import OffShell, OutOfDomain, PhaseJump
from diracpolar.fieldconn import (
    Background,
    BoxWindow,
    ConstantVector,
    GriddedField,
    LinearVector,
    covariant_derivative,
    gauge_shift_linear,
    load_grid,
    plane_wave,
    polar_jet,
    save_grid,
    superpose,
    to_grid,
    verify_polar_derivative,
    verify_transport,
)
from diracpolar.polar import polar_decompose

from conftest import torsion_wave

MASS = 1.0


def boosted_wave(basis, v3=(0.3, -0.2, 0.1), spin=(0.2, 0.5, 1.0), amp=1.0):
    v3 = np.asarray(v3, dtype=float)
    p0 = MASS * np.sqrt(1 + v3 @ v3)
    p = np.concatenate([[p0], MASS * v3])
    return plane_wave(p, MASS, np.asarray(spin, dtype=float), amp, basis), p


def test_plane_wave_on_shell_guard(basis):
    with pytest.raises(OffShell):
        plane_wave([1.0, 0.9, 0, 0], MASS, [0, 0, 1], 1.0, basis)
    with pytest.raises(OffShell):
        plane_wave([-1.0, 0, 0, 0], MASS, [0, 0, 1], 1.0, basis)


def test_plane_wave_velocity_and_spin(basis):
    fld, p = boosted_wave(basis)
    pd = polar_decompose(fld.evaluate(np.zeros(4)), basis)
    assert np.abs(pd.velocity - p / MASS).max() < 1e-12
    assert abs(pd.chiral_angle) < 1e-12
    # rest-frame spin axis comes back out after boosting home
    s_rest = np.linalg.inv(pd.l_vec)[:, 3]
    assert np.abs(pd.spin - s_rest).max() < 1e-12


def test_partial_matches_finite_differences(basis):
    fld, p = boosted_wave(basis)
    x = np.array([0.3, -0.1, 0.2, 0.5])
    exact = fld.partial(x)
    h = 1e-6
    for mu in range(4):
        step = np.zeros(4)
        step[mu] = h
        fd = (fld.evaluate(x + step) - fld.evaluate(x - step)) / (2 * h)
        assert np.abs(fd - exact[mu]).max() < 1e-8


def test_covariant_derivative_adds_potential(basis):
    fld, p = boosted_wave(basis)
    a = np.array([0.4, 0.1, -0.2, 0.3])
    bg = Background(mass=MASS, charge=0.7, em_potential=ConstantVector(a))
    x = np.array([0.1, 0.2, 0.3, 0.4])
    psi = fld.evaluate(x)
    grad = covariant_derivative(fld, bg, x)
    plain = fld.partial(x)
    for mu in range(4):
        expect = plain[mu] + 1j * 0.7 * (ETA @ a)[mu] * psi
        assert np.abs(grad[mu] - expect).max() < 1e-15


def test_momentum_covector_single_wave(basis):
    fld, p = boosted_wave(basis)
    bg = Background(mass=MASS)
    jet = polar_jet(fld, bg, basis, np.array([0.2, 0.1, -0.3, 0.4]), h=1e-3)
    # all polar variables except the phase are constant
    assert np.abs(jet.dchiral).max() < 1e-10
    assert np.abs(jet.dlogdensity).max() < 1e-10
    assert np.abs(jet.du).max() < 1e-10
    assert np.abs(jet.ds).max() < 1e-10
    assert np.abs(jet.tc.r).max() < 1e-10
    assert np.abs(jet.tc.p - ETA @ p).max() < 1e-9
    assert jet.tc.projection_residual < 1e-10


def test_momentum_covector_with_potential(basis):
    # a constant potential shifts the covector by -charge * a
    fld, p = boosted_wave(basis)
    a = np.array([0.2, -0.3, 0.1, 0.05])
    q = 0.5
    bg = Background(mass=MASS, charge=q, em_potential=ConstantVector(a))
    jet = polar_jet(fld, bg, basis, np.zeros(4), h=1e-3)
    assert np.abs(jet.tc.p - (ETA @ p - q * ETA @ a)).max() < 1e-9


def test_gauge_shift_leaves_momentum_invariant(basis):
    fld, p = boosted_wave(basis)
    q = 0.8
    bg = Background(mass=MASS, charge=q, em_potential=ConstantVector(np.zeros(4)))
    x = np.array([0.3, 0.2, -0.1, 0.6])
    jet0 = polar_jet(fld, bg, basis, x, h=1e-3)
    c = np.array([0.4, -0.2, 0.7, 0.1])
    fld2, bg2 = gauge_shift_linear(fld, bg, c)
    jet2 = polar_jet(fld2, bg2, basis, x, h=1e-3)
    assert np.abs(jet2.tc.p - jet0.tc.p).max() < 1e-9
    # raw phase gradient does move, by charge times the lowered shift
    assert np.abs(jet2.tc.dphase - jet0.tc.dphase - q * ETA @ c).max() < 1e-9


def two_wave(basis):
    f1, p1 = boosted_wave(basis, v3=(0.25, -0.1, 0.05), spin=(0.1, 0.2, 1.0))
    f2, p2 = boosted_wave(basis, v3=(0.1, 0.15, -0.08), spin=(-0.1, 0.1, 1.0), amp=0.3)
    return superpose(f1, f2)


def test_polar_derivative_two_waves(basis):
    fld = two_wave(basis)
    bg = Background(mass=MASS)
    x = np.array([0.2, 0.3, -0.2, 0.1])
    res = verify_polar_derivative(polar_jet(fld, bg, basis, x, h=1e-3), fld, bg, basis)
    assert res.max() < 1e-7


def test_polar_derivative_converges_quadratically(basis):
    fld = two_wave(basis)
    bg = Background(mass=MASS)
    x = np.array([0.17, 0.23, -0.11, 0.31])
    r1, r2 = (
        verify_polar_derivative(polar_jet(fld, bg, basis, x, h=h), fld, bg, basis).max()
        for h in (2e-3, 1e-3)
    )
    assert 3.5 < r1 / r2 < 4.5


def test_transport_two_waves(basis):
    fld = two_wave(basis)
    bg = Background(mass=MASS)
    jet = polar_jet(fld, bg, basis, np.array([0.1, -0.2, 0.3, 0.2]), h=1e-3)
    rep = verify_transport(jet, basis)
    assert max(rep.values()) < 1e-7, rep


def test_torsion_wave_is_consistent(basis):
    w = np.array([0.1, 0.05, -0.2, 0.3])
    fld, p4 = torsion_wave([0.2, -0.1, 0.3], MASS, 0.4, w, basis)
    bg = Background(
        mass=MASS, torsion_coupling=0.4, torsion_vector=ConstantVector(w)
    )
    psi = fld.evaluate(np.zeros(4))
    assert np.linalg.norm(psi) > 0.5
    # its momentum covector is the eigen-momentum
    jet = polar_jet(fld, bg, basis, np.zeros(4), h=1e-3)
    assert np.abs(jet.tc.p - ETA @ p4).max() < 1e-9


def test_phase_jump_detected(basis):
    p0 = np.sqrt(1 + 2000.0**2)
    fld = plane_wave([p0, 0, 0, 2000.0], MASS, [0, 0, 1.0], 1.0, basis)
    bg = Background(mass=MASS)
    with pytest.raises(PhaseJump):
        polar_jet(fld, bg, basis, np.zeros(4), h=1e-3)


def test_linear_vector_potential():
    slope = np.zeros((4, 4))
    slope[1, 0] = 2.0
    pot = LinearVector([0.5, 0, 0, 0], slope)
    assert np.array_equal(pot.value(np.zeros(4)), [0.5, 0, 0, 0])
    assert np.array_equal(pot.value([1.0, 0, 0, 0]), [0.5, 2.0, 0, 0])
    shifted = pot.shifted([0.1, 0, 0, 0])
    assert np.array_equal(shifted.value(np.zeros(4)), [0.6, 0, 0, 0])


def test_grid_round_trip(basis, tmp_path):
    fld = two_wave(basis)
    origin = np.array([-0.02, -0.02, -0.02, -0.02])
    grid = to_grid(fld.evaluate, origin, 0.01, (5, 5, 5, 5))
    x = np.zeros(4)
    assert np.abs(grid.evaluate(x) - fld.evaluate(x)).max() < 1e-15
    # central differences converge on the analytic derivative
    assert np.abs(grid.partial(x) - fld.partial(x)).max() < 5e-4

    path = tmp_path / "field.grid"
    save_grid(path, grid)
    back = load_grid(path)
    assert np.array_equal(back.data, grid.data)
    assert np.array_equal(back.origin, grid.origin)
    assert np.array_equal(back.spacing, grid.spacing)


def test_grid_domain_errors(basis):
    fld = two_wave(basis)
    grid = to_grid(fld.evaluate, np.zeros(4), 0.01, (4, 4, 4, 4))
    with pytest.raises(OutOfDomain):
        grid.evaluate(np.array([0.005, 0, 0, 0]))  # off-node
    with pytest.raises(OutOfDomain):
        grid.evaluate(np.array([0.08, 0, 0, 0]))  # outside
    with pytest.raises(OutOfDomain):
        grid.partial(np.zeros(4))  # boundary stencil


def test_grid_partial_on_stacks(basis):
    fld = two_wave(basis)
    calls = []

    def sampled(x):
        calls.append(np.shape(x))
        return fld.evaluate(x)

    grid = to_grid(sampled, np.zeros(4), 0.01, (4, 5, 4, 4))
    # one call on the stack of every node
    assert calls == [(4, 5, 4, 4, 4)]
    node = np.array([2, 3, 1, 2])
    assert np.abs(grid.data[tuple(node)] - fld.evaluate(0.01 * node)).max() < 1e-15

    nodes = 0.01 * np.array([[[1, 1, 1, 1], [2, 2, 1, 2]], [[1, 2, 2, 1], [2, 1, 2, 2]]])
    singles = np.array([[grid.partial(x) for x in row] for row in nodes])
    assert np.array_equal(grid.partial(nodes), singles)
    window = BoxWindow(grid, np.zeros(4), np.full(4, 0.025))
    assert np.array_equal(window.partial(nodes), singles)

    # one row whose stencil touches the edge, or that leaves the box, fails the stack
    with pytest.raises(OutOfDomain):
        grid.partial(np.concatenate([nodes[0], [[0.01, 0.04, 0.01, 0.01]]]))
    outside = np.concatenate([nodes[0], [[0.01, 0.03, 0.01, 0.01]]])
    assert grid.partial(outside).shape == (3, 4, 4)
    with pytest.raises(OutOfDomain):
        window.partial(outside)


def test_grid_jet_matches_analytic(basis):
    fld = two_wave(basis)
    bg = Background(mass=MASS)
    origin = np.full(4, -3e-3)
    grid = to_grid(fld.evaluate, origin, 1e-3, (7, 7, 7, 7))
    jet_a = polar_jet(fld, bg, basis, np.zeros(4), h=1e-3)
    jet_g = polar_jet(grid, bg, basis, np.zeros(4), h=1e-3)
    assert np.abs(jet_a.tc.p - jet_g.tc.p).max() < 1e-12
    assert np.abs(jet_a.du - jet_g.du).max() < 1e-12


def test_bad_grid_file_rejected(tmp_path):
    path = tmp_path / "bad.grid"
    path.write_text("not a grid\n1 2 3\n")
    with pytest.raises(ValueError):
        load_grid(path)
