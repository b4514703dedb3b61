import sys

import numpy as np
import pytest

from diracpolar.algebra import ETA, ETA_SIGNS, connection_from_transport, mdot, transport_terms
from diracpolar.errors import OffShell, OutOfDomain, PhaseJump
from diracpolar.fieldconn import (
    Background,
    ConstantVector,
    GriddedField,
    covariant_derivative,
    derivative_jet,
    load_grid,
    plane_wave,
    polar_jet,
    sample_field,
    save_grid,
    superpose,
    to_grid,
    verify_polar_derivative,
    verify_transport,
)
from diracpolar.guidance import potentials
from diracpolar.polar import polar_decompose, wrap_angle
from diracpolar.trajectories import integrate, velocity_field

from conftest import (
    BAD_GRID_FILES,
    BoxWindow,
    LinearVector,
    coupled,
    gauge_shift_linear,
    jet_gap,
    torsion_wave,
    transport_gauge,
)

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
    bg = Background(mass=MASS, qa=ConstantVector(0.7 * a))
    x = np.array([0.1, 0.2, 0.3, 0.4])
    psi = fld.evaluate(x)
    grad = covariant_derivative(fld, bg, x)
    plain = fld.partial(x)
    for mu in range(4):
        expect = plain[mu] + 1j * 0.7 * (ETA @ a)[mu] * psi
        assert np.abs(grad[mu] - expect).max() < 1e-15


def direct_partial(fld, x):
    """d_mu psi of a plane-wave superposition as one product per direction
    mu of the phases with -i p_k mu a_k, the expression the field block must
    reproduce."""
    p_low = np.array([ETA @ c.momentum for c in fld.components])
    amplitudes = np.array([c.amplitude for c in fld.components])
    phases = np.exp(-1j * (np.asarray(x) @ p_low.T))
    return (phases[..., None, None, :] @ (-1j * p_low.T[:, :, None] * amplitudes))[..., 0, :]


# a point, a stack of points and a stack of stacks
BLOCK_SHAPES = [(4,), (3, 4), (2, 3, 4)]


@pytest.mark.parametrize("n_waves", [1, 3])
@pytest.mark.parametrize("shape", BLOCK_SHAPES)
def test_plane_wave_block_matches_separate_calls(basis, n_waves, shape):
    # psi and d_mu psi from one set of phases carry the bits of evaluate and
    # of the product over mu, also for a single point, where evaluate takes
    # a different matrix-product kernel
    third, _ = boosted_wave(basis, v3=(-0.2, 0.05, 0.15), spin=(0.3, -0.2, 1.0), amp=0.2)
    fld = superpose(two_wave(basis), third) if n_waves == 3 else boosted_wave(basis)[0]
    x = np.random.default_rng(3).uniform(-1.0, 1.0, size=shape)
    block = fld.block(x)
    assert block.shape == shape[:-1] + (5, 4)
    assert np.array_equal(block[..., 0, :], fld.evaluate(x))
    assert np.array_equal(block[..., 1:, :], direct_partial(fld, x))
    assert np.array_equal(fld.partial(x), direct_partial(fld, x))
    window = BoxWindow(fld, np.full(4, -1.0), np.full(4, 1.0))
    assert np.array_equal(window.block(x), block)
    with pytest.raises(OutOfDomain):
        window.block(x + 1.5)


def test_grid_block_matches_separate_calls(basis):
    fld = two_wave(basis)
    grid = to_grid(fld.evaluate, np.zeros(4), 0.01, (4, 5, 4, 4))
    window = BoxWindow(grid, np.zeros(4), np.full(4, 0.025))
    nodes = 0.01 * np.array([[[1, 1, 1, 1], [2, 2, 1, 2]], [[1, 2, 2, 1], [2, 1, 2, 2]]])
    for x in (nodes[0, 1], nodes[0], nodes):
        for field in (grid, window):
            block = field.block(x)
            assert np.array_equal(block[..., 0, :], grid.evaluate(x))
            assert np.array_equal(block[..., 1:, :], grid.partial(x))

    # a stencil off the grid, a point off a node or one outside the box
    # fails the block as it fails partial
    with pytest.raises(OutOfDomain):
        grid.block(np.concatenate([nodes[0], [[0.01, 0.04, 0.01, 0.01]]]))
    with pytest.raises(OutOfDomain):
        grid.block(np.array([0.015, 0.01, 0.01, 0.01]))
    outside = np.concatenate([nodes[0], [[0.01, 0.03, 0.01, 0.01]]])
    assert grid.block(outside).shape == (3, 5, 4)
    with pytest.raises(OutOfDomain):
        window.block(outside)


def test_kinematic_velocity_on_grid_reads_evaluate_alone(basis):
    # at the grid's corner nodes the derivative stencil leaves the grid; the
    # kinematic velocity reads only the node's spinor, the guidance one fails
    fld = two_wave(basis)
    grid = to_grid(fld.evaluate, np.zeros(4), 0.01, (3, 3, 3, 3))
    corners = 0.02 * np.array([[0, 0, 0, 0], [1, 1, 0, 1]])
    bg = Background(mass=MASS)
    with pytest.raises(OutOfDomain):
        grid.partial(corners)
    for x in (corners[0], corners):
        got = velocity_field(grid, bg, basis, "kinematic")(x)
        assert np.abs(got - velocity_field(fld, bg, basis, "kinematic")(x)).max() < 1e-14
        with pytest.raises(OutOfDomain):
            velocity_field(grid, bg, basis, "guidance")(x)


@pytest.mark.parametrize("shape", BLOCK_SHAPES)
def test_sample_field_adds_linear_potential(basis, shape):
    fld = two_wave(basis)
    rng = np.random.default_rng(5)
    potential = LinearVector(rng.uniform(-0.5, 0.5, 4), 0.3 * rng.standard_normal((4, 4)))
    x = rng.uniform(-1.0, 1.0, size=shape)
    psi, plain = fld.evaluate(x), fld.partial(x)
    bg = Background(mass=MASS, qa=coupled(0.7, potential))
    qa_low = bg.qa_value(x) * ETA_SIGNS
    expect = plain + 1j * qa_low[..., :, None] * psi[..., None, :]
    sample = sample_field(fld, bg, x)
    assert np.array_equal(sample.psi, psi)
    assert np.array_equal(sample.grad, expect)
    assert np.array_equal(covariant_derivative(fld, bg, x), expect)
    # with no potential the derivative is the field's own
    neutral = sample_field(fld, Background(mass=MASS), x)
    assert np.array_equal(neutral.grad, plain)


def test_potentials_without_torsion_vector(basis):
    # g w moves y by -g w and leaves z
    fld = two_wave(basis)
    x = np.random.default_rng(6).uniform(-1.0, 1.0, size=(3, 4))
    w = LinearVector([0.2, 0.1, -0.3, 0.15], 0.2 * np.eye(4))
    jet = derivative_jet(fld, Background(mass=MASS), basis, x)
    bare = potentials(jet, Background(mass=MASS))
    y, z = potentials(jet, Background(mass=MASS, gw=coupled(0.4, w)))
    assert np.abs(y - (bare[0] - 0.4 * w.value(x) * ETA_SIGNS)).max() < 1e-14
    assert np.array_equal(z, bare[1])


def test_momentum_covector_single_wave(basis):
    fld, p = boosted_wave(basis)
    bg = Background(mass=MASS)
    jet = polar_jet(fld, bg, basis, np.array([0.2, 0.1, -0.3, 0.4]), h=1e-3)
    # all polar variables except the phase are constant
    assert np.abs(jet.dchiral).max() < 1e-10
    assert np.abs(jet.dlogdensity).max() < 1e-10
    assert np.abs(jet.du).max() < 1e-10
    assert np.abs(jet.ds).max() < 1e-10
    assert np.abs(jet.r).max() < 1e-10
    assert np.abs(jet.p - ETA @ p).max() < 1e-9


def test_momentum_covector_with_potential(basis):
    # a constant potential shifts the covector by -q a
    fld, p = boosted_wave(basis)
    a = np.array([0.2, -0.3, 0.1, 0.05])
    q = 0.5
    bg = Background(mass=MASS, qa=ConstantVector(q * a))
    jet = polar_jet(fld, bg, basis, np.zeros(4), h=1e-3)
    assert np.abs(jet.p - (ETA @ p - q * ETA @ a)).max() < 1e-9


def test_gauge_shift_leaves_momentum_invariant(basis):
    fld, p = boosted_wave(basis)
    q = 0.8
    bg = Background(mass=MASS, qa=ConstantVector(np.zeros(4)))
    x = np.array([0.3, 0.2, -0.1, 0.6])
    jet0 = polar_jet(fld, bg, basis, x, h=1e-3)
    c = np.array([0.4, -0.2, 0.7, 0.1])
    fld2, bg2 = gauge_shift_linear(fld, bg, q * c)
    jet2 = polar_jet(fld2, bg2, basis, x, h=1e-3)
    assert np.abs(jet2.p - jet0.p).max() < 1e-9


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
    rep = verify_transport(jet)
    assert max(rep.values()) < 1e-7, rep


def test_torsion_wave_is_consistent(basis):
    w = np.array([0.1, 0.05, -0.2, 0.3])
    fld, p4 = torsion_wave([0.2, -0.1, 0.3], MASS, 0.4, w, basis)
    bg = Background(mass=MASS, gw=ConstantVector(0.4 * w))
    psi = fld.evaluate(np.zeros(4))
    assert np.linalg.norm(psi) > 0.5
    # its momentum covector is the eigen-momentum
    jet = polar_jet(fld, bg, basis, np.zeros(4), h=1e-3)
    assert np.abs(jet.p - ETA @ p4).max() < 1e-9


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


@pytest.mark.parametrize("shape", [(5, 5, 5, 5), (1, 1, 1, 1)], ids=["5^4", "one-node"])
def test_grid_round_trip(basis, tmp_path, shape):
    fld = two_wave(basis)
    # the centre node at x = 0
    origin = -0.01 * (np.array(shape) // 2)
    grid = to_grid(fld.evaluate, origin, 0.01, shape)
    x = np.zeros(4)
    assert np.abs(grid.evaluate(x) - fld.evaluate(x)).max() < 1e-15
    if min(shape) > 2:
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
    assert np.array_equal(window.block(nodes)[..., 1:, :], singles)

    # one row whose stencil touches the edge, or that leaves the box, fails the stack
    with pytest.raises(OutOfDomain):
        grid.partial(np.concatenate([nodes[0], [[0.01, 0.04, 0.01, 0.01]]]))
    outside = np.concatenate([nodes[0], [[0.01, 0.03, 0.01, 0.01]]])
    assert grid.partial(outside).shape == (3, 4, 4)
    with pytest.raises(OutOfDomain):
        window.block(outside)[..., 1:, :]


def test_grid_jet_matches_analytic(basis):
    fld = two_wave(basis)
    bg = Background(mass=MASS)
    origin = np.full(4, -3e-3)
    grid = to_grid(fld.evaluate, origin, 1e-3, (7, 7, 7, 7))
    jet_a = polar_jet(fld, bg, basis, np.zeros(4), h=1e-3)
    jet_g = polar_jet(grid, bg, basis, np.zeros(4), h=1e-3)
    assert np.abs(jet_a.p - jet_g.p).max() < 1e-12
    assert np.abs(jet_a.du - jet_g.du).max() < 1e-12
    # the exact jet takes the grid's central differences as the derivative
    exact = derivative_jet(fld, bg, basis, np.zeros(4))
    assert jet_gap(derivative_jet(grid, bg, basis, np.zeros(4)), exact) < 1e-6


@pytest.mark.parametrize("text, err", BAD_GRID_FILES.values(), ids=BAD_GRID_FILES)
def test_bad_grid_file_rejected(tmp_path, text, err):
    path = tmp_path / "bad.grid"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        load_grid(path)
    assert str(exc.value).startswith(err)


@pytest.mark.parametrize(
    "origin, spacing",
    [(np.zeros(3), 1.0), (np.zeros(5), 1.0), ([0, 0, np.inf, 0], 1.0), (np.zeros(4), -1.0),
     (np.zeros(4), [1.0, 1.0, 0.0, 1.0]), (np.zeros(4), np.nan)],
    ids=["origin-3", "origin-5", "origin-inf", "spacing-negative", "spacing-zero", "spacing-nan"],
)
def test_grid_rejects_bad_origin_and_spacing(origin, spacing):
    with pytest.raises(ValueError, match="^grid (origin|spacing) must be"):
        GriddedField(origin, spacing, np.zeros((1, 1, 1, 1, 4)))


# -- the exact jet ------------------------------------------------------------


def jet_field(name, basis):
    """(field, background) of the exact-jet tests."""
    if name == "one-wave":
        return boosted_wave(basis)[0], Background(mass=MASS)
    if name == "two-wave":
        return two_wave(basis), Background(mass=MASS)
    if name == "torsion":
        w = np.array([0.1, 0.05, -0.2, 0.3])
        waves = [torsion_wave(p, MASS, 0.4, w, basis, amplitude=a)[0]
                 for p, a in (([0.2, -0.1, 0.3], 1.0), ([-0.1, 0.25, 0.1], 0.4))]
        bg = Background(mass=MASS, gw=ConstantVector(0.4 * w))
        return superpose(*waves), bg
    slope = 0.2 * np.array(
        [[0.0, 1.0, 0.0, 0.5], [1.0, 0.0, 0.5, 0.0], [0.0, -0.5, 0.0, 1.0], [0.2, 0.0, 0.3, 0.0]]
    )
    potential = LinearVector([0.1, -0.2, 0.05, 0.3], slope)
    return two_wave(basis), Background(mass=MASS, qa=coupled(0.7, potential))


JET_FIELDS = ["one-wave", "two-wave", "torsion", "charged"]


@pytest.mark.parametrize("name", JET_FIELDS)
def test_derivative_jet_matches_stencil(basis, name):
    fld, bg = jet_field(name, basis)
    points = np.random.default_rng(31).uniform(-0.5, 0.5, size=(5, 4))
    exact = derivative_jet(fld, bg, basis, points)
    stencil = [transport_gauge(polar_jet(fld, bg, basis, points, h)) for h in (2e-3, 1e-3)]

    def potential_gap(a, b):
        return max(np.abs(x - y).max() for x, y in zip(potentials(a, bg), potentials(b, bg)))

    # the jets, then the y and z potentials the guidance velocity reads from them
    for gap in (jet_gap, potential_gap):
        coarse, fine = (gap(exact, jet) for jet in stencil)
        if name == "one-wave":
            # constant polar variables and a linear phase: the stencil is exact
            # up to rounding, so there is no truncation error to shrink
            assert max(coarse, fine) < 1e-10
        else:
            assert fine < 1e-7
            assert 3.0 <= coarse / fine <= 5.0


@pytest.mark.parametrize("name", JET_FIELDS)
def test_derivative_jet_identities_at_rounding(basis, name):
    fld, bg = jet_field(name, basis)
    points = np.random.default_rng(32).uniform(-0.5, 0.5, size=(50, 4))
    jet = derivative_jet(fld, bg, basis, points)
    assert verify_polar_derivative(jet, fld, bg, basis).max() <= 1e-13
    assert max(v.max() for v in verify_transport(jet).values()) <= 1e-13
    if name == "one-wave":
        assert np.abs(jet.p - ETA @ boosted_wave(basis)[1]).max() < 1e-13


def check_polar_variables(jet, pd):
    """The jet's density, chiral angle, velocity and spin against a
    decomposition of the same spinors, to 1e-14 per row."""
    assert np.all(np.abs(jet.density - pd.density) <= 1e-14 * pd.density)
    assert np.all(np.abs(wrap_angle(jet.chiral_angle - pd.chiral_angle)) <= 1e-14)
    for got, want in ((jet.velocity, pd.velocity), (jet.spin, pd.spin)):
        scale = np.maximum(1.0, np.abs(want).max(axis=-1))
        assert np.all(np.abs(got - want).max(axis=-1) <= 1e-14 * scale)


@pytest.mark.parametrize("name", JET_FIELDS)
def test_derivative_jet_polar_variables_match_decomposition(basis, name):
    fld, bg = jet_field(name, basis)
    points = np.random.default_rng(33).uniform(-0.5, 0.5, size=(20, 4))
    check_polar_variables(
        derivative_jet(fld, bg, basis, points), polar_decompose(fld.evaluate(points), basis)
    )
    for x in points:
        jet = derivative_jet(fld, bg, basis, x)
        assert np.shape(jet.density) == np.shape(jet.chiral_angle) == ()
        check_polar_variables(jet, polar_decompose(fld.evaluate(x), basis))


def test_guidance_evaluation_decomposes_nothing(basis, monkeypatch):
    calls = []

    def counting(psi, basis):
        calls.append(np.shape(psi))
        return polar_decompose(psi, basis)

    # every namespace of the package that binds polar_decompose
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "diracpolar" and hasattr(module, "polar_decompose"):
            monkeypatch.setattr(module, "polar_decompose", counting)
    fld, bg = jet_field("charged", basis)
    points = np.random.default_rng(34).uniform(-0.5, 0.5, size=(3, 4))
    velocity_field(fld, bg, basis, "guidance")(points)
    assert calls == []
    # the wrapper does see the stencil's one decomposition
    polar_jet(fld, bg, basis, points)
    assert calls == [(9, 3, 4)]


def test_guidance_never_forms_the_connection(basis, monkeypatch):
    # the guidance path reads r only through CONNECTION_TABLE; with the one
    # formula for r broken, a guidance integration still completes
    class Formed(Exception):
        pass

    def broken(a):
        raise Formed

    fld, bg = jet_field("charged", basis)
    x0 = np.array([0.1, -0.2, 0.05, 0.3])
    with monkeypatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "diracpolar" and hasattr(module, "connection_from_transport"):
                patch.setattr(module, "connection_from_transport", broken)
        arc = integrate(fld, bg, basis, x0, tau_max=0.2, h_tau=0.05, mode="guidance")
        assert arc.completed and len(arc.tau) == 5
        jet = derivative_jet(fld, bg, basis, x0)
        with pytest.raises(Formed):
            jet.r
    # restored, the jet's r is the connection of the transport terms of its
    # u, s and derivatives
    jet = derivative_jet(fld, bg, basis, x0)
    terms = transport_terms(jet.velocity, jet.du, jet.spin, jet.ds)
    assert np.array_equal(jet.r, connection_from_transport(terms))
