"""Property tests of the closed-form, batched polar layer at its edges.

The closed-form frame is compared with lorentz_exp of the same parameters up
to large rapidities and next to the -z antipode, where the minimal rotation
switches branch; batched calls of the polar layer, of lorentz_exp, of the
identity checks and of the exact jet are compared with stacked single calls; a
batch holding one near-singular spinor must fail like the single call; and
chiral angles and residual phases next to +-pi, where both wrap, must
survive the round trip and the polar jet's differences.  Next to the -z
antipode, where the frame turns fast, the exact jet still agrees to second
order with the stencil once the stencil's turn about the spin is taken out,
and its guidance velocity with the kinematic one to rounding scaled by the
momentum inversion.  That turn is a free gauge: shifting it leaves nabla psi
and, on solutions, the guidance velocity as they are, so the exact jet fixes
it at zero.  The guidance velocity is unchanged by a joint phase and
potential shift, and both velocities, p and xs turn with a Lorentz
transformation of the field, on and off solutions.
"""
import io
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracpolar import cli
from diracpolar.algebra import (
    ETA_SIGNS,
    SEED_SPINOR,
    boost_params,
    boost_reps,
    lorentz_exp,
    lorentz_inverse,
    rot_z_to_params,
    rot_z_to_reps,
)
from diracpolar.bilinears import (
    check_fierz,
    check_spinor_constraints,
    compute_bilinears,
    is_regular,
    random_regular_spinor,
)
from diracpolar.errors import SingularSpinor
from diracpolar.fieldconn import (
    Background,
    BoxWindow,
    ConstantVector,
    LinearVector,
    PlaneWaveComponent,
    PlaneWaveField,
    density_products,
    derivative_jet,
    gauge_shift_linear,
    plane_wave,
    polar_jet,
    sample_field,
    superpose,
    to_grid,
    verify_polar_derivative,
    verify_transport,
)
from diracpolar.gordon import dirac_residual, residual_bilinear_gordon, residual_polar_groups
from diracpolar.guidance import compact_forms, velocity_from_momentum
from diracpolar.polar import (
    kinematic_velocity,
    polar_decompose,
    polar_reconstruct,
    wrap_angle,
)
from diracpolar.trajectories import velocity_field

from conftest import SpinorTable, jet_gap, shift_turn, transport_gauge, vanishing_waves

EPS = np.finfo(float).eps
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# spatial proper velocities with components up to 300, so u0 reaches ~520
velocities = st.lists(st.floats(-300.0, 300.0), min_size=3, max_size=3).map(np.array)
directions = (
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
    .map(np.array)
    .filter(lambda t: np.linalg.norm(t) > 0.1)
)
seeds = st.integers(0, 2**32 - 1)


def four_velocity(v):
    return np.concatenate([[np.sqrt(1.0 + v @ v)], v])


def expm_frame(u, spin_axis, basis):
    boost = lorentz_exp(boost_params(u), basis)
    rot = lorentz_exp(rot_z_to_params(spin_axis), basis)
    return rot.spin_rep @ boost.spin_rep, rot.vec_rep @ boost.vec_rep


@PROPERTY
@given(v=velocities, t=directions)
def test_closed_form_frame_matches_expm(basis, v, t):
    u = four_velocity(v)
    boost_spin, boost_vec = boost_reps(u, basis)
    rot_spin, rot_vec = rot_z_to_reps(t, basis)
    ref_spin, ref_vec = expm_frame(u, t, basis)
    # spin entries grow like sqrt(u0), vector entries like u0; expm's scaling
    # and squaring loses a few more bits than the closed form as u0 grows
    assert np.abs(rot_spin @ boost_spin - ref_spin).max() < 1e-12 * np.sqrt(u[0])
    assert np.abs(rot_vec @ boost_vec - ref_vec).max() < 1e-11 * u[0]


@PROPERTY
@given(
    log_offset=st.one_of(st.just(-np.inf), st.floats(-20.0, -8.0)),
    azimuth=st.floats(0.0, 2 * np.pi),
)
def test_rotation_next_to_antipode_matches_expm(basis, log_offset, azimuth):
    # offsets from 1e-20 to 1e-8 fall on both sides of the 1e-14 threshold
    # below which both forms take the half turn about x
    offset = 10.0**log_offset
    t = np.array([offset * np.cos(azimuth), offset * np.sin(azimuth), -1.0])
    spin, vec = rot_z_to_reps(t, basis)
    ref = lorentz_exp(rot_z_to_params(t), basis)
    assert np.abs(spin - ref.spin_rep).max() < 1e-13
    assert np.abs(vec - ref.vec_rep).max() < 1e-13
    assert np.abs(lorentz_inverse(vec)[1:, 3] - t / np.linalg.norm(t)).max() < 1e-13


@PROPERTY
@given(v=velocities, t=directions, phase=st.floats(-3.0, 3.0))
def test_decomposition_frame_at_large_rapidity(basis, v, t, phase):
    u = four_velocity(v)
    l_spin, _ = expm_frame(u, t, basis)
    psi = np.linalg.solve(l_spin, SEED_SPINOR) * np.exp(-1j * phase)
    pd = polar_decompose(psi, basis)
    # The scalar density is of order 1 while |psi|^2 is of order u0, so the
    # densities, and u and s with them, carry errors of order eps u0^2, and
    # the rebuilt spinor of order eps u0 |psi|.  Sampled worst cases were 350
    # and 140 of these units, for the expm frame and the closed form alike.
    frame_tol = 2000 * EPS * u[0] ** 2
    assert np.abs(kinematic_velocity(pd) - pd.velocity).max() < frame_tol
    assert np.abs(lorentz_inverse(pd.l_vec)[:, 3] - pd.spin).max() < frame_tol
    assert np.abs(pd.velocity - u).max() < frame_tol
    trip_tol = 1000 * EPS * u[0] * np.linalg.norm(psi)
    assert np.abs(polar_reconstruct(pd, basis) - psi).max() < trip_tol


@PROPERTY
@given(seed=seeds, n=st.integers(1, 12))
def test_batch_equals_stacked_single_calls(basis, seed, n):
    rng = np.random.default_rng(seed)
    psi = np.array(
        [random_regular_spinor(rng, basis, scale=rng.uniform(0.3, 3.0)) for _ in range(n)]
    )
    lam = rng.standard_normal((n, 4, 4))
    lam = lam - np.swapaxes(lam, -1, -2)
    waves = [
        plane_wave(four_velocity(rng.uniform(-0.5, 0.5, 3)), 1.0, rng.standard_normal(3), a, basis)
        for a in (1.0, 0.3)
    ]
    fld = superpose(*waves)
    points = rng.uniform(-0.5, 0.5, size=(n, 4))
    bg = Background(mass=1.0)
    bil = compute_bilinears(psi, basis)
    pd = polar_decompose(psi, basis)
    rebuilt = polar_reconstruct(pd, basis)
    pair = lorentz_exp(lam, basis)
    fierz = check_fierz(bil)
    constraints = check_spinor_constraints(psi, basis)
    transport = verify_transport(polar_jet(fld, bg, basis, points, H_JET))
    exact = derivative_jet(fld, bg, basis, points)
    angles = {"chiral_angle", "residual_phase"}
    for k in range(n):
        single = polar_decompose(psi[k], basis)
        one_bil = compute_bilinears(psi[k], basis)
        for batch, one in ((bil, one_bil), (pd, single), (pair, lorentz_exp(lam[k], basis))):
            for f in fields(one):
                got, want = getattr(batch, f.name)[k], getattr(one, f.name)
                gap = wrap_angle(got - want) if f.name in angles else got - want
                assert np.abs(gap).max() <= 1e-14 * max(1.0, np.abs(want).max()), f.name
        for batch, one in (
            (fierz, check_fierz(one_bil)),
            (constraints, check_spinor_constraints(psi[k], basis)),
        ):
            assert list(batch) == list(one)
            for name, want in one.items():
                assert abs(batch[name][k] - want) <= 1e-14, name
        one = verify_transport(polar_jet(fld, bg, basis, points[k], H_JET))
        assert list(transport) == list(one)
        for name, want in one.items():
            # the jet divides rounding of order eps by 2h, and a stack and a
            # single row round differently: allow 10 eps / h
            assert abs(transport[name][k] - want) <= 10 * EPS / H_JET, name
        one = derivative_jet(fld, bg, basis, points[k])
        for got, want in (
            (exact.dchiral[k], one.dchiral),
            (exact.dlogdensity[k], one.dlogdensity),
            (exact.du[k], one.du),
            (exact.ds[k], one.ds),
            (exact.r[k], one.r),
            (exact.p[k], one.p),
        ):
            assert np.abs(got - want).max() <= 1e-14 * max(1.0, np.abs(want).max())
        want = polar_reconstruct(single, basis)
        assert np.abs(rebuilt[k] - want).max() <= 1e-14 * np.abs(want).max()


def test_empty_stacks_give_empty_results(basis):
    # a stack of no points is a batch like any other: every batched layer
    # answers with arrays of batch shape (0,) and its own trailing shape
    momenta = np.array([four_velocity(np.array(v)) for v in ((0.2, -0.1, 0.3), (0.0, 0.1, 0.0))])
    axes = np.array([[0.0, 0.3, 1.0], [1.0, 0.0, 0.0]])
    fld = plane_wave(momenta, 1.0, axes, np.array([1.0, 0.3]), basis)
    grid = to_grid(fld.evaluate, np.zeros(4), 0.1, (3, 3, 3, 3))
    bg = Background(mass=1.0)
    x = np.zeros((0, 4))
    psi = np.zeros((0, 4), dtype=complex)
    for field in (fld, grid, BoxWindow(fld, -np.ones(4), np.ones(4))):
        assert field.block(x).shape == (0, 5, 4)
    assert density_products(psi, np.zeros((0, 5, 4)), basis.density_rows).shape == (0, 16, 5)
    assert compute_bilinears(psi, basis).tensor.shape == (0, 4, 4)
    assert polar_decompose(psi, basis).l_spin.shape == (0, 4, 4)
    for jet in (derivative_jet(fld, bg, basis, x), polar_jet(fld, bg, basis, x)):
        assert jet.r.shape == (0, 4, 4, 4)
        assert jet.p.shape == (0, 4)
        assert verify_polar_derivative(jet, fld, bg, basis).shape == (0, 4)
        groups = residual_polar_groups(jet, bg)
        assert {value.shape for value in groups.values()} == {(0,)}
    checks = residual_bilinear_gordon(fld, bg, basis, x)
    assert {value.shape for value in checks.values()} == {(0,)}
    assert dirac_residual(fld, bg, basis, x).shape == (0,)
    for mode in ("kinematic", "guidance"):
        assert velocity_field(fld, bg, basis, mode)(x).shape == (0, 4)


@PROPERTY
@given(
    seed=seeds,
    n=st.integers(1, 12),
    row=st.integers(0, 11),
    log_size=st.one_of(st.just(-np.inf), st.floats(-12.0, -7.0)),
)
def test_batch_with_singular_row_raises(basis, seed, n, row, log_size):
    rng = np.random.default_rng(seed)
    psi = np.array([random_regular_spinor(rng, basis) for _ in range(n)])
    # a light-cone spinor plus a perturbation too small to make it regular
    near = np.array([0.0, 0.0, 1.0, 1j]) + 10.0**log_size * (
        rng.standard_normal(4) + 1j * rng.standard_normal(4)
    )
    assert not is_regular(compute_bilinears(near, basis))
    with pytest.raises(SingularSpinor):
        polar_decompose(near, basis)
    psi[row % n] = near
    with pytest.raises(SingularSpinor):
        polar_decompose(psi, basis)


@PROPERTY
@given(
    seed=seeds,
    n=st.integers(1, 12),
    row=st.integers(0, 11),
    log_size=st.one_of(st.just(-np.inf), st.floats(-12.0, -7.0)),
)
def test_jet_with_singular_row_raises(basis, seed, n, row, log_size):
    # the exact jet and the guidance velocity field guard the densities as
    # polar_decompose does: one near-singular row fails the whole stack
    rng = np.random.default_rng(seed)
    psi = np.array([random_regular_spinor(rng, basis) for _ in range(n)])
    grad = rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))
    near = np.array([0.0, 0.0, 1.0, 1j]) + 10.0**log_size * (
        rng.standard_normal(4) + 1j * rng.standard_normal(4)
    )
    points = rng.uniform(-0.5, 0.5, size=(n, 4))
    bg = Background(mass=1.0)
    derivative_jet(SpinorTable(psi.copy(), grad), bg, basis, points)
    psi[row % n] = near
    for x, fld in ((points[0], SpinorTable(near, grad[0])), (points, SpinorTable(psi, grad))):
        with pytest.raises(SingularSpinor):
            derivative_jet(fld, bg, basis, x)
        with pytest.raises(SingularSpinor):
            velocity_field(fld, bg, basis, "guidance")(x)


# a point, a stack of points and a stack of stacks
POINT_SHAPES = st.sampled_from([(4,), (6, 4), (2, 3, 4)])


@PROPERTY
@given(seed=seeds, n_waves=st.integers(1, 3), charge=st.floats(-2.0, 2.0), shape=POINT_SHAPES)
def test_jet_in_linear_potential(basis, seed, n_waves, charge, shape):
    # the charge term joins the derivative rows in sample_field; the jet
    # matches the one built from the covariant derivative as a neutral field
    rng = np.random.default_rng(seed)
    v3 = rng.uniform(-0.5, 0.5, size=(n_waves, 3))
    momenta = np.column_stack([np.sqrt(1.0 + np.sum(v3 * v3, axis=-1)), v3])
    # one leading wave keeps every point regular
    amplitudes = np.concatenate(
        [[1.0], 0.3 * rng.uniform(size=n_waves - 1) * np.exp(2j * np.pi * rng.uniform(size=n_waves - 1))]
    )
    fld = plane_wave(momenta, 1.0, rng.uniform(-1.0, 1.0, size=(n_waves, 3)), amplitudes, basis)
    potential = LinearVector(rng.uniform(-0.5, 0.5, 4), 0.3 * rng.standard_normal((4, 4)))
    bg = Background(mass=1.0, charge=charge, em_potential=potential)
    x = rng.uniform(-1.0, 1.0, size=shape)
    jet = derivative_jet(fld, bg, basis, x)
    sample = sample_field(fld, bg, x)
    psi_first = derivative_jet(SpinorTable(sample.psi, sample.grad), Background(mass=1.0), basis, x)
    assert jet_gap(jet, psi_first) <= 1e-13
    # the charge moves p alone, by -q a
    neutral = derivative_jet(fld, Background(mass=1.0), basis, x)
    shift = charge * potential.value(x) * ETA_SIGNS
    assert jet_gap(replace(jet, p=jet.p + shift), neutral) <= 1e-13


# offsets from +-pi: exactly on it, or 1e-14 up to 1e-2 away
pi_offsets = st.one_of(st.just(0.0), st.floats(-14.0, -2.0).map(lambda e: 10.0**e))
signs = st.sampled_from([-1.0, 1.0])
# polar data of frames with u0 up to about 5, on which the angles are
# conditioned like at rest
frames = st.tuples(
    st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3).map(np.array), directions
)


def frame_data(frame, basis):
    v, t = frame
    l_spin, _ = expm_frame(four_velocity(v), t, basis)
    return polar_decompose(np.linalg.solve(l_spin, SEED_SPINOR), basis)


@PROPERTY
@given(frame=frames, sign=signs, offset=pi_offsets, phase=st.floats(-3.0, 3.0))
def test_chiral_angle_next_to_pi_round_trip(basis, frame, sign, offset, phase):
    base = frame_data(frame, basis)
    chiral = sign * (np.pi - offset)
    psi = polar_reconstruct(replace(base, chiral_angle=chiral, residual_phase=phase), basis)
    pd = polar_decompose(psi, basis)
    # at +-pi exactly either end of the interval is the same angle
    assert abs(wrap_angle(pd.chiral_angle - chiral)) < 1e-13
    assert np.abs(polar_reconstruct(pd, basis) - psi).max() < 1e-13 * np.linalg.norm(psi)


class AffinePolarField:
    """Spinor field with a fixed frame and density whose chiral angle and
    residual phase are affine in x, so their exact gradients are known."""

    def __init__(self, pd, dchiral, dphase, basis):
        self.pd, self.dchiral, self.dphase, self.basis = pd, dchiral, dphase, basis

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        local = replace(
            self.pd,
            chiral_angle=self.pd.chiral_angle + x @ self.dchiral,
            residual_phase=self.pd.residual_phase + x @ self.dphase,
        )
        return polar_reconstruct(local, self.basis)


H_JET = 1e-3
# gradients whose time component moves an angle by at least 0.5 h across the
# stencil, more than the largest offset below, so the stencil crosses +-pi
gradients = st.tuples(
    st.floats(0.5, 2.0), signs, st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3)
).map(lambda t: np.array([t[0] * t[1], *t[2]]))
stencil_offsets = st.one_of(
    st.just(0.0), st.floats(-12.0, np.log10(0.4 * H_JET)).map(lambda e: 10.0**e)
)
any_gradients = st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4).map(np.array)


def stencil_rounding(frame):
    """Rounding of polar_jet's differences on a field of this frame: eps / h,
    divided by min(1, d) when the rest spin lies a distance d from -z, where
    the axis of the minimal rotation moves by eps / d.  On -z itself
    rot_z_to_reps takes a fixed half turn, which moves by eps alone."""
    t = frame[1] / np.linalg.norm(frame[1])
    distance = np.linalg.norm(t + [0.0, 0.0, 1.0])
    if np.hypot(t[0], t[1]) < 1e-14 and t[2] < 0:
        distance = 1.0
    return EPS / (H_JET * min(1.0, distance))


def check_jet(jet, dchiral, dphase, rounding):
    assert np.all(np.isfinite(jet.dchiral)) and np.all(np.isfinite(jet.p))
    # the angles are affine, so the central differences are exact up to
    # rounding; with a fixed frame and no charge, p is the phase gradient.
    # Over 20000 random draws, a third of them next to -z, p reached 15.3 and
    # r 122 units of stencil_rounding, dchiral 8.7e-13 at any distance
    assert np.abs(jet.dchiral - dchiral).max() < 1e-10
    assert np.abs(jet.p - dphase).max() < 40 * rounding
    assert np.abs(jet.r).max() < 300 * rounding


# the rest spin 1.2e-7 from -z: the flat bound 1e-10 of r and p failed here
NEXT_TO_ANTIPODE = (np.array([0.0, 2.0, 0.0]), np.array([0.0, 1.192092896e-07, -1.0]))
UNIT_GRADIENT = np.array([-1.0, 0.0, 0.0, 0.0])


@PROPERTY
@given(frame=frames, sign=signs, offset=stencil_offsets, dchiral=gradients, dphase=any_gradients)
@example(frame=NEXT_TO_ANTIPODE, sign=-1.0, offset=0.0, dchiral=UNIT_GRADIENT, dphase=np.zeros(4))
def test_polar_jet_across_chiral_wrap(basis, frame, sign, offset, dchiral, dphase):
    pd = replace(frame_data(frame, basis), chiral_angle=sign * (np.pi - offset))
    fld = AffinePolarField(pd, dchiral, dphase, basis)
    jet = polar_jet(fld, Background(mass=1.0), basis, np.zeros(4), H_JET)
    check_jet(jet, dchiral, dphase, stencil_rounding(frame))


@PROPERTY
@given(frame=frames, sign=signs, offset=stencil_offsets, dphase=gradients, dchiral=any_gradients)
@example(frame=NEXT_TO_ANTIPODE, sign=-1.0, offset=0.0, dphase=UNIT_GRADIENT, dchiral=np.zeros(4))
def test_polar_jet_across_phase_wrap(basis, frame, sign, offset, dphase, dchiral):
    pd = replace(frame_data(frame, basis), residual_phase=sign * (np.pi - offset))
    fld = AffinePolarField(pd, dchiral, dphase, basis)
    jet = polar_jet(fld, Background(mass=1.0), basis, np.zeros(4), H_JET)
    check_jet(jet, dchiral, dphase, stencil_rounding(frame))


def antipode_field(basis, seed, distance, azimuth, steady_turn):
    """(field, background) whose rest spin at x = 0 lies distance from -z and
    turns at about 30 times that distance per unit length, so the connection
    grows like the inverse distance while a stencil step still moves the spin
    much less: one wave with that spin plus vanishing waves of scale 30
    distance.  With steady_turn the waves are scaled instead so that the
    largest d_mu s^a at x = 0 is exactly 30 distance; the plain scale left
    it between 1.9 and 32 distance in 60 sampled draws."""
    rng = np.random.default_rng(seed)
    axis = np.array([distance * np.cos(azimuth), distance * np.sin(azimuth), -1.0])
    base = plane_wave(four_velocity(rng.uniform(-0.3, 0.3, 3)), 1.0, axis, 1.0, basis)
    waves = vanishing_waves(rng, basis)
    bg = Background(mass=1.0)
    scale = 30 * distance
    if steady_turn:
        # the waves vanish at x = 0, and the wave alone has a constant spin,
        # so d s there is linear in their scale
        unit = derivative_jet(PlaneWaveField(base.components + waves), bg, basis, np.zeros(4))
        scale = scale / np.abs(unit.ds).max()
    waves = [replace(wave, amplitude=scale * wave.amplitude) for wave in waves]
    return PlaneWaveField(base.components + waves), bg


@PROPERTY
@given(
    seed=seeds,
    log_distance=st.floats(-8.0, -2.0),
    azimuth=st.floats(0.0, 2 * np.pi),
)
def test_derivative_jet_next_to_antipode(basis, seed, log_distance, azimuth):
    # The stencil's rounding, about eps / (distance h), must stay well below
    # its h^2 error, whose size the steady turn of the spin fixes: over 2500
    # random draws of this test, 1464 of them closer than 1e-7, the ratio
    # stayed within 3.98 to 4.12
    distance = 10.0**log_distance
    fld, bg = antipode_field(basis, seed, distance, azimuth, steady_turn=True)
    exact = derivative_jet(fld, bg, basis, np.zeros(4))
    _, boost = boost_reps(exact.velocity, basis)
    rest_spin = (boost @ exact.spin)[1:]
    assert 0.5 * distance < np.linalg.norm(rest_spin - [0.0, 0.0, -1.0]) < 2 * distance
    coarse, fine = (
        jet_gap(exact, transport_gauge(polar_jet(fld, bg, basis, np.zeros(4), h)))
        for h in (2e-3, 1e-3)
    )
    assert 3.0 <= coarse / fine <= 5.0


def inversion_conditioning(forms, spin):
    """zeta = z / xs and the size of the inverse momentum map, its largest
    entry, at every point of the forms: the largest component of the
    velocities it gives the four unit covectors."""
    zeta = forms.z / np.asarray(forms.xs)[..., None]
    columns = [
        velocity_from_momentum(np.broadcast_to(e, np.shape(spin)), spin, forms)
        for e in np.eye(4)
    ]
    return zeta, np.abs(columns).max(axis=(0, -1))


@PROPERTY
@given(
    seed=seeds,
    log_distance=st.floats(-8.0, -2.0),
    azimuth=st.floats(0.0, 2 * np.pi),
)
# in the frame's gauge, without the inversion's conditioning, a bound that
# also grew like 1 / distance was passed 47-fold here
@example(seed=102910, log_distance=-2.0, azimuth=1.0)
def test_guidance_velocity_next_to_antipode(basis, seed, log_distance, azimuth):
    # the field of test_derivative_jet_next_to_antipode without the steady
    # turn.  The transport gauge's connection and phase gradient stay
    # regular next to -z (the frame's grew like 1 / distance, and the
    # velocity was what was left of their cancellation), so the jet carries
    # about eps (1 + |zeta|), and the momentum inversion scales it by the
    # size of its inverse, as in the gauge test below.  Over 20000 random
    # draws, log10 distance uniform in [-8, -2], the gap stayed below 4.9 of
    # these units
    distance = 10.0**log_distance
    fld, bg = antipode_field(basis, seed, distance, azimuth, steady_turn=False)
    jet = derivative_jet(fld, bg, basis, np.zeros(4))
    forms = compact_forms(jet, bg)
    guided = velocity_from_momentum(jet.p * ETA_SIGNS, jet.spin, forms)
    zeta, inverse = inversion_conditioning(forms, jet.spin)
    bound = 40 * EPS * (1 + np.abs(zeta).max()) * inverse
    assert np.abs(guided - jet.velocity).max() <= bound


def random_waves(rng, n_waves, basis):
    """Superposition of n_waves free waves of unit mass, with random
    momenta, rest spins and complex amplitudes."""
    return superpose(*(
        plane_wave(four_velocity(rng.uniform(-0.5, 0.5, 3)), 1.0, rng.standard_normal(3),
                   rng.uniform(0.2, 1.0) * np.exp(1j * rng.uniform(-3.0, 3.0)), basis)
        for _ in range(n_waves)
    ))


@PROPERTY
@given(
    seed=seeds,
    n_waves=st.integers(1, 3),
    charge=st.floats(0.1, 2.0),
    sign=signs,
    linear=st.booleans(),
    shift=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4).map(np.array),
)
def test_guidance_velocity_is_gauge_invariant(basis, seed, n_waves, charge, sign, linear, shift):
    # psi -> exp(-i q c.x) psi with a -> a + c leaves nabla psi covariant, so
    # the guidance velocity moves only by rounding.  The jet carries errors of
    # order eps u0^2 (u0 of the unit velocity: |U| over |(S, P)|), and the
    # momentum inversion scales them by the size of its inverse, its largest
    # entry, times 1 + |velocity|.  Over 20000 random draws of this test the
    # gap stayed below 9.4 eps of that product
    rng = np.random.default_rng(seed)
    fld = random_waves(rng, n_waves, basis)
    base = rng.uniform(-0.5, 0.5, 4)
    potential = LinearVector(base, 0.3 * rng.standard_normal((4, 4))) if linear else (
        ConstantVector(base)
    )
    bg = Background(mass=1.0, charge=sign * charge, em_potential=potential)
    points = rng.uniform(-1.0, 1.0, size=(4, 4))
    velocity = velocity_field(fld, bg, basis, "guidance")(points)
    shifted = velocity_field(*gauge_shift_linear(fld, bg, shift), basis, "guidance")(points)

    jet = derivative_jet(fld, bg, basis, points)
    _, inverse = inversion_conditioning(compact_forms(jet, bg), jet.spin)
    size = 1 + np.abs(velocity).max(axis=-1)
    bound = 100 * EPS * jet.velocity[..., 0] ** 2 * inverse * size
    assert np.all(np.abs(shifted - velocity).max(axis=-1) <= bound)


@PROPERTY
@given(seed=seeds, n_waves=st.integers(1, 3))
def test_turn_about_spin_is_a_free_gauge(basis, seed, n_waves):
    # u and s fix r up to a turn about the spin, lam_mu *(u^s); shifting lam
    # by any c_mu at a point, with p shifted by c / 2, gives a jet that
    # rebuilds nabla psi as well, and on a solution the same guidance
    # velocity, which is why derivative_jet may fix lam = 0.  Off solutions
    # the velocity moves: with the first amplitude kicked as in the
    # covariance test below, by 2.3 in the median of 300 draws.  Units as in
    # the gauge test, with the larger size of the inverse momentum map of
    # the two jets; over 32000 random draws of this test the worst polar
    # derivative was 12.8, as for the jet before the shift, and over 20000
    # the worst guidance velocity 3.2
    rng = np.random.default_rng(seed)
    fld = random_waves(rng, n_waves, basis)
    bg = Background(mass=1.0)
    points = rng.uniform(-1.0, 1.0, size=(4, 4))
    jet = derivative_jet(fld, bg, basis, points)
    shifted = shift_turn(jet, rng.standard_normal((4, 4)))
    unit = EPS * jet.velocity[..., 0] ** 2
    assert np.all(verify_polar_derivative(shifted, fld, bg, basis).max(axis=-1) <= 30 * unit)

    velocities, inverses = [], []
    for each in (jet, shifted):
        forms = compact_forms(each, bg)
        velocities.append(velocity_from_momentum(each.p * ETA_SIGNS, each.spin, forms))
        inverses.append(inversion_conditioning(forms, each.spin)[1])
    size = 1 + np.abs(velocities[0]).max(axis=-1)
    bound = 12 * unit * np.maximum(*inverses) * size
    assert np.all(np.abs(velocities[1] - velocities[0]).max(axis=-1) <= bound)


@PROPERTY
@given(seed=seeds, n_waves=st.integers(1, 3), kicked=st.booleans())
# two draws where (1 + |zeta|)^2 / |xs denom| falls about 600 times short of
# the inverse map's largest entry; with it as the size, the gap passed 200
@example(seed=2275424074, n_waves=3, kicked=False)
@example(seed=539200547, n_waves=3, kicked=True)
def test_velocities_are_lorentz_covariant(basis, seed, n_waves, kicked):
    # psi'(x) = S psi(L^-1 x) for the pair (S, L) of lorentz_exp, that is
    # amplitudes times S (not S^-1) and momenta times L, gives psi'(L x) =
    # S psi(x) and U'(L x) = L U(x); it is again a free solution unless the
    # first amplitude is kicked off its positive-energy space.  On and off
    # solutions both velocities must then turn with L, p as a covector, and
    # the density, the chiral angle and xs = p.u stay: the jet's transport
    # gauge picks no frame.  Errors are of order eps u0^2 as in the gauge
    # test, times the size |L| of the matrix entries; for p times 1 + |p|,
    # for xs = mass cos(chiral) - y.s times 1 + |y|, and for the guidance
    # velocity times the larger size of the inverse momentum map of the two
    # sides and 1 + |velocity|.  Over 60000 random draws of this test, half
    # of them kicked, the worst cases were 11.4 (kinematic), 9.4 (density),
    # 15.7 (chiral angle), 3.7 (p) and 11.7 (xs) of these units.  Over
    # 20000 draws the guidance gap stayed below 5.7, and at the two examples,
    # with u0 of 158 and 303, it is 1.04 and 0.84
    rng = np.random.default_rng(seed)
    fld = random_waves(rng, n_waves, basis)
    if kicked:
        first, *rest = fld.components
        kick = 0.2 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        fld = PlaneWaveField([replace(first, amplitude=first.amplitude + kick), *rest])
    lam = 0.4 * rng.standard_normal((4, 4))
    pair = lorentz_exp(lam - lam.T, basis)
    moved = PlaneWaveField(
        PlaneWaveComponent(pair.vec_rep @ c.momentum, pair.spin_rep @ c.amplitude)
        for c in fld.components
    )
    bg = Background(mass=1.0)
    points = rng.uniform(-1.0, 1.0, size=(4, 4))
    image = points @ pair.vec_rep.T
    size = np.abs(pair.vec_rep).max()

    jets = [derivative_jet(f, bg, basis, x) for f, x in ((fld, points), (moved, image))]
    forms = [compact_forms(jet, bg) for jet in jets]
    u0 = np.maximum(jets[0].velocity[..., 0], jets[1].velocity[..., 0])
    unit = EPS * u0**2
    assert np.all(np.abs(jets[1].density / jets[0].density - 1) <= 15 * unit)
    turn = np.abs(wrap_angle(jets[1].chiral_angle - jets[0].chiral_angle))
    assert np.all(turn <= 40 * unit)
    p_size = 1 + np.maximum(*(np.abs(jet.p).max(axis=-1) for jet in jets))
    p_gap = np.abs(jets[1].p - jets[0].p @ lorentz_inverse(pair.vec_rep)).max(axis=-1)
    assert np.all(p_gap <= 10 * unit * size * p_size)
    y_size = 1 + np.maximum(*(np.abs(f.y).max(axis=-1) for f in forms))
    assert np.all(np.abs(forms[1].xs - forms[0].xs) <= 30 * unit * size * y_size)

    inverse = np.maximum(*(
        inversion_conditioning(f, jet.spin)[1] for f, jet in zip(forms, jets)
    ))
    gaps, speeds = {}, {}
    for mode in ("kinematic", "guidance"):
        velocity = velocity_field(fld, bg, basis, mode)(points)
        turned = velocity_field(moved, bg, basis, mode)(image)
        gaps[mode] = np.abs(turned - velocity @ pair.vec_rep.T).max(axis=-1)
        speeds[mode] = 1 + np.abs(velocity).max(axis=-1)
    assert np.all(gaps["kinematic"] <= 25 * unit * size)
    assert np.all(gaps["guidance"] <= 200 * unit * size * inverse * speeds["guidance"])


# -- scale covariance: the mass-m field at x / m is the mass-1 field at x ----

# one or two waves with |v| < 10, the second small enough that no node forms
waves = st.lists(
    st.tuples(
        st.lists(st.floats(-5.7, 5.7), min_size=3, max_size=3),
        st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
            lambda t: np.linalg.norm(t) > 0.1
        ),
        st.floats(-3.0, 3.0),
    ),
    min_size=1,
    max_size=2,
)


def numbers(values):
    return " ".join("%.17g" % v for v in values)


def wave_config(mass, point, drawn, amplitude):
    """Config text of velocity waves, every number in 17 digits."""
    lines = ["mass = %.17g" % mass, "point = " + numbers(point)]
    for k, (velocity, spin, phase) in enumerate(drawn):
        lines += ["", "[wave]", "velocity = " + numbers(velocity), "spin = " + numbers(spin),
                  "phase = %.17g" % phase] + (["amplitude = %.17g" % amplitude] if k else [])
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    log_mass=st.floats(-150.0, 150.0),
    drawn=waves,
    amplitude=st.floats(0.01, 0.2),
    x=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).map(np.array),
)
def test_scale_covariance(basis, log_mass, drawn, amplitude, x):
    mass = 10.0**log_mass
    fields = []
    for m, point in ((1.0, x), (mass, x / mass)):
        cfg = cli.parse_config(wave_config(m, point, drawn, amplitude))
        fields.append((cli.build_field(cfg, basis), cli.build_background(cfg), point))
    (one, bg_one, _), (heavy, bg, point) = fields

    # Both velocities are functions of p / m and m x alone, and every balance
    # residual grows as the mass.  The rounding of p / m and of the phases
    # grows as powers of the largest Lorentz factor; over 2100 random draws
    # the gaps reached 0.9 eps gamma^4 (kinematic), 60 eps gamma^4 times the
    # inversion's conditioning (guidance), 27 eps for the balance equations,
    # which are per unit density, and 36 eps gamma^5 for the polar groups
    gamma = max(np.sqrt(1.0 + np.dot(v, v)) for v, _, _ in drawn)
    jet = derivative_jet(one, bg_one, basis, x)
    conditioning = inversion_conditioning(compact_forms(jet, bg_one), jet.spin)[1]
    for mode, bound in (("kinematic", 8.0), ("guidance", 250.0 * conditioning)):
        want = velocity_field(one, bg_one, basis, mode)(x)
        got = velocity_field(heavy, bg, basis, mode)(point)
        assert np.abs(got - want).max() <= bound * EPS * gamma**4
    for residuals, bound in (
        (lambda f, b, y: residual_bilinear_gordon(f, b, basis, y), 100.0),
        (lambda f, b, y: residual_polar_groups(derivative_jet(f, b, basis, y), b), 300 * gamma**5),
    ):
        want, got = residuals(one, bg_one, x), residuals(heavy, bg, point)
        for name in want:
            assert abs(got[name] / mass - want[name]) <= bound * EPS

    # and every command passes on the mass-m config, with no warning
    commands = [["polar"], ["gordon"], ["guidance"]] + [
        ["trajectory", "--mode", mode, "--steps", "3", "--htau", "%.17g" % (0.05 / mass)]
        for mode in ("kinematic", "guidance")
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = tmp + "/run.cfg"
        with open(path, "w") as fh:
            fh.write(wave_config(mass, point, drawn, amplitude))
        for argv in commands:
            err = io.StringIO()
            with warnings.catch_warnings(), redirect_stdout(io.StringIO()), redirect_stderr(err):
                warnings.simplefilter("error")
                code = cli.console_main(argv + ["--config", path])
            assert (code, err.getvalue()) == (0, ""), argv
