"""Property tests of the closed-form, batched polar layer at its edges.

The closed-form frame is compared with lorentz_exp of the same parameters up
to large rapidities and next to the -z antipode, where the minimal rotation
switches branch; batched calls of the polar layer, of lorentz_exp and of the
identity checks are compared with stacked single calls; a
batch holding one near-singular spinor must fail like the single call; and
chiral angles and residual phases next to +-pi, where both wrap, must
survive the round trip and the polar jet's differences.
"""
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracpolar.algebra import (
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
    plane_wave,
    polar_jet,
    superpose,
    verify_transport,
)
from diracpolar.polar import (
    kinematic_velocity,
    polar_decompose,
    polar_reconstruct,
    wrap_angle,
)

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
    fierz = check_fierz(bil, basis)
    constraints = check_spinor_constraints(psi, basis)
    transport = verify_transport(polar_jet(fld, bg, basis, points, H_JET), basis)
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
            (fierz, check_fierz(one_bil, basis)),
            (constraints, check_spinor_constraints(psi[k], basis)),
        ):
            assert list(batch) == list(one)
            for name, want in one.items():
                assert abs(batch[name][k] - want) <= 1e-14, name
        one = verify_transport(polar_jet(fld, bg, basis, points[k], H_JET), basis)
        assert list(transport) == list(one)
        for name, want in one.items():
            # the jet divides rounding of order eps by 2h, and a stack and a
            # single row round differently: allow 10 eps / h
            assert abs(transport[name][k] - want) <= 10 * EPS / H_JET, name
        want = polar_reconstruct(single, basis)
        assert np.abs(rebuilt[k] - want).max() <= 1e-14 * np.abs(want).max()


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


def check_jet(jet, dchiral, dphase):
    assert np.all(np.isfinite(jet.dchiral)) and np.all(np.isfinite(jet.tc.dphase))
    # the angles are affine, so the central differences are exact up to
    # rounding of order eps / h
    assert np.abs(jet.dchiral - dchiral).max() < 1e-10
    assert np.abs(jet.tc.dphase - dphase).max() < 1e-10
    assert np.abs(jet.tc.r).max() < 1e-10


@PROPERTY
@given(frame=frames, sign=signs, offset=stencil_offsets, dchiral=gradients, dphase=any_gradients)
def test_polar_jet_across_chiral_wrap(basis, frame, sign, offset, dchiral, dphase):
    pd = replace(frame_data(frame, basis), chiral_angle=sign * (np.pi - offset))
    fld = AffinePolarField(pd, dchiral, dphase, basis)
    check_jet(polar_jet(fld, Background(mass=1.0), basis, np.zeros(4), H_JET), dchiral, dphase)


@PROPERTY
@given(frame=frames, sign=signs, offset=stencil_offsets, dphase=gradients, dchiral=any_gradients)
def test_polar_jet_across_phase_wrap(basis, frame, sign, offset, dphase, dchiral):
    pd = replace(frame_data(frame, basis), residual_phase=sign * (np.pi - offset))
    fld = AffinePolarField(pd, dchiral, dphase, basis)
    check_jet(polar_jet(fld, Background(mass=1.0), basis, np.zeros(4), H_JET), dchiral, dphase)
