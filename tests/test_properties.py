"""Property tests of the closed-form, batched polar layer at its edges.

The closed-form frame is compared with lorentz_exp of the same parameters up
to large rapidities and next to the -z antipode, where the minimal rotation
switches branch; batched calls are compared with stacked single calls; and a
batch holding one near-singular spinor must fail like the single call.
"""
from dataclasses import fields

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
from diracpolar.bilinears import compute_bilinears, is_regular, random_regular_spinor
from diracpolar.errors import SingularSpinor
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
    bil = compute_bilinears(psi, basis)
    pd = polar_decompose(psi, basis)
    rebuilt = polar_reconstruct(pd, basis)
    angles = {"chiral_angle", "residual_phase"}
    for k in range(n):
        single = polar_decompose(psi[k], basis)
        for batch, one in ((bil, compute_bilinears(psi[k], basis)), (pd, single)):
            for f in fields(one):
                got, want = getattr(batch, f.name)[k], getattr(one, f.name)
                gap = wrap_angle(got - want) if f.name in angles else got - want
                assert np.abs(gap).max() <= 1e-14 * max(1.0, np.abs(want).max()), f.name
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
