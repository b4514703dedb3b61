import numpy as np
import pytest

from diracpolar import bilinears
from diracpolar.algebra import ETA, boost_vec_rep
from diracpolar.errors import DiracPolarError, ImmediateSingularity, OutOfDomain, SingularSpinor
from diracpolar.fieldconn import (
    Background,
    PlaneWaveComponent,
    PlaneWaveField,
    derivative_jet,
    plane_wave,
    superpose,
    to_grid,
)
from diracpolar.trajectories import (
    batch_integrate,
    integrate,
    sup_divergence,
    velocity_field,
)

from conftest import BoxWindow, LinearVector, vanishing_waves

MASS = 1.0


def boosted_wave(basis, v3, spin, amp=1.0):
    v3 = np.asarray(v3, dtype=float)
    p = np.concatenate([[MASS * np.sqrt(1 + v3 @ v3)], MASS * v3])
    return plane_wave(p, MASS, np.asarray(spin, dtype=float), amp, basis)


def two_wave(basis):
    return superpose(
        boosted_wave(basis, (0.25, -0.1, 0.05), (0.1, 0.2, 1.0)),
        boosted_wave(basis, (0.1, 0.15, -0.08), (-0.1, 0.1, 1.0), amp=0.3),
    )


def test_plane_wave_straight_line(basis):
    fld = boosted_wave(basis, (0.3, -0.2, 0.1), (0.0, 0.2, 1.0))
    bg = Background(mass=MASS)
    p = fld.components[0].momentum
    tr = integrate(fld, bg, basis, np.zeros(4), tau_max=10.0, h_tau=0.1)
    assert tr.completed
    assert len(tr.tau) == 101
    expected = np.outer(tr.tau, p / MASS)
    assert np.abs(tr.x - expected).max() < 1e-10
    assert tr.diagnostics["max_unit_violation"] < 1e-12


def test_both_modes_unit_velocity(basis):
    fld = two_wave(basis)
    bg = Background(mass=MASS)
    for mode in ("kinematic", "guidance"):
        tr = integrate(
            fld, bg, basis, np.array([0.0, 0.1, -0.1, 0.2]), 2.0, 0.1, mode=mode
        )
        assert tr.completed
        norms = np.einsum("na,ab,nb->n", tr.u, ETA, tr.u)
        assert np.abs(norms - 1.0).max() < 1e-6


def test_mode_divergence_small_on_solution(basis):
    fld = two_wave(basis)
    bg = Background(mass=MASS)
    x0 = np.array([0.0, 0.05, -0.1, 0.15])
    tr_k = integrate(fld, bg, basis, x0, 10.0, 0.1, mode="kinematic")
    tr_g = integrate(fld, bg, basis, x0, 10.0, 0.1, mode="guidance")
    assert tr_k.completed and tr_g.completed
    assert sup_divergence(tr_k, tr_g) < 1e-5


def test_rk4_order(basis):
    # needs a velocity field rough enough that the step error clears the
    # round-off floor; a gentle two-wave mix integrates exactly to 1e-15
    fld = superpose(
        boosted_wave(basis, (0.8, 0.0, 0.0), (0.0, 0.0, 1.0)),
        boosted_wave(basis, (-0.5, 0.3, 0.0), (0.2, 0.0, 1.0), amp=0.5),
    )
    bg = Background(mass=MASS)
    x0 = np.array([0.0, 0.1, 0.05, -0.1])
    ref = integrate(fld, bg, basis, x0, 2.0, 0.0125).x[-1]
    e1 = np.abs(integrate(fld, bg, basis, x0, 2.0, 0.1).x[-1] - ref).max()
    e2 = np.abs(integrate(fld, bg, basis, x0, 2.0, 0.05).x[-1] - ref).max()
    assert e1 > 1e-11
    order = np.log2(e1 / e2)
    assert 3.5 < order < 4.5, (e1, e2, order)


def test_seed_on_singular_point_raises(basis):
    # equal and opposite components null the field at the origin exactly
    f1 = boosted_wave(basis, (0.2, 0.0, 0.0), (0.0, 0.0, 1.0))
    comp = f1.components[0]
    f2 = PlaneWaveField(
        [PlaneWaveComponent(np.array([MASS, 0, 0, 0]) * np.sqrt(1.0), -comp.amplitude)]
    )
    fld = superpose(f1, f2)
    assert np.abs(fld.evaluate(np.zeros(4))).max() < 1e-15
    bg = Background(mass=MASS)
    with pytest.raises(ImmediateSingularity) as caught:
        integrate(fld, bg, basis, np.zeros(4), 1.0, 0.1)
    # raised from the error that the arc's record keeps
    assert isinstance(caught.value.__cause__, SingularSpinor)


def test_windowed_trajectory_aborts_at_boundary(basis):
    fld = two_wave(basis)
    bg = Background(mass=MASS)
    # narrow slab in time: the curve must march out of it and stop cleanly
    window = BoxWindow(fld, np.full(4, -1.0), np.full(4, 1.0))
    tr = integrate(window, bg, basis, np.zeros(4), 5.0, 0.05)
    assert not tr.completed
    assert isinstance(tr.error, OutOfDomain)
    assert len(tr.tau) >= 2
    assert tr.tau[-1] < 5.0
    # the recorded arc stayed inside
    assert tr.x.max() <= 1.0 and tr.x.min() >= -1.0


def test_batch_integrate_mixed_seeds(basis):
    f1 = boosted_wave(basis, (0.2, 0.0, 0.0), (0.0, 0.0, 1.0))
    comp = f1.components[0]
    f2 = PlaneWaveField([PlaneWaveComponent(np.array([MASS, 0, 0, 0.0]), -comp.amplitude)])
    fld = superpose(f1, f2)
    bg = Background(mass=MASS)
    seeds = [np.zeros(4), np.array([0.0, 0.9, 0.4, 0.3])]
    out = batch_integrate(fld, bg, basis, seeds, 1.0, 0.1)
    assert len(out) == 2
    assert isinstance(out[0].error, SingularSpinor)
    assert len(out[0].tau) == 0
    assert out[1].completed


def test_guidance_equals_kinematic_on_a_solution(basis):
    # the exact jet leaves rounding only; a stencil of step 1e-3 left 2.5e-10
    fld = two_wave(basis)
    bg = Background(mass=MASS)
    points = np.random.default_rng(41).uniform(-0.5, 0.5, size=(50, 4))
    guidance = velocity_field(fld, bg, basis, "guidance")(points)
    kinematic = velocity_field(fld, bg, basis, "kinematic")(points)
    assert np.abs(guidance - kinematic).max() <= 1e-13


def test_guidance_at_the_half_turn_branch(basis):
    # a solution whose rest spin is -z at x = 0, where the frame takes the
    # half turn about x, and that turns away from -z around it
    rest = plane_wave(np.array([MASS, 0.0, 0.0, 0.0]), MASS, np.array([0.0, 0.0, -1.0]), 1.0, basis)
    fld = PlaneWaveField(rest.components + vanishing_waves(np.random.default_rng(42), basis, 0.3))
    bg = Background(mass=MASS)
    jet = derivative_jet(fld, bg, basis, np.zeros(4))
    rest_spin = (boost_vec_rep(jet.velocity) @ jet.spin)[1:]
    assert np.hypot(rest_spin[0], rest_spin[1]) < 1e-14 and rest_spin[2] < 0.0
    assert np.abs(jet.ds).max() > 0.01
    guidance = velocity_field(fld, bg, basis, "guidance")(np.zeros(4))
    assert np.all(np.isfinite(guidance))
    assert np.abs(guidance - jet.velocity).max() <= 1e-13


def test_velocity_field_rejects_unknown_mode(basis):
    fld = two_wave(basis)
    with pytest.raises(ValueError):
        velocity_field(fld, Background(mass=MASS), basis, mode="ballistic")


def test_sup_divergence_guards_mismatched_tau(basis):
    fld = two_wave(basis)
    bg = Background(mass=MASS)
    a = integrate(fld, bg, basis, np.zeros(4), 1.0, 0.1)
    b = integrate(fld, bg, basis, np.zeros(4), 1.0, 0.05)
    with pytest.raises(ValueError):
        sup_divergence(a, b)


# -- ensembles: every seed of a run advances as one batch -------------------


def per_seed_rk4(vel, x0, n_steps, h_tau):
    """Reference: the RK4 rule as plain expressions, from one seed (4,) or
    from an ensemble (n, 4) advanced as one state."""
    x = np.asarray(x0, dtype=float)
    xs, us = [x], [vel(x)]
    for _ in range(n_steps):
        k1 = us[-1]
        k2 = vel(x + 0.5 * h_tau * k1)
        k3 = vel(x + 0.5 * h_tau * k2)
        k4 = vel(x + h_tau * k3)
        x = x + (h_tau / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        xs.append(x)
        us.append(vel(x))
    return np.array(xs), np.array(us)


ENSEMBLE_SEEDS = np.array(
    [
        [0.0, 0.05, -0.1, 0.15],
        [0.2, -0.3, 0.1, 0.0],
        [-0.1, 0.4, 0.3, -0.2],
        [0.3, 0.0, -0.4, 0.25],
    ]
)


@pytest.mark.parametrize("mode, n_steps", [("kinematic", 40), ("guidance", 8)])
def test_ensemble_matches_per_seed_loop(basis, mode, n_steps):
    fld = two_wave(basis)
    bg = Background(mass=MASS)
    h_tau = 0.1
    arcs = batch_integrate(fld, bg, basis, ENSEMBLE_SEEDS, n_steps * h_tau, h_tau, mode)
    vel = velocity_field(fld, bg, basis, mode)
    for arc, x0 in zip(arcs, ENSEMBLE_SEEDS):
        assert arc.completed
        xs, us = per_seed_rk4(vel, x0, n_steps, h_tau)
        assert arc.x.shape == xs.shape and arc.u.shape == us.shape
        assert np.abs(arc.x - xs).max() < 1e-12
        assert np.abs(arc.u - us).max() < 1e-12
        assert arc.diagnostics["velocity_evals"] == 1 + 4 * n_steps
    # the in-place stage arithmetic keeps the bits of the expressions
    xs, us = per_seed_rk4(vel, ENSEMBLE_SEEDS, n_steps, h_tau)
    assert np.array_equal(np.stack([arc.x for arc in arcs], axis=1), xs)
    assert np.array_equal(np.stack([arc.u for arc in arcs], axis=1), us)


def test_ensemble_evaluates_once_per_stage(basis, monkeypatch):
    from diracpolar import trajectories

    calls = []

    def counting_field(*args, **kwargs):
        vel = velocity_field(*args, **kwargs)

        def evaluate(x):
            calls.append(np.shape(x))
            return vel(x)

        return evaluate

    monkeypatch.setattr(trajectories, "velocity_field", counting_field)
    arcs = batch_integrate(two_wave(basis), Background(mass=MASS), basis, ENSEMBLE_SEEDS, 1.0, 0.1)
    assert all(arc.completed for arc in arcs)
    # one call per RK4 stage for the whole ensemble, plus the seed velocities
    assert calls == [ENSEMBLE_SEEDS.shape] * (1 + 4 * 10)


def test_mixed_ensemble_arcs_match_lone_runs(basis):
    fld = two_wave(basis)
    bg = Background(mass=MASS)
    window = BoxWindow(fld, np.full(4, -1.0), np.full(4, 1.0))
    seeds = np.array(
        [
            [-0.9, 0.0, 0.1, -0.1],   # stays inside for the whole run
            [0.5, 0.1, 0.0, 0.2],     # time runs out of the window mid-run
            [0.0, -0.2, 0.3, 0.0],    # and later for this one
            [1.5, 0.0, 0.0, 0.0],     # starts outside the window
        ]
    )
    tau_max, h_tau = 1.5, 0.05
    for mode in ("kinematic", "guidance"):
        lone = [integrate(window, bg, basis, x0, tau_max, h_tau, mode) for x0 in seeds[:3]]
        with pytest.raises(ImmediateSingularity):
            integrate(window, bg, basis, seeds[3], tau_max, h_tau, mode)
        # without the fourth seed the loop starts with every arc running
        for n in (3, 4):
            arcs = batch_integrate(window, bg, basis, seeds[:n], tau_max, h_tau, mode)
            assert [arc.completed for arc in arcs[:3]] == [True, False, False]
            for arc in arcs[1:3]:
                assert isinstance(arc.error, OutOfDomain) and 1 < len(arc.tau) < 31
            # the loop goes on with three arcs, then with two, then with one
            assert len(arcs[1].tau) < len(arcs[2].tau)
            for arc, alone in zip(arcs, lone):
                assert arc.status == alone.status
                assert np.array_equal(arc.tau, alone.tau)
                # a stack and a single row can round differently in the last bit
                assert np.abs(arc.x - alone.x).max() < 1e-12
                assert np.abs(arc.u - alone.u).max() < 1e-12
                assert arc.diagnostics["velocity_evals"] == alone.diagnostics["velocity_evals"]
        assert isinstance(arcs[3].error, OutOfDomain) and len(arcs[3].tau) == 0


def test_charged_guidance_ensemble_in_linear_potential(basis):
    fld = two_wave(basis)
    slope = 0.05 * np.array(
        [[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.5, 0.0], [0.0, -0.5, 0.0, 1.0], [0.2, 0.0, 0.0, 0.0]]
    )
    bg = Background(
        mass=MASS, charge=0.3, em_potential=LinearVector([0.1, 0.0, -0.05, 0.02], slope)
    )
    n_steps, h_tau = 6, 0.1
    arcs = batch_integrate(fld, bg, basis, ENSEMBLE_SEEDS, n_steps * h_tau, h_tau, "guidance")
    vel = velocity_field(fld, bg, basis, "guidance")
    free = batch_integrate(
        fld, Background(mass=MASS), basis, ENSEMBLE_SEEDS, n_steps * h_tau, h_tau, "guidance"
    )
    for arc, plain, x0 in zip(arcs, free, ENSEMBLE_SEEDS):
        assert arc.completed
        xs, us = per_seed_rk4(vel, x0, n_steps, h_tau)
        assert np.abs(arc.x - xs).max() < 1e-12
        assert np.abs(arc.u - us).max() < 1e-12
        # the potential bends the curve, so the batched a_value mattered
        assert np.abs(arc.x - plain.x).max() > 1e-4


@pytest.mark.parametrize("mode", ["kinematic", "guidance"])
def test_no_seeds_give_no_arcs(basis, mode):
    bg = Background(mass=MASS)
    assert batch_integrate(two_wave(basis), bg, basis, np.zeros((0, 4)), 0.1, mode=mode) == []


# -- failures: the ensemble drops the rows an error names and goes on -------


def node_field(basis):
    """A wave and a rest wave of opposite amplitude: the field vanishes at 0."""
    f1 = boosted_wave(basis, (0.2, 0.0, 0.0), (0.0, 0.0, 1.0))
    rest = PlaneWaveComponent(np.array([MASS, 0.0, 0.0, 0.0]), -f1.components[0].amplitude)
    return superpose(f1, PlaneWaveField([rest]))


def failing_ensembles(basis):
    """name: (field, seeds, tau_max, h_tau, the statuses the arcs start with)."""
    window = BoxWindow(two_wave(basis), np.full(4, -1.0), np.full(4, 1.0))
    grid = to_grid(two_wave(basis).evaluate, np.zeros(4), 0.05, (5, 5, 5, 5))
    # with a wider regularity guard, one arc turns singular in the step in
    # which another leaves a window that ends at time 1
    late = BoxWindow(two_wave(basis), np.full(4, -5.0), [1.0, 5.0, 5.0, 5.0])
    pair = [[-0.18, -0.52, -0.92, 0.75], [0.65, 0.61, -0.35, 0.44],
            [-0.57, -0.68, 0.23, -0.91], [0.28, 0.48, -0.82, 0.08]]
    return {
        "node": (node_field(basis), [np.zeros(4), *ENSEMBLE_SEEDS], 1.0, 0.1,
                 ["failed: velocity undefined at the seed point: "] + ["completed"] * 4),
        "window": (window, [[-0.9, 0.0, 0.1, -0.1], [0.5, 0.1, 0.0, 0.2], [1.5, 0.0, 0.0, 0.0],
                            [0.0, -0.2, 0.3, 0.0], [0.2, 0.0, -0.1, 0.1]], 1.5, 0.05,
                   ["completed", "aborted at tau=", "failed: ", "aborted at tau=", "aborted at"]),
        # the first RK4 stage leaves the node; guidance fails at a stencil
        # on the edge already at the seed
        "grid": (grid, 0.05 * np.array([[1, 1, 2, 1], [2, 2, 2, 3], [1.5, 1, 1, 1],
                                        [9, 1, 1, 1], [0, 3, 2, 2]]), 0.2, 0.05,
                 ["aborted at tau=0: OutOfDomain", "aborted at tau=0: OutOfDomain", "failed: ",
                  "failed: ", ("aborted at tau=0: OutOfDomain", "failed: ")]),
        "two_guards": (late, pair, 1.5, 0.05,
                       ["aborted at tau=0.3: SingularSpinor", "aborted at tau=0.3: OutOfDomain",
                        "completed", "failed: "]),
    }


@pytest.mark.parametrize("mode", ["kinematic", "guidance"])
@pytest.mark.parametrize("name", ["node", "window", "grid", "two_guards"])
def test_failing_arcs_match_lone_runs_without_single_row_calls(basis, monkeypatch, mode, name):
    from diracpolar import trajectories

    fld, seeds, tau_max, h_tau, starts = failing_ensembles(basis)[name]
    if name == "two_guards":
        monkeypatch.setattr(bilinears, "REGULARITY_EPS", 0.95)
    calls = []

    def counting_field(*args, **kwargs):
        vel = velocity_field(*args, **kwargs)

        def evaluate(x):
            calls.append([len(x), False])
            try:
                return vel(x)
            except DiracPolarError:
                calls[-1][1] = True
                raise

        return evaluate

    monkeypatch.setattr(trajectories, "velocity_field", counting_field)
    lone = [batch_integrate(fld, Background(mass=MASS), basis, [x0], tau_max, h_tau, mode)[0]
            for x0 in seeds]
    calls.clear()
    arcs = batch_integrate(fld, Background(mass=MASS), basis, seeds, tau_max, h_tau, mode)
    assert len(arcs) == len(starts)
    for arc, alone, start in zip(arcs, lone, starts):
        assert arc.status.startswith(start)
        assert arc.status == alone.status
        assert np.array_equal(arc.tau, alone.tau)
        assert arc.x.shape == alone.x.shape
        # a stack and a single row can round differently in the last bit
        assert np.abs(arc.x - alone.x).max(initial=0.0) < 1e-12
        assert np.abs(arc.u - alone.u).max(initial=0.0) < 1e-12
        assert arc.diagnostics == pytest.approx(alone.diagnostics, abs=1e-12)
    # rows only ever leave the batch: no arc is evaluated again alone while
    # others run, and each error costs at most the four calls of its step
    sizes = [size for size, _ in calls]
    assert sizes == sorted(sizes, reverse=True)
    raised = sum(raised for _, raised in calls)
    assert raised >= 1
    assert len(calls) <= 1 + 4 * round(tau_max / h_tau) + 4 * raised
