"""Integral curves of the velocity field carried by a spinor field.

Two velocity modes are available at every regular point:

  kinematic: the normalized vector density u = U / sqrt(theta^2 + phi^2),
             read directly from the bilinears, no derivatives involved
  guidance:  the velocity recovered by inverting the momentum map, which
             needs the local jet (momentum covector, z potential, spin),
             taken exactly from the field and its derivative

On an exact solution the two coincide, so their trajectory divergence is a
practical integration diagnostic.  Curves are parametrized by proper time
and advanced with a fixed-step fourth-order Runge-Kutta rule.  All seeds of
a run advance together as one (n, 4) state, one velocity evaluation per
stage for the whole ensemble; a single seed is an ensemble of one.  A
failure at a seed point raises (integrate) or gives a failed record
(batch_integrate); a failure later on truncates that curve and reports the
reason, while the other curves go on.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import ETA_SIGNS
from .bilinears import Densities
from .errors import DiracPolarError, ImmediateSingularity
from .fieldconn import Background, density_products, derivative_jet
from .guidance import compact_forms, velocity_from_momentum
from .polar import polar_variables

MODES = ("kinematic", "guidance")


def velocity_field(fld, bg: Background, basis, mode="kinematic"):
    """Callable x -> unit velocity, in the requested mode.

    x is a point (4,) or a stack of points (..., 4), and the velocities come
    back with its shape.  A stack raises if the velocity is undefined at any
    of its points.  Guidance mode needs the field's partial.
    """
    if mode == "kinematic":
        # the ten matrices behind S, P, U and A
        rows = basis.jet_rows[:, :40]

        def evaluate(x):
            psi = fld.evaluate(np.asarray(x, dtype=float))
            values = density_products(psi, psi[..., None, :], rows)[..., 0].real
            return polar_variables(Densities.from_values(values))[2]

    elif mode == "guidance":

        def evaluate(x):
            jet = derivative_jet(fld, bg, basis, x)
            forms = compact_forms(jet, bg)
            return velocity_from_momentum(jet.tc.p * ETA_SIGNS, jet.spin, forms, basis)

    else:
        raise ValueError("mode must be one of %s" % (MODES,))
    return evaluate


@dataclass
class Trajectory:
    tau: np.ndarray
    x: np.ndarray
    u: np.ndarray
    mode: str
    h_tau: float
    status: str
    diagnostics: dict = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return self.status == "completed"


def _by_rows(fn, state):
    """fn of the (n, ...) state, whose output has the state's shape.

    When the call on the whole state raises a DiracPolarError, every row is
    tried again alone, as a batch of one, to find the rows that fail.
    Returns the output, NaN in failed rows, and {row: the error it raised}.
    """
    try:
        return fn(state), {}
    except DiracPolarError as exc:
        if len(state) == 1:
            return np.full_like(state, np.nan), {0: exc}
    out = np.full_like(state, np.nan)
    errors = {}
    for row in range(len(state)):
        try:
            out[row] = fn(state[row : row + 1])[0]
        except DiracPolarError as exc:
            errors[row] = exc
    return out, errors


def _integrate_seeds(fld, bg, basis, seeds, tau_max, h_tau, mode):
    """Curves from every seed, advanced together as one (n, 4) state.

    Returns one Trajectory per seed, or the DiracPolarError that made the
    velocity undefined at the seed.  A curve that fails at a later step
    stops there, with the status a run from its seed alone would give.
    """
    vel = velocity_field(fld, bg, basis, mode)
    x0 = np.asarray(seeds, dtype=float).reshape(-1, 4)
    n_steps = int(round(tau_max / h_tau))

    def rk4_step(state):
        # state[:, 0] holds the points, state[:, 1] the velocities there
        x, k1 = state[:, 0], state[:, 1]
        k2 = vel(x + 0.5 * h_tau * k1)
        k3 = vel(x + 0.5 * h_tau * k2)
        k4 = vel(x + h_tau * k3)
        x = x + (h_tau / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return np.stack([x, vel(x)], axis=1)

    u0, seed_errors = _by_rows(vel, x0)
    samples = np.empty((len(x0), n_steps + 1, 2, 4))
    samples[:, 0, 0] = x0
    samples[:, 0, 1] = u0
    length = np.ones(len(x0), dtype=int)
    stops = {}
    active = np.array([i for i in range(len(x0)) if i not in seed_errors], dtype=int)
    state = samples[active, 0]
    for k in range(n_steps):
        if not active.size:
            break
        state, errors = _by_rows(rk4_step, state)
        for row, exc in errors.items():
            stops[active[row]] = "aborted at tau=%.6g: %s: %s" % (
                k * h_tau,
                type(exc).__name__,
                exc,
            )
        going = np.ones(len(active), dtype=bool)
        going[list(errors)] = False
        active, state = active[going], state[going]
        samples[active, k + 1] = state
        length[active] = k + 2

    tau = np.arange(n_steps + 1) * h_tau
    out = []
    for i, n in enumerate(length):
        if i in seed_errors:
            out.append(seed_errors[i])
            continue
        x, u = samples[i, :n, 0].copy(), samples[i, :n, 1].copy()
        norms = np.sum(u * u * ETA_SIGNS, axis=-1)
        out.append(
            Trajectory(
                tau=tau[:n].copy(),
                x=x,
                u=u,
                mode=mode,
                h_tau=h_tau,
                status=stops.get(i, "completed"),
                diagnostics={
                    "max_unit_violation": float(np.abs(norms - 1.0).max()),
                    # each completed step evaluates the velocity four times
                    "velocity_evals": int(1 + 4 * (n - 1)),
                },
            )
        )
    return out


def _seed_failure(exc) -> str:
    return "velocity undefined at the seed point: %s" % exc


def integrate(
    fld,
    bg: Background,
    basis,
    x0,
    tau_max,
    h_tau=0.05,
    mode="kinematic",
) -> Trajectory:
    """Fixed-step fourth-order curve of the chosen velocity field from x0."""
    (arc,) = _integrate_seeds(fld, bg, basis, [x0], tau_max, h_tau, mode)
    if isinstance(arc, DiracPolarError):
        raise ImmediateSingularity(_seed_failure(arc)) from arc
    return arc


def batch_integrate(fld, bg, basis, seeds, tau_max, h_tau=0.05, mode="kinematic"):
    """Integrate from many seeds as one ensemble; a bad seed yields a failed
    record, not a raise."""
    return [
        Trajectory(
            tau=np.zeros(0),
            x=np.zeros((0, 4)),
            u=np.zeros((0, 4)),
            mode=mode,
            h_tau=h_tau,
            status="failed: %s" % _seed_failure(arc),
            diagnostics={},
        )
        if isinstance(arc, DiracPolarError)
        else arc
        for arc in _integrate_seeds(fld, bg, basis, seeds, tau_max, h_tau, mode)
    ]


def sup_divergence(a: Trajectory, b: Trajectory) -> float:
    """Largest pointwise gap between two curves over their shared arc."""
    n = min(len(a.tau), len(b.tau))
    if n == 0:
        return float("nan")
    if np.abs(a.tau[:n] - b.tau[:n]).max() > 1e-12:
        raise ValueError("trajectories sample different proper times")
    return float(np.abs(a.x[:n] - b.x[:n]).max())
