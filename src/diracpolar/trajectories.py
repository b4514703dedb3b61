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
stage for the whole ensemble; a single seed is an ensemble of one.  When the
velocity of a curve fails, that curve stops and the others go on.  Its record
keeps the error, with the samples up to the last step it completed, none when
the seed itself failed; its status line is derived from the two.  integrate
raises ImmediateSingularity for a seed that fails.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import ETA_SIGNS
from .bilinears import Densities, density_products, require_regular
from .errors import ConfigError, DiracPolarError, ImmediateSingularity
from .fieldconn import Background, derivative_jet
from .guidance import compact_forms, velocity_from_momentum

MODES = ("kinematic", "guidance")
SEED_FAILURE = "velocity undefined at the seed point: %s"


def velocity_field(fld, bg: Background, basis, mode="kinematic"):
    """Callable x -> unit velocity, in the requested mode.

    x is a point (4,) or a stack of points (..., 4), and the velocities come
    back with its shape.  A stack raises if the velocity is undefined at any
    of its points.  Kinematic mode reads the densities S, P and U of the
    field's psi; guidance mode its products with psi and d_mu psi, through
    derivative_jet.
    """
    if mode == "kinematic":
        rows = basis.velocity_rows

        def evaluate(x):
            psi = fld.evaluate(x)
            values = density_products(psi, psi[..., None, :], rows)[..., 0].real
            dens = Densities(values[..., 0], values[..., 1], values[..., 2:], None)
            require_regular(dens)
            return dens.vector / np.hypot(dens.scalar, dens.pseudoscalar)[..., None]

    elif mode == "guidance":

        def evaluate(x):
            jet = derivative_jet(fld, bg, basis, x)
            forms = compact_forms(jet, bg)
            return velocity_from_momentum(jet.p * ETA_SIGNS, jet.spin, forms)

    else:
        raise ValueError("mode must be one of %s" % (MODES,))
    return evaluate


@dataclass
class Trajectory:
    """One arc: its samples, and the DiracPolarError that stopped it, or None
    once it ran its full length.  An arc that fails at its seed holds no
    samples; one stopped later ends at the last point it reached, x[-1] at
    proper time tau[-1]."""

    tau: np.ndarray
    x: np.ndarray
    u: np.ndarray
    mode: str
    error: DiracPolarError | None
    diagnostics: dict = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return self.error is None

    @property
    def status(self) -> str:
        """The outcome as one line of text."""
        if self.error is None:
            return "completed"
        if not len(self.tau):
            return "failed: " + SEED_FAILURE % self.error
        kind = type(self.error).__name__
        return "aborted at tau=%.6g: %s: %s" % (self.tau[-1], kind, self.error)


def _without_failures(fn, state, rows):
    """fn of the (n, ...) state, whose output has the state's shape, the
    labels, of rows, of the state's rows that it holds, and {label: error}.
    The rows a DiracPolarError names fail with the error each raises alone,
    and fn runs again without them; an error that names no rows fails them
    all.  A call in which no row fails is the only call."""
    failed = {}
    while len(rows):
        try:
            return fn(state), rows, failed
        except DiracPolarError as exc:
            named = exc.rows or dict.fromkeys(range(len(rows)), str(exc))
            for row, message in named.items():
                failed[rows[row]] = type(exc)(message, {0: message}) if exc.rows else exc
            going = np.isin(np.arange(len(rows)), list(named), invert=True)
            state, rows = state[going], rows[going]
    return state, rows, failed


def batch_integrate(fld, bg, basis, seeds, tau_max, h_tau=0.05, mode="kinematic"):
    """One Trajectory per seed, every curve advanced together as one (n, 4)
    state.

    A curve whose velocity fails stops there, with the error a run from its
    seed alone would raise, while the others go on.  Raises ConfigError when
    the samples of every step cannot be allocated.
    """
    vel = velocity_field(fld, bg, basis, mode)
    x0 = np.asarray(seeds, dtype=float).reshape(-1, 4)
    n_steps = int(round(tau_max / h_tau))

    half_h, sixth_h = 0.5 * h_tau, h_tau / 6.0

    def rk4_step(state):
        # state[:, 0] holds the points, state[:, 1] the velocities there.
        # The stage points share one buffer and the weighted sum another,
        # formed in place in the order of x + 0.5 * h_tau * k1 and
        # x + (h_tau / 6) * (k1 + 2 k2 + 2 k3 + k4); only the operands of
        # + and * swap, which leaves every bit as it was
        x, k1 = state[:, 0], state[:, 1]
        point = k1 * half_h
        point += x
        k2 = vel(point)
        np.multiply(k2, half_h, out=point)
        point += x
        k3 = vel(point)
        np.multiply(k3, h_tau, out=point)
        point += x
        k4 = vel(point)
        total = k2 * 2.0
        total += k1
        np.multiply(k3, 2.0, out=point)
        total += point
        total += k4
        total *= sixth_h
        total += x
        out = np.empty_like(state)
        out[:, 0], out[:, 1] = total, vel(total)
        return out

    try:
        samples = np.empty((len(x0), n_steps + 1, 2, 4))
    except (MemoryError, ValueError) as exc:
        # numpy raises ValueError for a shape past its own size limit
        raise ConfigError(
            ["%.6g steps: cannot allocate the samples of %d seeds (%s)" % (n_steps, len(x0), exc)]
        ) from exc
    u0, active, errors = _without_failures(vel, x0, np.arange(len(x0)))
    samples[:, 0, 0] = x0
    samples[active, 0, 1] = u0
    # the samples each arc holds: none when its seed failed
    length = np.full(len(x0), n_steps + 1)
    length[list(errors)] = 0
    state = samples[active, 0]
    for k in range(n_steps):
        if not active.size:
            break
        state, active, failed = _without_failures(rk4_step, state, active)
        errors.update(failed)
        for i in failed:
            length[i] = k + 1
        if len(active) == len(x0):
            samples[:, k + 1] = state
        else:
            samples[active, k + 1] = state

    tau = np.arange(n_steps + 1) * h_tau
    arcs = []
    for i, n in enumerate(length.tolist()):
        x, u = samples[i, :n, 0].copy(), samples[i, :n, 1].copy()
        norms = np.sum(u * u * ETA_SIGNS, axis=-1)
        diagnostics = {
            "max_unit_violation": float(np.abs(norms - 1.0).max(initial=0.0)),
            # each completed step evaluates the velocity four times
            "velocity_evals": 1 + 4 * (n - 1),
        }
        arcs.append(
            Trajectory(
                tau=tau[:n].copy(),
                x=x,
                u=u,
                mode=mode,
                error=errors.get(i),
                diagnostics=diagnostics if n else {},
            )
        )
    return arcs


def integrate(
    fld,
    bg: Background,
    basis,
    x0,
    tau_max,
    h_tau=0.05,
    mode="kinematic",
) -> Trajectory:
    """Fixed-step fourth-order curve of the chosen velocity field from x0;
    raises ImmediateSingularity when the velocity is undefined at x0."""
    (arc,) = batch_integrate(fld, bg, basis, [x0], tau_max, h_tau, mode)
    if not len(arc.tau):
        raise ImmediateSingularity(SEED_FAILURE % arc.error) from arc.error
    return arc


def sup_divergence(a: Trajectory, b: Trajectory) -> float:
    """Largest pointwise gap between two curves over their shared arc."""
    n = min(len(a.tau), len(b.tau))
    if n == 0:
        return float("nan")
    if np.abs(a.tau[:n] - b.tau[:n]).max() > 1e-12:
        raise ValueError("trajectories sample different proper times")
    return float(np.abs(a.x[:n] - b.x[:n]).max())
