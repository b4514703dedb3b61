"""Exception types shared across the package."""
import numpy as np


class DiracPolarError(Exception):
    """Base class for all domain errors raised by this package.  rows maps the
    flat index of each failing row of a batch to the message that row raises
    alone; the error's text is the first row's."""

    def __init__(self, message="", rows=None):
        super().__init__(message)
        self.rows = rows or {}


def raise_rows(failing, kind, message, *values):
    """Raise kind if failing, a bool per row of a batch, holds for any row;
    row i's message is message % the values, broadcast to failing, at i."""
    if np.count_nonzero(failing):
        flat = np.flatnonzero(failing).tolist()
        columns = [np.broadcast_to(v, np.shape(failing)).ravel()[flat].tolist() for v in values]
        rows = {i: message % tuple(row) for i, *row in zip(flat, *columns)}
        raise kind(rows[flat[0]], rows)


class SingularSpinor(DiracPolarError):
    """Spinor fails the regularity condition theta^2 + phi^2 > eps * |psi|^4."""


class OffShell(DiracPolarError):
    """Plane-wave momentum off p.p = m^2, not forward, or past BOOST_MAX times the mass."""


class OutOfDomain(DiracPolarError):
    """Point lies outside a gridded field's extents or off its nodes."""


class PhaseJump(DiracPolarError):
    """Residual phase varies by more than pi/2 across a finite-difference stencil."""


class DegenerateX(DiracPolarError):
    """|X| = |m cos(beta) - Y.s| fell below the guard threshold."""


class DegenerateInversion(DiracPolarError):
    """Velocity-inversion denominator 1 + z.z + (z.s)^2 fell below the guard threshold."""


class ImmediateSingularity(DiracPolarError):
    """Trajectory seed point is singular before the first integration step."""


class ConfigError(DiracPolarError):
    """Run configuration is invalid.  Carries every problem found, not just the first."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))
