"""Polar variables of a regular Dirac spinor.

Any spinor whose scalar and pseudoscalar densities do not both vanish can be
written as

  psi = density * exp(-i * chiral_angle * pi / 2)
        * l_spin^-1 @ rest_seed * exp(-i * residual_phase)

where rest_seed = (1, 0, 1, 0) and l_spin is the spin representation of the
Lorentz transformation built as rotation @ boost: the boost reaches the unit
velocity u, the rotation then aligns the rest-frame spin direction with z.
The inverse vector representation carries e_0 to u and e_3 to s, so the polar
data stores the same information as the bilinears plus the phase.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

# lorentz_exp is not used here; it stays bound because bench/test_bench.py
# checks that the tracer wraps it in this module
from .algebra import (  # noqa: F401
    SEED_SPINOR,
    boost_spin_rep,
    boost_vec_rep,
    lorentz_exp,
    lorentz_inverse,
    rot_z_spin_rep,
    rot_z_vec_rep,
    spin_inverse,
)
from .bilinears import Densities, compute_bilinears, require_regular


def wrap_angle(a):
    """Wrap to the half-open interval (-pi, pi]."""
    out = np.mod(-np.asarray(a) + np.pi, 2 * np.pi)
    return -(out - np.pi)


@dataclass
class PolarData:
    """Polar variables of one spinor, or of a batch with its leading shape."""

    density: float          # module field, strictly positive
    chiral_angle: float
    velocity: np.ndarray    # unit timelike, raised index
    spin: np.ndarray        # unit spacelike, raised index, orthogonal to velocity
    l_spin: np.ndarray
    l_vec: np.ndarray
    residual_phase: float
    fit_residual: float = 0.0

    def __getitem__(self, index) -> "PolarData":
        """Entry or slice of a batch along its leading axis."""
        return PolarData(*(getattr(self, f.name)[index] for f in fields(self)))


def polar_variables(dens: Densities):
    """(density, chiral_angle, velocity, spin) from S, P, U and A of a spinor or a
    batch: U and A over the |(S, P)| of require_regular, which raises SingularSpinor."""
    modulus = require_regular(dens)
    u, s = dens.vector / modulus[..., None], dens.axial / modulus[..., None]
    return np.sqrt(modulus / 2.0), np.arctan2(dens.pseudoscalar, dens.scalar), u, s


def polar_decompose(psi, basis) -> PolarData:
    """Polar data of psi, shape (..., 4); a single spinor is a batch of shape ().

    Raises SingularSpinor when any spinor of the batch is not regular.
    """
    psi = np.asarray(psi, dtype=complex)
    density, chiral_angle, u, s = polar_variables(compute_bilinears(psi, basis))

    # boost to rest first, then the minimal rotation taking z onto the rest spin
    boost_vec = boost_vec_rep(u)
    rest_spin = (boost_vec @ s[..., None])[..., 1:, 0]
    l_spin = rot_z_spin_rep(rest_spin, basis) @ boost_spin_rep(u, basis)
    l_vec = rot_z_vec_rep(rest_spin) @ boost_vec

    # least-squares phase of psi against the phase-free reference
    reference = _assemble(density, chiral_angle, l_spin, basis)
    phase = -np.angle(np.sum(reference.conj() * psi, axis=-1))
    fit = np.linalg.norm(psi - reference * np.exp(-1j * phase)[..., None], axis=-1)

    return PolarData(
        density=density,
        chiral_angle=chiral_angle,
        velocity=u,
        spin=s,
        l_spin=l_spin,
        l_vec=l_vec,
        residual_phase=phase,
        fit_residual=fit / np.linalg.norm(psi, axis=-1),
    )


def _assemble(density, chiral_angle, l_spin, basis):
    frame = spin_inverse(l_spin, basis) @ SEED_SPINOR
    half = np.asarray(chiral_angle)[..., None] / 2
    chiral = np.cos(half) * frame - 1j * np.sin(half) * (frame @ basis.pi.T)
    return np.asarray(density)[..., None] * chiral


def polar_reconstruct(pd: PolarData, basis) -> np.ndarray:
    """Spinor of pd, with pd's batch shape."""
    psi = _assemble(pd.density, pd.chiral_angle, pd.l_spin, basis)
    return psi * np.exp(-1j * np.asarray(pd.residual_phase)[..., None])


def kinematic_velocity(pd: PolarData) -> np.ndarray:
    """Unit velocity read off the frame field alone: first column of l_vec^-1."""
    return lorentz_inverse(pd.l_vec)[..., :, 0]
