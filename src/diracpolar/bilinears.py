"""Real quadratic densities of a Dirac spinor and their interdependencies.

For a single spinor psi the densities are

  scalar        phi_b   = adj(psi) psi
  pseudoscalar  theta_b = i adj(psi) pi psi
  vector        u^a     = adj(psi) gamma^a psi
  axial vector  s^a     = adj(psi) gamma^a pi psi
  tensor        m_ab    = 2i adj(psi) sigma_ab psi

with adj(psi) = psi^dagger gamma^0.  All five are real; any imaginary part
is numerical noise and is reported, not silently dropped.  The densities are
not independent: the quadratic and cubic interdependencies checked here mean
only eight real degrees of freedom survive out of sixteen.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import EPS_LOWER, EPS_UPPER, ETA_SIGNS, PAIR_I, PAIR_J, mdot
from .errors import SingularSpinor, raise_rows

REGULARITY_EPS = 1e-10


def adjoint(psi, basis):
    return psi.conj() @ basis.gamma[0]


@dataclass
class Densities:
    """S, P, U and A of one spinor, or of a batch with the spinor's leading
    shape: all that the polar variables and the regularity guard read."""

    scalar: float
    pseudoscalar: float
    vector: np.ndarray       # raised index
    axial: np.ndarray        # raised index

    @classmethod
    def from_values(cls, values) -> "Densities":
        """S, P, U and A from real values (..., 10) in BilinearSet order."""
        return cls(values[..., 0], values[..., 1], values[..., 2:6], values[..., 6:10])

    def density_squared(self) -> float:
        return self.scalar**2 + self.pseudoscalar**2


@dataclass
class BilinearSet(Densities):
    """All sixteen densities of one spinor, or of a batch."""

    tensor6: np.ndarray      # m_ab for ab in INDEX_PAIRS, both lowered
    imag_residual: float

    @property
    def tensor(self) -> np.ndarray:
        m = np.zeros(np.shape(self.tensor6)[:-1] + (4, 4))
        m[..., PAIR_I, PAIR_J] = self.tensor6
        m[..., PAIR_J, PAIR_I] = -self.tensor6
        return m


def density_products(psi, columns, rows):
    """psi^dagger M v for every matrix M of a stack (k, 4, 4) and spinor v of
    columns (..., c, 4), such as grad or block, as an array (..., k, c): psi is
    (..., 4) and rows the stack side by side (4, 4k), as side_by_side lays it out.

    For M = gamma^0 N with gamma^0 N hermitian, twice the real part is d_mu
    of the density adj(psi) N psi by the product rule; the charge terms of a
    covariant derivative cancel in it.
    """
    products = psi.conj() @ rows
    return products.reshape(psi.shape[:-1] + (rows.shape[1] // 4, 4)) @ columns.swapaxes(-1, -2)


def compute_bilinears(psi, basis) -> BilinearSet:
    """All sixteen densities of psi, shape (..., 4), in one density_products call."""
    psi = np.asarray(psi, dtype=complex)
    pieces = density_products(psi, psi[..., None, :], basis.density_rows)[..., 0]
    real = pieces.real
    # [()] turns the 0-d result of a single spinor into a scalar
    return BilinearSet(
        scalar=real[..., 0][()],
        pseudoscalar=real[..., 1][()],
        vector=real[..., 2:6],
        axial=real[..., 6:10],
        tensor6=real[..., 10:],
        imag_residual=np.abs(pieces.imag).max(axis=-1),
    )


def _modulus(dens: Densities):
    """|(S, P)|, and whether each row is above sqrt(REGULARITY_EPS) |U^0| (no NaN row is)."""
    modulus = np.hypot(dens.scalar, dens.pseudoscalar)
    return modulus, modulus > REGULARITY_EPS**0.5 * np.abs(dens.vector[..., 0])


def is_regular(bil: Densities):
    """Densities bounded away from the light-cone degeneracy theta = phi = 0."""
    return _modulus(bil)[1]


def require_regular(bil: Densities):
    """|(S, P)| of every spinor of the batch; raises SingularSpinor naming each one
    that is not regular, with S^2 + P^2, formed for those messages alone."""
    modulus, regular = _modulus(bil)
    if np.count_nonzero(regular) < regular.size:
        message = "scalar^2 + pseudoscalar^2 = %.3e below %.1e * density^2"
        raise_rows(~regular, SingularSpinor, message, bil.density_squared(), REGULARITY_EPS)
    return modulus


def random_spinor(rng, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal(4) + 1j * rng.standard_normal(4))


def random_regular_spinor(rng, basis, scale: float = 1.0) -> np.ndarray:
    # rejection sampling; regular spinors are generic so this rarely loops
    while True:
        psi = random_spinor(rng, scale)
        if is_regular(compute_bilinears(psi, basis)):
            return psi


def check_fierz(bil: BilinearSet) -> dict:
    """Quadratic interdependencies between the densities, scale-normalized;
    one residual per spinor for the densities of a batch.

    Degree-4 combinations are divided by density^2 (u^0 squared), the
    degree-6 tensor reconstruction by density^3, so residuals are comparable
    across spinor magnitudes.
    """
    phi_b, theta_b = np.asarray(bil.scalar), np.asarray(bil.pseudoscalar)
    u, s, m = bil.vector, bil.axial, bil.tensor
    u_low, s_low = u * ETA_SIGNS, s * ETA_SIGNS
    n2 = u[..., 0] ** 2
    n3 = np.abs(u[..., 0]) ** 3
    mod2 = theta_b**2 + phi_b**2

    out = {}
    out["vector_norm"] = np.abs(mdot(u, u) - mod2) / n2
    out["axial_norm"] = np.abs(mdot(s, s) + mod2) / n2
    out["orthogonality"] = np.abs(mdot(u, s)) / n2

    m_up = m * ETA_SIGNS[:, None] * ETA_SIGNS
    square = 0.5 * np.sum(m * m_up, axis=(-2, -1)) - (phi_b**2 - theta_b**2)
    out["tensor_square"] = np.abs(square) / n2
    dual = 0.25 * np.einsum("...ab,...ij,abij->...", m, m, EPS_UPPER)
    out["tensor_dual_square"] = np.abs(dual - 2 * theta_b * phi_b) / n2

    u_m = np.einsum("...a,...ab->...b", u, m)
    out["tensor_dot_vector"] = np.abs(u_m - theta_b[..., None] * s_low).max(axis=-1) / n2
    s_m = np.einsum("...a,...ab->...b", s, m)
    out["tensor_dot_axial"] = np.abs(s_m - theta_b[..., None] * u_low).max(axis=-1) / n2

    recon = mod2[..., None, None] * m
    recon = recon - phi_b[..., None, None] * np.einsum(
        "...j,...k,jkab->...ab", u, s, EPS_LOWER
    )
    us = u_low[..., :, None] * s_low[..., None, :]
    recon = recon - theta_b[..., None, None] * (us - np.swapaxes(us, -1, -2))
    out["tensor_reconstruction"] = np.abs(recon).max(axis=(-2, -1)) / n3
    # [()] turns the 0-d residuals of a single spinor into scalars
    return {name: value[()] for name, value in out.items()}


def check_spinor_constraints(psi, basis) -> dict:
    """Cubic identities that return the spinor itself from its densities, for
    a spinor (4,) or one residual per spinor of a stack (..., 4)."""
    psi = np.asarray(psi, dtype=complex)
    bil = compute_bilinears(psi, basis)
    u_low = bil.vector * ETA_SIGNS
    s_low = bil.axial * ETA_SIGNS
    u2_psi = mdot(bil.vector, bil.vector)[..., None] * psi
    norm3 = np.linalg.norm(psi, axis=-1) ** 3

    sig_us = np.einsum("abij,...a,...b->...ij", basis.sigma_upper, u_low, s_low)
    first = 2.0 * _apply(sig_us @ basis.pi, psi) + u2_psi

    slash_s = np.einsum("...a,aij->...ij", s_low, basis.gamma)
    second = (
        1j * bil.pseudoscalar[..., None] * _apply(slash_s, psi)
        + bil.scalar[..., None] * _apply(slash_s @ basis.pi, psi)
        + u2_psi
    )

    out = {
        "tensor_projector": np.abs(first).max(axis=-1) / norm3,
        "axial_projector": np.abs(second).max(axis=-1) / norm3,
    }
    return {name: value[()] for name, value in out.items()}


def _apply(matrices, psi):
    """Matrices (..., 4, 4) applied to spinors (..., 4)."""
    return np.einsum("...ij,...j->...i", matrices, psi)
