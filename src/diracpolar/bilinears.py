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

from .errors import SingularSpinor
from .report import IdentityReport

TENSOR_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

REGULARITY_EPS = 1e-10


def adjoint(psi, basis):
    return psi.conj() @ basis.gamma[0]


@dataclass
class BilinearSet:
    """Densities of one spinor, or of a batch with the spinor's leading shape."""

    scalar: float
    pseudoscalar: float
    vector: np.ndarray       # raised index
    axial: np.ndarray        # raised index
    tensor6: np.ndarray      # m_ab for ab in TENSOR_PAIRS, both lowered
    imag_residual: float

    @property
    def tensor(self) -> np.ndarray:
        m = np.zeros(np.shape(self.tensor6)[:-1] + (4, 4))
        for k, (a, b) in enumerate(TENSOR_PAIRS):
            m[..., a, b] = self.tensor6[..., k]
            m[..., b, a] = -self.tensor6[..., k]
        return m

    def density_squared(self) -> float:
        return self.scalar**2 + self.pseudoscalar**2


def compute_bilinears(psi, basis) -> BilinearSet:
    """All sixteen densities of psi, shape (..., 4), in one contraction."""
    psi = np.asarray(psi, dtype=complex)
    pieces = np.einsum("...i,kij,...j->...k", psi.conj(), basis.bilinear_stack, psi)
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


def is_regular(bil: BilinearSet, eps: float = REGULARITY_EPS):
    """Densities bounded away from the light-cone degeneracy theta = phi = 0."""
    return bil.density_squared() > eps * bil.vector[..., 0] ** 2


def require_regular(bil: BilinearSet, eps: float = REGULARITY_EPS) -> None:
    """Raise SingularSpinor unless every spinor of the batch is regular."""
    regular = is_regular(bil, eps)
    if not np.all(regular):
        raise SingularSpinor(
            "scalar^2 + pseudoscalar^2 = %.3e below %.1e * density^2"
            % (np.min(np.where(regular, np.inf, bil.density_squared())), eps)
        )


def random_spinor(rng, scale: float = 1.0) -> np.ndarray:
    return scale * (rng.standard_normal(4) + 1j * rng.standard_normal(4))


def random_regular_spinor(rng, basis, scale: float = 1.0) -> np.ndarray:
    # rejection sampling; regular spinors are generic so this rarely loops
    while True:
        psi = random_spinor(rng, scale)
        if is_regular(compute_bilinears(psi, basis)):
            return psi


def check_fierz(bil: BilinearSet, basis) -> IdentityReport:
    """Quadratic interdependencies between the densities, scale-normalized.

    Degree-4 combinations are divided by density^2 (u^0 squared), the
    degree-6 tensor reconstruction by density^3, so residuals are comparable
    across spinor magnitudes.
    """
    phi_b, theta_b = bil.scalar, bil.pseudoscalar
    u, s, m = bil.vector, bil.axial, bil.tensor
    eta = basis.eta
    n2 = bil.vector[0] ** 2
    n3 = abs(bil.vector[0]) ** 3
    mod2 = theta_b**2 + phi_b**2

    rep = IdentityReport()
    rep.add("vector_norm", abs(u @ eta @ u - mod2) / n2)
    rep.add("axial_norm", abs(s @ eta @ s + mod2) / n2)
    rep.add("orthogonality", abs(u @ eta @ s) / n2)

    m_up = eta @ m @ eta
    rep.add("tensor_square", abs(0.5 * np.sum(m * m_up) - (phi_b**2 - theta_b**2)) / n2)
    dual = 0.25 * np.einsum("ab,ij,abij", m, m, basis.eps_upper)
    rep.add("tensor_dual_square", abs(dual - 2 * theta_b * phi_b) / n2)

    rep.add("tensor_dot_vector", np.abs(u @ m - theta_b * (eta @ s)).max() / n2)
    rep.add("tensor_dot_axial", np.abs(s @ m - theta_b * (eta @ u)).max() / n2)

    recon = mod2 * m
    recon = recon - phi_b * np.einsum("j,k,jkab->ab", u, s, basis.eps_lower)
    u_low, s_low = eta @ u, eta @ s
    recon = recon - theta_b * (np.outer(u_low, s_low) - np.outer(s_low, u_low))
    rep.add("tensor_reconstruction", np.abs(recon).max() / n3)
    return rep


def check_spinor_constraints(psi, basis) -> IdentityReport:
    """Cubic identities that return the spinor itself from its densities."""
    psi = np.asarray(psi, dtype=complex)
    bil = compute_bilinears(psi, basis)
    u_low = basis.eta @ bil.vector
    s_low = basis.eta @ bil.axial
    u2 = bil.vector @ basis.eta @ bil.vector
    norm3 = float(np.linalg.norm(psi)) ** 3

    sig_us = np.einsum("abij,a,b->ij", basis.sigma_upper, u_low, s_low)
    first = 2.0 * sig_us @ basis.pi @ psi + u2 * psi

    slash_s = np.einsum("a,aij->ij", s_low, basis.gamma)
    second = (
        1j * bil.pseudoscalar * slash_s @ psi
        + bil.scalar * slash_s @ basis.pi @ psi
        + u2 * psi
    )

    rep = IdentityReport()
    rep.add("tensor_projector", np.abs(first).max() / norm3)
    rep.add("axial_projector", np.abs(second).max() / norm3)
    return rep
