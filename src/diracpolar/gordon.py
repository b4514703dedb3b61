"""Real balance equations carried by the densities of a Dirac field.

Splitting the field equation into real and imaginary, even and odd parts
under the chiral involution yields ten real equations among the densities
and their first derivatives.  Rewriting the same content through the polar
variables produces two effective covectors

  e_mu = dual connection - coupling * w + d(chiral)/2 + mass * s * cos(chiral)
  f_mu = connection trace + d(log density) + mass * s * sin(chiral)

and four equivalent groups of projection identities linking e, f, the
momentum covector and the frame.  Group d is the momentum decomposition
itself and is equivalent to the field equation point by point, which the
equivalence probe exercises in both directions.

Every residual returned here is normalized by the local density u^0, so
amplitudes drop out.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import ETA_SIGNS, side_by_side
from .bilinears import compute_bilinears
from .fieldconn import Background, PolarJet, density_products, polar_jet, sample_field

# the diagonal signs of eta along one index, and along two (a, b)
_S = ETA_SIGNS
_S2 = ETA_SIGNS[:, None] * ETA_SIGNS


def _balance_stack(basis):
    """gamma^0 M for every matrix M the balance equations pair with the field,
    in the order 1, pi, gamma^a, gamma^a pi, sigma^ab (16), sigma^ab pi (16)."""
    sigma = basis.sigma_upper.reshape(16, 4, 4)
    mats = np.concatenate(
        [basis.identity[None], basis.pi[None], basis.gamma, basis.gamma @ basis.pi,
         sigma, sigma @ basis.pi]
    )
    return basis.gamma[0] @ mats


def _density_derivatives(sample, basis):
    """Sum and difference of adj(psi) M nabla_mu psi and adj(nabla_mu psi) M psi
    for every matrix of _balance_stack, split by kind.

    The sums are the first derivatives of the densities by the product rule;
    the differences are the kinetic terms.  Each piece carries the batch axes,
    then the matrix indices, then mu last.
    """
    stack = _balance_stack(basis)
    n = len(stack)
    # adj(nabla psi) M psi is the conjugate of psi^dagger (gamma^0 M)^dagger nabla psi
    both = density_products(
        sample.psi,
        sample.grad,
        side_by_side(np.concatenate([stack, np.conj(np.swapaxes(stack, -1, -2))])),
    )
    forward, backward = both[..., :n, :], both[..., n:, :].conj()

    def split(pairs):
        batch = pairs.shape[:-2]
        return (
            pairs[..., 0, :],
            pairs[..., 1, :],
            pairs[..., 2:6, :],
            pairs[..., 6:10, :],
            pairs[..., 10:26, :].reshape(batch + (4, 4, 4)),
            pairs[..., 26:42, :].reshape(batch + (4, 4, 4)),
        )

    return split(forward + backward), split(forward - backward)


def _trace(a):
    return np.trace(a, axis1=-2, axis2=-1)


def _dot(a, b):
    return np.sum(a * b, axis=-1)


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def residual_bilinear_gordon(fld, bg: Background, basis, x, sample=None) -> dict:
    """Max-abs residual of each of the ten density balance equations at a
    point (4,), or one per point of a stack (..., 4).

    sample is the field at x from sample_field, when the caller has it.
    """
    if sample is None:
        sample = sample_field(fld, bg, x)
    sums, differences = _density_derivatives(sample, basis)
    d_one, d_pi, d_gam, d_gam_pi, d_sig, _ = sums
    k_one, k_pi, k_gam, k_gam_pi, k_sig, k_sig_pi = differences
    bil = compute_bilinears(sample.psi, basis)
    m = bg.mass
    coup = bg.torsion_coupling
    w = np.broadcast_to(bg.w_value(sample.x), sample.psi.shape)
    w_low = w * _S
    u, s = bil.vector, bil.axial
    u_low, s_low = u * _S, s * _S
    m_low = bil.tensor
    m_up = m_low * _S2
    eps_up = basis.eps_upper
    scale = bil.vector[..., 0]

    # d_mu of the densities, mu first: d_vec[mu, a] = d_mu u^a and the like
    d_vec = np.swapaxes(d_gam, -1, -2)
    d_ax = np.swapaxes(d_gam_pi, -1, -2)
    d_tens = 2j * np.moveaxis(d_sig, -1, -3) * _S2

    def worst(a, axes):
        return np.abs(a).max(axis=axes) / scale

    out = {}

    out["vector_divergence"] = np.abs(_trace(d_vec)) / scale

    acc = 0.5j * _trace(k_gam_pi)
    out["pseudoscalar_kinetic"] = np.abs(acc - coup * _dot(w_low, u)) / scale

    dur = d_vec * _S[:, None]
    curl_u = dur - np.swapaxes(dur, -1, -2)
    curl_u = curl_u + 1j * np.einsum("anmr,...rm->...an", eps_up, k_gam_pi * _S[:, None])
    curl_u = curl_u - 2 * coup * np.einsum("ansr,...s,...r->...an", eps_up, w_low, u_low)
    curl_u = curl_u - 2 * m * m_up
    out["vector_curl"] = worst(curl_u, (-2, -1))

    out["axial_divergence"] = np.abs(_trace(d_ax) - 2 * m * bil.pseudoscalar) / scale

    acc = 0.5j * _trace(k_gam)
    out["scalar_kinetic"] = np.abs(acc - coup * _dot(w_low, s) - m * bil.scalar) / scale

    curl_s = np.einsum("anmq,...mq->...an", eps_up, d_ax * _S)
    k = k_gam * _S        # adj(psi) gamma^al nabla^nu psi - reversed, [al, nu]
    curl_s = curl_s + 1j * (k - np.swapaxes(k, -1, -2))
    curl_s = curl_s + 2 * coup * (_outer(w, s) - _outer(s, w))
    out["axial_curl"] = worst(curl_s, (-2, -1))

    vr = 1j * k_one * _S + 2j * _trace(d_sig)    # d_mu m^{al mu}
    vr = vr + coup * np.einsum("amrs,...m,...rs->...a", eps_up, w_low, m_low)
    vr = vr - 2 * m * u
    out["vector_recovery"] = worst(vr, -1)

    ai = k_pi * _S - 0.5 * np.einsum("amrs,...mrs->...a", eps_up, d_tens)
    ai = ai + 2 * coup * np.einsum("...ab,...b->...a", m_up, w_low)
    out["axial_recovery"] = worst(ai, -1)

    vi = d_one * _S + 2 * _trace(k_sig) + 2 * coup * w * bil.pseudoscalar[..., None]
    out["scalar_gradient"] = worst(vi, -1)

    ar = 1j * d_pi * _S + 2j * _trace(k_sig_pi)
    ar = ar - 2 * coup * w * bil.scalar[..., None] + 2 * m * s
    out["pseudoscalar_gradient"] = worst(ar, -1)

    return {name: value[()] for name, value in out.items()}


def dirac_residual(fld, bg: Background, basis, x, sample=None):
    """Norm of the field equation applied to the field, per unit spinor norm,
    at a point (4,) or one per point of a stack (..., 4).

    sample is the field at x from sample_field, when the caller has it.
    """
    if sample is None:
        sample = sample_field(fld, bg, x)
    psi = sample.psi
    w_low = bg.w_value(sample.x) * _S
    op = 1j * np.einsum("mij,...mj->...i", basis.gamma, sample.grad)
    op = op - bg.torsion_coupling * np.einsum(
        "...a,aij,...j->...i", w_low, basis.gamma @ basis.pi, psi
    )
    op = op - bg.mass * psi
    return (np.linalg.norm(op, axis=-1) / np.linalg.norm(psi, axis=-1))[()]


@dataclass
class QuantumPotentials:
    e: np.ndarray   # lowered components
    f: np.ndarray


def compute_potentials(jet: PolarJet, bg: Background) -> QuantumPotentials:
    """e and f of a jet, with the jet's batch axes."""
    w_low = bg.w_value(jet.x) * _S
    s_low = jet.spin * _S
    beta = np.asarray(jet.chiral_angle)[..., None]
    e = (
        jet.tc.axial_dual()
        - bg.torsion_coupling * w_low
        + 0.5 * jet.dchiral
        + bg.mass * s_low * np.cos(beta)
    )
    f = jet.tc.trace_contraction() + jet.dlogdensity + bg.mass * s_low * np.sin(beta)
    return QuantumPotentials(e=e, f=f)


def residual_polar_groups(jet: PolarJet, bg: Background, basis) -> dict:
    """All four projection groups of the polar field equations, one residual
    per point of a batched jet.

    Groups a and b project along the velocity and spin, group c solves for
    the momentum covector, group d is the momentum decomposition itself.
    """
    pot = compute_potentials(jet, bg)
    e, f = pot.e, pot.f
    p = jet.tc.p
    u = jet.velocity
    s = jet.spin
    u_low, s_low = u * _S, s * _S
    f_up, p_up = f * _S, p * _S
    eps_up = basis.eps_upper
    eps_low = basis.eps_lower

    def worst(a, axes=-1):
        return np.abs(a).max(axis=axes)

    def dual(a, b):
        # eps^{x n m r} a_m b_r
        return np.einsum("anmr,...m,...r->...an", eps_up, a, b)

    def cross(a):
        # eps^{j k m x} a_m u_j s_k: the covector a against the frame pair
        return np.einsum("...m,...j,...k,jkma->...a", a, u_low, s_low, eps_up)

    out = {}
    out["a1"] = np.abs(_dot(f, u))
    out["a2"] = np.abs(_dot(e, u) + _dot(p, s))
    a3 = dual(e, u_low) + _outer(f_up, u) - _outer(u, f_up) + dual(p, s_low)
    out["a3"] = worst(a3, (-2, -1))

    out["b1"] = np.abs(_dot(f, s))
    out["b2"] = np.abs(_dot(e, s) + _dot(p, u))
    b3 = dual(e, s_low) + _outer(f_up, s) - _outer(s, f_up) + dual(p, u_low)
    out["b3"] = worst(b3, (-2, -1))

    c1 = cross(f) + _dot(e, u)[..., None] * s - _dot(e, s)[..., None] * u - p_up
    out["c1"] = worst(c1)
    c2 = _dot(f, u)[..., None] * s - _dot(f, s)[..., None] * u - cross(e)
    out["c2"] = worst(c2)

    d1 = f - np.einsum("mrna,...r,...n,...a->...m", eps_low, p_up, u, s)
    out["d1"] = worst(d1)
    d2 = e - _dot(p, u)[..., None] * s_low + _dot(p, s)[..., None] * u_low
    out["d2"] = worst(d2)
    return out


def group_d_residual(jet: PolarJet, bg: Background, basis):
    groups = residual_polar_groups(jet, bg, basis)
    return np.maximum(groups["d1"], groups["d2"])


def equivalence_probe(fld, bg: Background, basis, points, h=1e-3) -> dict:
    """Field-equation residual next to the group-d residual, one of each per
    point of points (n, 4).

    Both are intensive mass-scale numbers, so on a solution both sit at the
    finite-difference floor and on a non-solution both are visibly nonzero,
    within a common factor.  All points are evaluated as one batch.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 4)
    jet = polar_jet(fld, bg, basis, points, h)
    return {
        "dirac": dirac_residual(fld, bg, basis, points),
        "group_d": group_d_residual(jet, bg, basis),
    }
