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

import numpy as np

from .algebra import EPS_PAIRS, ETA_SIGNS, pair_dual
from .bilinears import compute_bilinears, density_products
from .fieldconn import Background, PolarJet, polar_jet, sample_field
from .guidance import potentials

# the diagonal signs of eta along one index, and along two (a, b)
_S = ETA_SIGNS
_S2 = ETA_SIGNS[:, None] * ETA_SIGNS


def _density_derivatives(sample, basis):
    """Sum and difference of adj(psi) M nabla_mu psi and adj(nabla_mu psi) M psi
    for every matrix of basis.balance_rows, split by kind.

    The sums are the first derivatives of the densities by the product rule;
    the differences are the kinetic terms.  Each piece carries the batch axes,
    then the matrix indices, then mu last.
    """
    forward = density_products(sample.psi, sample.grad, basis.balance_rows)
    # adj(nabla psi) M psi is the conjugate of psi^dagger (gamma^0 M)^dagger
    # nabla psi, and (gamma^0 M)^dagger = +-gamma^0 M
    backward = basis.balance_signs[:, None] * forward.conj()

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
    # eps^{anmr} k_rm = -pair_dual(k)_an, k = k_gam_pi lowered along its first index
    curl_u = curl_u - 1j * pair_dual(k_gam_pi * _S[:, None])
    curl_u = curl_u - 2 * coup * pair_dual(_outer(w_low, u_low))
    curl_u = curl_u - 2 * m * m_up
    out["vector_curl"] = worst(curl_u, (-2, -1))

    out["axial_divergence"] = np.abs(_trace(d_ax) - 2 * m * bil.pseudoscalar) / scale

    acc = 0.5j * _trace(k_gam)
    out["scalar_kinetic"] = np.abs(acc - coup * _dot(w_low, s) - m * bil.scalar) / scale

    curl_s = pair_dual(d_ax * _S)
    k = k_gam * _S        # adj(psi) gamma^al nabla^nu psi - reversed, [al, nu]
    curl_s = curl_s + 1j * (k - np.swapaxes(k, -1, -2))
    curl_s = curl_s + 2 * coup * (_outer(w, s) - _outer(s, w))
    out["axial_curl"] = worst(curl_s, (-2, -1))

    vr = 1j * k_one * _S + 2j * _trace(d_sig)    # d_mu m^{al mu}
    vr = vr + coup * (pair_dual(m_low) @ w_low[..., None])[..., 0]
    vr = vr - 2 * m * u
    out["vector_recovery"] = worst(vr, -1)

    # eps^{amrs} d_tens_mrs through the (4, 64) view of the epsilon table
    ai = k_pi * _S - 0.5 * d_tens.reshape(d_tens.shape[:-3] + (64,)) @ EPS_PAIRS.reshape(4, 64).T
    ai = ai + 2 * coup * (m_up @ w_low[..., None])[..., 0]
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
    batch = psi.shape[:-1]
    w_low = bg.w_value(sample.x) * _S
    # gamma^a v_a and gamma^a pi v_a for spinors v_a, flattened to (..., 16),
    # against the two halves of basis.dirac_rows
    gamma, gamma_pi = basis.dirac_rows[:, :16].T, basis.dirac_rows[:, 16:].T
    op = 1j * (sample.grad.reshape(batch + (16,)) @ gamma)
    torsion = (w_low[..., :, None] * psi[..., None, :]).reshape(batch + (16,))
    op = op - bg.torsion_coupling * (torsion @ gamma_pi)
    op = op - bg.mass * psi
    return (np.linalg.norm(op, axis=-1) / np.linalg.norm(psi, axis=-1))[()]


def compute_potentials(jet: PolarJet, bg: Background):
    """e = y + mass cos(chiral) s and f = -z + mass sin(chiral) s of a jet,
    lowered, with the jet's batch axes."""
    y, z = potentials(jet, bg)
    s_low = jet.spin * _S
    beta = np.asarray(jet.chiral_angle)[..., None]
    e = y + bg.mass * s_low * np.cos(beta)
    f = -z + bg.mass * s_low * np.sin(beta)
    return e, f


def residual_polar_groups(jet: PolarJet, bg: Background) -> dict:
    """All four projection groups of the polar field equations, one residual
    per point of a batched jet.

    Groups a and b project along the velocity and spin, group c solves for
    the momentum covector, group d is the momentum decomposition itself.
    """
    e, f = compute_potentials(jet, bg)
    p = jet.p
    u = jet.velocity
    s = jet.spin
    u_low, s_low = u * _S, s * _S
    f_up, p_up = f * _S, p * _S

    def worst(a, axes=-1):
        return np.abs(a).max(axis=axes)

    # eps^{m x j k} u_j s_k, the dual of the lowered frame pair
    frame = pair_dual(_outer(u_low, s_low))

    def cross(a):
        # eps^{j k m x} a_m u_j s_k: the covector a against the frame pair
        return (a[..., None, :] @ frame)[..., 0, :]

    out = {}
    out["a1"] = np.abs(_dot(f, u))
    out["a2"] = np.abs(_dot(e, u) + _dot(p, s))
    # pair_dual(a b^T) = eps^{x n m r} a_m b_r
    a3 = pair_dual(_outer(e, u_low) + _outer(p, s_low)) + _outer(f_up, u) - _outer(u, f_up)
    out["a3"] = worst(a3, (-2, -1))

    out["b1"] = np.abs(_dot(f, s))
    out["b2"] = np.abs(_dot(e, s) + _dot(p, u))
    b3 = pair_dual(_outer(e, s_low) + _outer(p, u_low)) + _outer(f_up, s) - _outer(s, f_up)
    out["b3"] = worst(b3, (-2, -1))

    c1 = cross(f) + _dot(e, u)[..., None] * s - _dot(e, s)[..., None] * u - p_up
    out["c1"] = worst(c1)
    c2 = _dot(f, u)[..., None] * s - _dot(f, s)[..., None] * u - cross(e)
    out["c2"] = worst(c2)

    # eps_{mrna} p^r u^n s^a is frame @ p with its free index lowered
    d1 = f - _S * (frame @ p[..., None])[..., 0]
    out["d1"] = worst(d1)
    d2 = e - _dot(p, u)[..., None] * s_low + _dot(p, s)[..., None] * u_low
    out["d2"] = worst(d2)
    return out


def group_d_residual(jet: PolarJet, bg: Background):
    groups = residual_polar_groups(jet, bg)
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
        "group_d": group_d_residual(jet, bg),
    }
