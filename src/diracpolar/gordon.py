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

import functools

import numpy as np

from .algebra import EPS_PAIRS, ETA_SIGNS, pair_dual
from .bilinears import density_products
from .fieldconn import Background, PolarJet, polar_jet, sample_field
from .guidance import potentials

# the diagonal signs of eta along one index, and along two (a, b)
_S = ETA_SIGNS
_S2 = ETA_SIGNS[:, None] * ETA_SIGNS

# the ten balance equations as reported, with the number of components each
# stacks into the columns of the balance tables, and the first of them
BALANCE = {"vector_divergence": 1, "pseudoscalar_kinetic": 1, "vector_curl": 16,
           "axial_divergence": 1, "scalar_kinetic": 1, "axial_curl": 16, "vector_recovery": 4,
           "axial_recovery": 4, "scalar_gradient": 4, "pseudoscalar_gradient": 4}
_STARTS = np.cumsum([0, *BALANCE.values()])[:-1]


def _density_derivatives(products, signs):
    """Sum and difference of adj(psi) M v and adj(v) M psi from the products
    psi^dagger (gamma^0 M) v (..., 42, c) of the matrices of
    basis.balance_rows, with their hermiticity signs, split by kind.

    For v = nabla_mu psi the sums are the first derivatives of the densities
    by the product rule and the differences the kinetic terms.  Each piece
    carries the batch axes, then the matrix indices, then c last.
    """
    # adj(v) M psi is the conjugate of psi^dagger (gamma^0 M)^dagger v, and
    # (gamma^0 M)^dagger = +-gamma^0 M
    backward = signs[:, None] * products.conj()

    def split(pairs):
        batch, c = pairs.shape[:-2], pairs.shape[-1]
        return (
            pairs[..., 0, :],
            pairs[..., 1, :],
            pairs[..., 2:6, :],
            pairs[..., 6:10, :],
            pairs[..., 10:26, :].reshape(batch + (4, 4, c)),
            pairs[..., 26:42, :].reshape(batch + (4, 4, c)),
        )

    return split(products + backward), split(products - backward)


def _trace(a):
    return np.trace(a, axis1=-2, axis2=-1)


def _dot(a, b):
    return np.sum(a * b, axis=-1)


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _balance_components(products, signs, w, m, coup):
    """Every component of the ten balance equations (..., 52), in BALANCE
    order, from the products psi^dagger (gamma^0 M) [psi, nabla_mu psi]
    (..., 42, 5) of the matrices of basis.balance_rows, their hermiticity
    signs, the torsion vector w, the mass m and the torsion coupling coup.

    Real and linear in the products, the psi column entering only with m or
    coup * w: _balance_tables reads it off unit products once.
    """
    sums, differences = _density_derivatives(products[..., 1:], signs)
    d_one, d_pi, d_gam, d_gam_pi, d_sig, _ = sums
    k_one, k_pi, k_gam, k_gam_pi, k_sig, k_sig_pi = differences
    # the densities from the psi column: P = i adj(psi) pi psi and
    # m^{ab} = 2i adj(psi) sigma^{ab} psi are -Im and -2 Im of their rows
    dens = products[..., 0]
    scalar, pseudoscalar = dens[..., 0].real, -dens[..., 1].imag
    u, s = dens[..., 2:6].real, dens[..., 6:10].real
    m_up = -2.0 * dens[..., 10:26].imag.reshape(dens.shape[:-1] + (4, 4))
    m_low = m_up * _S2
    w = np.broadcast_to(w, u.shape)
    w_low, u_low = w * _S, u * _S

    # d_mu of the densities, mu first: d_vec[mu, a] = d_mu u^a and the like
    d_vec = np.swapaxes(d_gam, -1, -2)
    d_ax = np.swapaxes(d_gam_pi, -1, -2)
    d_tens = 2j * np.moveaxis(d_sig, -1, -3) * _S2

    out = {}

    out["vector_divergence"] = _trace(d_vec)

    out["pseudoscalar_kinetic"] = 0.5j * _trace(k_gam_pi) - coup * _dot(w_low, u)

    dur = d_vec * _S[:, None]
    curl_u = dur - np.swapaxes(dur, -1, -2)
    # eps^{anmr} k_rm = -pair_dual(k)_an, k = k_gam_pi lowered along its first index
    curl_u = curl_u - 1j * pair_dual(k_gam_pi * _S[:, None])
    curl_u = curl_u - 2 * coup * pair_dual(_outer(w_low, u_low))
    out["vector_curl"] = curl_u - 2 * m * m_up

    out["axial_divergence"] = _trace(d_ax) - 2 * m * pseudoscalar

    out["scalar_kinetic"] = 0.5j * _trace(k_gam) - coup * _dot(w_low, s) - m * scalar

    curl_s = pair_dual(d_ax * _S)
    k = k_gam * _S        # adj(psi) gamma^al nabla^nu psi - reversed, [al, nu]
    curl_s = curl_s + 1j * (k - np.swapaxes(k, -1, -2))
    out["axial_curl"] = curl_s + 2 * coup * (_outer(w, s) - _outer(s, w))

    vr = 1j * k_one * _S + 2j * _trace(d_sig)    # d_mu m^{al mu}
    vr = vr + coup * (pair_dual(m_low) @ w_low[..., None])[..., 0]
    out["vector_recovery"] = vr - 2 * m * u

    # eps^{amrs} d_tens_mrs through the (4, 64) view of the epsilon table
    ai = k_pi * _S - 0.5 * d_tens.reshape(d_tens.shape[:-3] + (64,)) @ EPS_PAIRS.reshape(4, 64).T
    out["axial_recovery"] = ai + 2 * coup * (m_up @ w_low[..., None])[..., 0]

    vi = d_one * _S + 2 * _trace(k_sig) + 2 * coup * w * pseudoscalar[..., None]
    out["scalar_gradient"] = vi

    ar = 1j * d_pi * _S + 2j * _trace(k_sig_pi)
    out["pseudoscalar_gradient"] = ar - 2 * coup * w * scalar[..., None] + 2 * m * s

    batch = u.shape[:-1]
    return np.concatenate([np.reshape(out[n], batch + (k,)) for n, k in BALANCE.items()], -1)


@functools.lru_cache(maxsize=1)
def _balance_tables(signs):
    """_balance_components as real tables (rows, field, psi_terms) over the
    real and imaginary parts of the products (..., 42, 5), flattened to 420.
    With parts = flat[..., rows], the parts of the gradient columns first,

      components = parts[..., :len(field)] @ field
                   + [m, coup * w] . (parts[..., len(field):] @ psi_terms)

    and psi_terms (., 5 * 52).  signs is basis.balance_signs as bytes.  Each
    entry sums products of +-1/2, +-1, +-2 and epsilon: the tables are exact.
    """
    signs = np.frombuffer(signs)
    # the 84 parts of each column of the products, probed one column at a
    # time, which keeps the probes' arrays small
    parts = [np.flatnonzero(np.arange(420) // 2 % 5 == c) for c in range(5)]

    def probe(c, w, m, coup):
        unit = np.zeros((84, 420))
        unit[np.arange(84), parts[c]] = 1.0
        return _balance_components(unit.view(complex).reshape(84, 42, 5), signs, w, m, coup).real

    zero = np.zeros(4)
    field = np.concatenate([probe(c, zero, 0.0, 0.0) for c in range(1, 5)])
    terms = [probe(0, zero, 1.0, 0.0)] + [probe(0, e, 0.0, 1.0) for e in np.eye(4)]
    psi_terms = np.concatenate(terms, axis=1)
    read, read_psi = field.any(axis=1), psi_terms.any(axis=1)
    rows = np.concatenate([np.concatenate(parts[1:])[read], parts[0][read_psi]])
    tables = rows, field[read], psi_terms[read_psi]
    for table in tables:
        table.setflags(write=False)
    return tables


def residual_bilinear_gordon(fld, bg: Background, basis, x, sample=None) -> dict:
    """Max-abs residual of each of the ten density balance equations at a
    point (4,), or one per point of a stack (..., 4), per unit density u^0.

    sample is the field at x from sample_field, when the caller has it.  One
    product pairs the 42 balance matrices with psi and nabla_mu psi, two more
    with the constant balance tables give every component, and one reduceat
    takes the worst of each equation.
    """
    if sample is None:
        sample = sample_field(fld, bg, x)
    products = density_products(sample.psi, sample.block, basis.balance_rows)
    rows, field, psi_terms = _balance_tables(basis.balance_signs.tobytes())
    batch = products.shape[:-2]
    parts = products.view(float).reshape(batch + (420,))[..., rows]
    w = bg.torsion_coupling * bg.w_value(sample.x)
    scales = np.concatenate([np.full(w.shape[:-1] + (1, 1), bg.mass), w[..., None, :]], -1)
    by_scale = (parts[..., len(field) :] @ psi_terms).reshape(batch + (5, len(field.T)))
    components = parts[..., : len(field)] @ field + (scales @ by_scale)[..., 0, :]
    worst = np.maximum.reduceat(np.abs(components), _STARTS, axis=-1)
    worst /= products[..., 2, 0].real[..., None]
    return {name: worst[..., k][()] for k, name in enumerate(BALANCE)}


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
    # both norms in units of a power of two near the largest |psi_i|, which
    # leaves their ratio exact and keeps the squares finite at any mass and
    # amplitude; for a psi below 2^-1023 the unit stops at 2^1023
    _, exponent = np.frexp(np.abs(psi).max(axis=-1, keepdims=True))
    unit = np.ldexp(1.0, np.minimum(-exponent, 1023))
    return (np.linalg.norm(op * unit, axis=-1) / np.linalg.norm(psi * unit, axis=-1))[()]


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
