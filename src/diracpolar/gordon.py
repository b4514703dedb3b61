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

    out["pseudoscalar_kinetic"] = 0.5j * _trace(k_gam_pi) - coup * np.vecdot(w_low, u)

    dur = d_vec * _S[:, None]
    curl_u = dur - np.swapaxes(dur, -1, -2)
    # eps^{anmr} k_rm = -pair_dual(k)_an, k = k_gam_pi lowered along its first index
    curl_u = curl_u - 1j * pair_dual(k_gam_pi * _S[:, None])
    curl_u = curl_u - 2 * coup * pair_dual(_outer(w_low, u_low))
    out["vector_curl"] = curl_u - 2 * m * m_up

    out["axial_divergence"] = _trace(d_ax) - 2 * m * pseudoscalar

    out["scalar_kinetic"] = 0.5j * _trace(k_gam) - coup * np.vecdot(w_low, s) - m * scalar

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
    mass_s = bg.mass * (jet.spin * _S)
    beta = np.asarray(jet.chiral_angle)[..., None]
    return y + mass_s * np.cos(beta), mass_s * np.sin(beta) - z


# the polar groups' residuals as reported, with the number of components each
# stacks into the row residual_polar_groups reduces, and the first of them
GROUPS = {"a1": 1, "a2": 1, "a3": 16, "b1": 1, "b2": 1, "b3": 16, "c1": 4, "c2": 4, "d1": 4,
          "d2": 4}
_GROUP_STARTS = np.cumsum([0, *GROUPS.values()])[:-1]

# c1, c2, d1 and d2, all raised, from the rows cross(a) = eps^{jkmx} a_m u_j s_k,
# sweep(a) = (a.u) s - (a.s) u and a raised of a = e, f, p:
#   c1 = cross(f) + sweep(e) - p, c2 = sweep(f) - cross(e),
#   d1 = f + cross(p), d2 = e - sweep(p)
_VECTOR_TABLE = np.array([[0, 1, 0, 1, 0, 0, 0, 0, -1], [-1, 0, 0, 0, 1, 0, 0, 0, 0],
                          [0, 0, 1, 0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, -1, 1, 0, 0]], dtype=float)
# the projections (a.u, a.s) times it are (-a.s, a.u), whose product with the
# frame (u, s) is sweep(a)
_TURN = np.array([[0.0, 1.0], [-1.0, 0.0]])
for _table in (_VECTOR_TABLE, _TURN):
    _table.setflags(write=False)


def residual_polar_groups(jet: PolarJet, bg: Background) -> dict:
    """All four projection groups of the polar field equations, one residual
    per point of a batched jet.

    Groups a and b project along the velocity and spin, group c solves for
    the momentum covector, group d is the momentum decomposition itself.  The
    covectors (e, f, p) and the frame (u, s) are stacked: one product gives
    the six projections, one the crosses with the frame's dual, a constant
    table combines the crosses into groups c and d, one pair_dual gives a3
    and b3, and one reduceat the worst of each group.
    """
    e, f = compute_potentials(jet, bg)
    p, u, s = jet.p, jet.velocity, jet.spin
    covectors = np.concatenate([e[..., None, :], f[..., None, :], p[..., None, :]], axis=-2)
    frame = np.concatenate([u[..., None, :], s[..., None, :]], axis=-2)
    frame_low = frame * _S
    batch = frame.shape[:-2]
    dots = covectors @ frame.swapaxes(-1, -2)
    # eps^{m x j k} u_j s_k, the dual of the lowered frame pair: a @ dual is
    # cross(a), and as the dual is antisymmetric, p @ dual is -(dual @ p),
    # minus d1's eps_{mrna} p^r u^n s^a with m raised
    dual = pair_dual(frame_low[..., 0, :, None] * frame_low[..., 1, None, :])
    rows = [covectors @ dual, (dots @ _TURN) @ frame, covectors * _S]
    vectors = _VECTOR_TABLE @ np.concatenate(rows, axis=-2)
    # a3 (k = 0) and b3 (k = 1): pair_dual(a b^T) = eps^{x n m r} a_m b_r of e
    # against frame k and p against the other, and f^x v_k^n - v_k^x f^n
    paired = e[..., None, :, None] * frame_low[..., None, :]
    paired = paired + p[..., None, :, None] * frame_low[..., ::-1, None, :]
    turn = (f * _S)[..., None, :, None] * frame[..., None, :]
    duals = pair_dual(paired) + turn - turn.swapaxes(-1, -2)
    # rows a (k = 0) and b (k = 1): f.v_k, e.v_k + p.v_other, then a3 or b3
    ab = [dots[..., 1, :, None], (dots[..., 0, :] + dots[..., 2, ::-1])[..., None],
          duals.reshape(batch + (2, 16))]
    ab = np.concatenate(ab, axis=-1)
    parts = np.concatenate([ab.reshape(batch + (36,)), vectors.reshape(batch + (16,))], axis=-1)
    worst = np.maximum.reduceat(np.abs(parts), _GROUP_STARTS, axis=-1)
    return {name: worst[..., k][()] for k, name in enumerate(GROUPS)}


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
