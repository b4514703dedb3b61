"""Chiral Clifford basis and finite Lorentz transformations.

Conventions, fixed once here and used everywhere else:

  - metric eta = diag(+1, -1, -1, -1)
  - epsilon_{0123} = +1 with all indices lowered; raising all four flips the
    sign (det eta = -1), so epsilon^{0123} = -1
  - the kernels contract epsilon through one read-only table, EPS_PAIRS =
    epsilon^{abcd} as a (16, 16) matrix over the index pairs (ab) and (cd),
    symmetric under the pair swap: pair_dual(w) = eps^{abcd} w_cd is a
    reshape and one matmul, and the (4, 64) view contracts three indices;
    EPS_LOWER and EPS_UPPER themselves serve the basis checks, the Fierz
    identities and tables built once at import
  - gamma[a] holds the raised matrix gamma^a; lowered copies live alongside
  - sigma_ab = [gamma_a, gamma_b] / 4 with both indices lowered
  - pi = i gamma^0 gamma^1 gamma^2 gamma^3 = diag(-1, -1, +1, +1), chosen so
    the rest seed (1, 0, 1, 0) carries theta = 0, phi > 0 and spin along +z

scipy.linalg is imported on the first expm call, from lorentz_exp, not with
the package.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

ETA = np.diag([1.0, -1.0, -1.0, -1.0])
ETA.setflags(write=False)
# the diagonal of ETA: v * ETA_SIGNS lowers (or raises) the last index of a
# vector or of a stack of vectors
ETA_SIGNS = np.diag(ETA)
# LOWER_PAIR lowers (or raises) both indices of a matrix
LOWER_PAIR = ETA_SIGNS[:, None] * ETA_SIGNS
LOWER_PAIR.setflags(write=False)

SEED_SPINOR = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex)
SEED_SPINOR.setflags(write=False)


def _epsilon(n: int) -> np.ndarray:
    """Read-only Levi-Civita symbol with n indices, epsilon_{01..n-1} = +1.

    Each permutation's sign is the determinant of its permutation matrix,
    which LU with partial pivoting returns as exactly +1 or -1.
    """
    perms = np.array(list(itertools.permutations(range(n))))
    eps = np.zeros((n,) * n)
    eps[tuple(perms.T)] = np.linalg.det(np.eye(n)[perms])
    eps.setflags(write=False)
    return eps


EPS_LOWER = _epsilon(4)
EPS_UPPER = -EPS_LOWER
EPS_UPPER.setflags(write=False)
# epsilon^{abcd} over the index pairs, row (ab) and column (cd); a view of
# EPS_UPPER, so read-only as well
EPS_PAIRS = EPS_UPPER.reshape(16, 16)

# 3d Levi-Civita, used for rotation generators
EPS3 = _epsilon(3)

# the six index pairs a < b of an antisymmetric 4x4 tensor, in the order of
# BilinearSet.tensor6, and the same pairs as index arrays
INDEX_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
PAIR_I, PAIR_J = np.array(INDEX_PAIRS).T

_PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


def mdot(a: np.ndarray, b: np.ndarray):
    """Minkowski contraction of two index-aligned 4-vectors (both raised or both
    lowered), or of every pair of rows of two stacks (..., 4)."""
    return np.sum(a * ETA_SIGNS * b, axis=-1)


def pair_dual(w: np.ndarray) -> np.ndarray:
    """eps^{abcd} w_cd of a matrix (4, 4), or of every matrix of a stack
    (..., 4, 4): one product with EPS_PAIRS.  For w = x y^T, the outer
    product of two covectors, it is eps^{abcd} x_c y_d."""
    return (w.reshape(w.shape[:-2] + (16,)) @ EPS_PAIRS).reshape(w.shape)


def side_by_side(stack: np.ndarray) -> np.ndarray:
    """The k matrices of a stack (k, 4, 4) side by side, (4, 4k): psi^dagger
    times it holds psi^dagger M for every M, one after another."""
    return stack.transpose(1, 0, 2).reshape(4, 4 * len(stack))


@dataclass(frozen=True)
class CliffordBasis:
    """Gamma matrices plus every derived object the rest of the package contracts against."""

    gamma: np.ndarray        # (4, 4, 4), gamma[a] = gamma^a
    gamma_lower: np.ndarray  # (4, 4, 4), gamma_a
    sigma_lower: np.ndarray  # (4, 4, 4, 4), sigma_ab
    sigma_upper: np.ndarray  # (4, 4, 4, 4), sigma^ab
    sigma_pairs: np.ndarray  # (6, 4, 4), sigma^ab for ab in INDEX_PAIRS
    pi: np.ndarray           # (4, 4)
    identity: np.ndarray     # (4, 4)
    # the matrices of the Dirac operator, gamma^a then gamma^a pi, side by side
    dirac_rows: np.ndarray   # (4, 32)
    # gamma^0 M for the sixteen density matrices M, in BilinearSet order, side
    # by side (see side_by_side): 1, i pi, gamma^a, gamma^a pi, 2i sigma_ab
    # for ab in INDEX_PAIRS
    density_rows: np.ndarray       # (4, 64)
    jet_rows: np.ndarray           # (4, 40), density_rows[:, :40]: the ten behind S, P, U and A
    velocity_rows: np.ndarray      # (4, 24), density_rows[:, :24]: the six behind S, P and U
    # gamma^0 M for the 42 matrices M the balance equations pair with the
    # field, 1, pi, gamma^a, gamma^a pi, sigma^ab (16), sigma^ab pi (16), side
    # by side; each is exactly hermitian (sign +1) or anti-hermitian (-1)
    balance_rows: np.ndarray       # (4, 168)
    balance_signs: np.ndarray      # (42,)
    # the matrices the polar derivative's coefficients (dlogdensity, p,
    # dchiral, r_ab for ab in INDEX_PAIRS) multiply: 1, -i, -i pi / 2 and
    # -sigma^ab, flattened
    polar_rows: np.ndarray         # (9, 16)
    boost_generators: np.ndarray   # (3, 4, 4), gamma_0 gamma_k = 2 sigma_0k
    rotation_generators: np.ndarray  # (2, 4, 4), (sigma_23, sigma_31); z -> t needs no sigma_12

    @classmethod
    def from_gammas(cls, gammas: np.ndarray, pi: np.ndarray) -> "CliffordBasis":
        gam = np.asarray(gammas, dtype=complex).reshape(4, 4, 4).copy()
        gam_low = np.einsum("ab,bij->aij", ETA, gam)
        sig_low = 0.25 * (
            np.einsum("aij,bjk->abik", gam_low, gam_low)
            - np.einsum("bij,ajk->abik", gam_low, gam_low)
        )
        sig_up = np.einsum("ac,bd,cdij->abij", ETA, ETA, sig_low)
        pi = np.asarray(pi, dtype=complex).copy()
        eye = np.eye(4, dtype=complex)
        densities = [eye, 1j * pi, *gam, *(gam @ pi), *(2j * sig_low[PAIR_I, PAIR_J])]
        sigma = sig_up.reshape(16, 4, 4)
        balance = gam[0] @ np.concatenate([eye[None], pi[None], gam, gam @ pi, sigma, sigma @ pi])
        hermitian = np.all(np.conj(np.swapaxes(balance, -1, -2)) == balance, axis=(-2, -1))
        arrays = dict(
            gamma=gam,
            gamma_lower=gam_low,
            sigma_lower=sig_low,
            sigma_upper=sig_up,
            sigma_pairs=sig_up[PAIR_I, PAIR_J],
            pi=pi,
            identity=eye,
            dirac_rows=side_by_side(np.concatenate([gam, gam @ pi])),
            density_rows=side_by_side(gam[0] @ np.array(densities)),
            balance_rows=side_by_side(balance),
            balance_signs=np.where(hermitian, 1.0, -1.0),
            polar_rows=np.concatenate(
                [[eye, -1j * eye, -0.5j * pi], -sig_up[PAIR_I, PAIR_J]]
            ).reshape(9, 16),
            boost_generators=2.0 * sig_low[0, 1:],
            rotation_generators=sig_low[[2, 3], [3, 1]],
        )
        arrays["jet_rows"] = arrays["density_rows"][:, :40]
        arrays["velocity_rows"] = arrays["density_rows"][:, :24]
        for arr in arrays.values():
            arr.setflags(write=False)
        return cls(**arrays)


@functools.lru_cache(maxsize=1)
def build_chiral_basis() -> CliffordBasis:
    """Chiral representation: gamma^0 off-diagonal identities, gamma^k off-diagonal Paulis.

    Built once per process: the basis is frozen and its arrays are read-only,
    so every caller shares the one copy.
    """
    zero = np.zeros((2, 2), dtype=complex)
    eye = np.eye(2, dtype=complex)
    gam = np.empty((4, 4, 4), dtype=complex)
    gam[0] = np.block([[zero, eye], [eye, zero]])
    for k in range(3):
        gam[k + 1] = np.block([[zero, _PAULI[k]], [-_PAULI[k], zero]])
    pi = 1j * gam[0] @ gam[1] @ gam[2] @ gam[3]
    return CliffordBasis.from_gammas(gam, pi)


def verify_basis(basis: CliffordBasis) -> dict:
    """Max-abs residual of every algebraic identity the basis must satisfy."""
    g, gl, sl, su, pi = (
        basis.gamma,
        basis.gamma_lower,
        basis.sigma_lower,
        basis.sigma_upper,
        basis.pi,
    )
    eye = basis.identity
    out = {}

    anti = np.einsum("aij,bjk->abik", g, g) + np.einsum("bij,ajk->abik", g, g)
    anti = anti - 2.0 * ETA[:, :, None, None] * eye[None, None, :, :]
    out["anticommutator"] = np.abs(anti).max()

    sig_def = sl - 0.25 * (
        np.einsum("aij,bjk->abik", gl, gl) - np.einsum("bij,ajk->abik", gl, gl)
    )
    out["sigma_definition"] = np.abs(sig_def).max()

    dual = 2j * sl - np.einsum("abcd,ij,jk,cdkl->abil", EPS_LOWER, pi, np.eye(4), su)
    out["sigma_duality"] = np.abs(dual).max()

    pg = np.einsum("ij,ajk->aik", pi, g)
    triple = np.einsum("iab,jbc,kcd->ijkad", gl, gl, gl)
    triple = triple - (
        np.einsum("jk,iad->ijkad", ETA, gl)
        - np.einsum("ik,jad->ijkad", ETA, gl)
        + np.einsum("ij,kad->ijkad", ETA, gl)
        + 1j * np.einsum("ijkq,qad->ijkad", EPS_LOWER, pg)
    )
    out["triple_product"] = np.abs(triple).max()

    out["pi_anticommutation"] = np.abs(pi @ g + g @ pi).max()
    out["pi_square"] = np.abs(pi @ pi - eye).max()

    # trace orthogonality of the six independent sigma^{ab}, needed by the
    # connection extraction's projection step: tr(sigma^P^dagger sigma^Q)
    # for every pair of index pairs P != Q
    sigma6 = basis.sigma_pairs
    gram = np.einsum("pij,qij->pq", sigma6.conj(), sigma6)
    out["sigma_orthogonality"] = np.abs(gram[~np.eye(6, dtype=bool)]).max()
    return out


def expm(a: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm of a (..., n, n); scipy is imported on the first call."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


@dataclass(frozen=True)
class LorentzPair:
    """Spin and vector representations of one finite Lorentz transformation,
    or of a stack of them.

    Built from antisymmetric parameters lam = lam^{ab}:
      spin_rep = exp(lam^{ab} sigma_ab / 2)
      vec_rep  = exp(M),  M^a_b = lam^{ac} eta_cb
    and they satisfy spin_rep^-1 gamma^a spin_rep = vec_rep^a_b gamma^b.
    """

    spin_rep: np.ndarray
    vec_rep: np.ndarray


def lorentz_exp(lam: np.ndarray, basis: CliffordBasis) -> LorentzPair:
    """LorentzPair of parameters (4, 4), or of every matrix of a stack (..., 4, 4)."""
    lam = np.asarray(lam, dtype=float)
    if np.abs(lam + np.swapaxes(lam, -1, -2)).max(initial=0.0) > 1e-12:
        raise ValueError("Lorentz parameters must be antisymmetric")
    gen_spin = 0.5 * np.einsum("...ab,abij->...ij", lam, basis.sigma_lower)
    gen_vec = lam @ ETA
    return LorentzPair(expm(gen_spin), expm(gen_vec))


def rotation_params(axis: np.ndarray, angle: float) -> np.ndarray:
    """Parameters of the rotation whose vec_rep^-1 actively rotates by `angle` about `axis`."""
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    lam = np.zeros((4, 4))
    lam[1:, 1:] = -angle * np.einsum("jkl,l->jk", EPS3, n)
    return lam


def rot_z_to_params(target: np.ndarray) -> np.ndarray:
    """Minimal rotation taking the z axis onto the unit 3-vector `target`.

    Axis is z x target; the antipode target = -z falls back to a half turn
    about x, and target = +z is the identity.
    """
    t = np.asarray(target, dtype=float)
    t = t / np.linalg.norm(t)
    cross = np.cross([0.0, 0.0, 1.0], t)
    sin_angle = np.linalg.norm(cross)
    cos_angle = t[2]
    if sin_angle < 1e-14:
        if cos_angle > 0.0:
            return np.zeros((4, 4))
        return rotation_params(np.array([1.0, 0.0, 0.0]), np.pi)
    return rotation_params(cross / sin_angle, np.arctan2(sin_angle, cos_angle))


def lorentz_inverse(vec_rep: np.ndarray) -> np.ndarray:
    """Exact inverse eta vec_rep^T eta of a Lorentz matrix, or of a stack of them."""
    return ETA @ np.swapaxes(vec_rep, -1, -2) @ ETA


def spin_inverse(spin_rep: np.ndarray, basis: CliffordBasis) -> np.ndarray:
    """Exact inverse gamma^0 spin_rep^dagger gamma^0 of a spin representation,
    or of a stack of them."""
    g0 = basis.gamma[0]
    return g0 @ np.conj(np.swapaxes(spin_rep, -1, -2)) @ g0


def boost_spin_rep(u: np.ndarray, basis: CliffordBasis) -> np.ndarray:
    """spin_rep of the pure boost whose vec_rep^-1 maps e_0 to u, in closed form.

    u has any leading batch shape (..., 4); only its spatial part v enters,
    with u0 = sqrt(1 + |v|^2).  The half-angle form keeps the rest frame regular:
      spin_rep = cosh(chi/2) 1 + sinh(chi/2) n_k gamma_0 gamma_k,
                 cosh(chi/2) = sqrt((u0 + 1) / 2), sinh(chi/2) n = v / (2 cosh(chi/2))
    """
    v = np.asarray(u, dtype=float)[..., 1:]
    half_cosh = np.sqrt(0.5 * (np.sqrt(1.0 + np.vecdot(v, v)) + 1.0))
    generator = (v / (2.0 * half_cosh)[..., None]) @ basis.boost_generators.reshape(3, 16)
    return half_cosh[..., None, None] * basis.identity + generator.reshape(v.shape[:-1] + (4, 4))


def _rot_z_quaternion(target: np.ndarray):
    """(q0, q1, q2) of the minimal rotation taking z onto target (..., 3),
    which need not be normalized.

    The half-angle quaternion of the rotation z -> t is q = (|t| + t_z, z x t)
    normalized; its axis lies in the xy plane, so q_3 = 0.  Near the -z
    antipode |t| + t_z is formed as rho^2 / (|t| - t_z), rho^2 = t_x^2 + t_y^2,
    to avoid cancellation; at the antipode itself, rho < 1e-14 |t| with t_z <
    0 (the threshold of rot_z_to_params), the rotation is the half turn about x.
    t is first scaled by a power of two to max |t_i| in [1/2, 1): the scaling
    is exact and q homogeneous, so the squares can neither overflow nor
    underflow and every other t gives the same bits.
    """
    t = np.asarray(target, dtype=float)
    t = np.ldexp(t, -np.frexp(np.abs(t).max(axis=-1, keepdims=True))[1])
    tx, ty, tz = t[..., 0], t[..., 1], t[..., 2]
    rho2 = tx * tx + ty * ty
    norm = np.sqrt(rho2 + tz * tz)
    antipode = (np.sqrt(rho2) < 1e-14 * norm) & (tz < 0.0)
    q0 = np.where(tz >= 0.0, norm + tz, rho2 / (norm + np.abs(tz)))
    scale = 1.0 / np.sqrt(np.where(antipode, 1.0, q0 * q0 + rho2))
    q0 = np.where(antipode, 0.0, q0 * scale)
    q1 = np.where(antipode, 1.0, -ty * scale)
    q2 = np.where(antipode, 0.0, tx * scale)
    return q0, q1, q2


def vector_rep(spin_rep: np.ndarray, basis: CliffordBasis) -> np.ndarray:
    """vec_rep of a spin representation L, or of every one of a stack (..., 4, 4):
    L^-1 gamma^a L = vec_rep^a_b gamma^b, read off as tr(L^-1 gamma^a L gamma_b) / 4."""
    spin_rep = spin_rep[..., None, :, :]
    conjugated = spin_inverse(spin_rep, basis) @ basis.gamma @ spin_rep
    # row (ij) of the table holds (gamma_b)_ji, so row (ij) times it sums tr(X gamma_b)
    table = basis.gamma_lower.transpose(2, 1, 0).reshape(16, 4)
    return (conjugated.reshape(conjugated.shape[:-2] + (16,)) @ table).real / 4.0


def rot_z_spin_rep(target: np.ndarray, basis: CliffordBasis) -> np.ndarray:
    """spin_rep of lorentz_exp(rot_z_to_params(target)) in closed form, for
    target (..., 3): q_0 1 - 2 (q_1 sigma_23 + q_2 sigma_31), q of _rot_z_quaternion."""
    q0, q1, q2 = _rot_z_quaternion(target)
    generator = np.stack([q1, q2], axis=-1) @ basis.rotation_generators.reshape(2, 16)
    return q0[..., None, None] * basis.identity - 2.0 * generator.reshape(q0.shape + (4, 4))


def transport_terms(u, du, s, ds):
    """a_mu = u du_mu^T - s ds_mu^T + (s.du_mu) u s^T, raised, one (4, 4) matrix
    per mu right after the batch axes, from the unit velocity and spin (..., 4)
    and their derivatives (..., mu, 4), all raised: the transport terms of r.

    u and s fix every part of r_mu = l_vec^T eta d_mu l_vec but the turn about
    the spin, lam_mu eps_ijkl u^k s^l, and that turn holds all of the frame
    gauge.  The transport gauge sets lam_mu = 0: r is then covariant in u, s
    and their derivatives and regular wherever they are, and no frame enters.
    """
    q = du + (du @ (s * ETA_SIGNS)[..., None]) * s[..., None, :]
    return u[..., None, :, None] * q[..., None, :] - s[..., None, :, None] * ds[..., None, :]


def connection_from_transport(a):
    """r_mu = a_mu - a_mu^T, lowered: the one formula for the connection."""
    return (a - a.swapaxes(-1, -2)) * LOWER_PAIR
