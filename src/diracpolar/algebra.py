"""Chiral Clifford basis and finite Lorentz transformations.

Conventions, fixed once here and used everywhere else:

  - metric eta = diag(+1, -1, -1, -1)
  - epsilon_{0123} = +1 with all indices lowered; raising all four flips the
    sign (det eta = -1), so epsilon^{0123} = -1
  - gamma[a] holds the raised matrix gamma^a; lowered copies live alongside
  - sigma_ab = [gamma_a, gamma_b] / 4 with both indices lowered
  - pi = i gamma^0 gamma^1 gamma^2 gamma^3 = diag(-1, -1, +1, +1), chosen so
    the rest seed (1, 0, 1, 0) carries theta = 0, phi > 0 and spin along +z
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

ETA = np.diag([1.0, -1.0, -1.0, -1.0])
ETA.setflags(write=False)
# the diagonal of ETA: v * ETA_SIGNS lowers (or raises) the last index of a
# vector or of a stack of vectors
ETA_SIGNS = np.diag(ETA)

SEED_SPINOR = np.array([1.0, 0.0, 1.0, 0.0], dtype=complex)
SEED_SPINOR.setflags(write=False)


def _perm_sign(perm) -> int:
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def _build_epsilon() -> np.ndarray:
    eps = np.zeros((4, 4, 4, 4))
    for perm in itertools.permutations(range(4)):
        eps[perm] = _perm_sign(perm)
    return eps


EPS_LOWER = _build_epsilon()
EPS_LOWER.setflags(write=False)
EPS_UPPER = -EPS_LOWER
EPS_UPPER.setflags(write=False)

# 3d Levi-Civita, used for rotation generators
EPS3 = np.zeros((3, 3, 3))
for _p in itertools.permutations(range(3)):
    EPS3[_p] = _perm_sign(_p)
EPS3.setflags(write=False)

_PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


def mdot(a: np.ndarray, b: np.ndarray):
    """Minkowski contraction of two index-aligned 4-vectors (both raised or both lowered)."""
    return a @ ETA @ b


def lower(v: np.ndarray) -> np.ndarray:
    return ETA @ v


def raise_(v: np.ndarray) -> np.ndarray:
    return ETA @ v


@dataclass(frozen=True)
class CliffordBasis:
    """Gamma matrices plus every derived object the rest of the package contracts against."""

    gamma: np.ndarray        # (4, 4, 4), gamma[a] = gamma^a
    gamma_lower: np.ndarray  # (4, 4, 4), gamma_a
    sigma_lower: np.ndarray  # (4, 4, 4, 4), sigma_ab
    sigma_upper: np.ndarray  # (4, 4, 4, 4), sigma^ab
    pi: np.ndarray           # (4, 4)
    identity: np.ndarray     # (4, 4)
    eta: np.ndarray
    eps_lower: np.ndarray
    eps_upper: np.ndarray
    # gamma^0 M for the sixteen density matrices M, in BilinearSet order:
    # 1, i pi, gamma^a, gamma^a pi, 2i sigma_ab for ab in TENSOR_PAIRS
    bilinear_stack: np.ndarray     # (16, 4, 4)
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
        densities = [eye, 1j * pi, *gam, *(gam @ pi)]
        densities += [2j * sig_low[a, b] for a, b in itertools.combinations(range(4), 2)]
        arrays = dict(
            gamma=gam,
            gamma_lower=gam_low,
            sigma_lower=sig_low,
            sigma_upper=sig_up,
            pi=pi,
            identity=eye,
            eta=ETA,
            eps_lower=EPS_LOWER,
            eps_upper=EPS_UPPER,
            bilinear_stack=gam[0] @ np.array(densities),
            boost_generators=2.0 * sig_low[0, 1:],
            rotation_generators=sig_low[[2, 3], [3, 1]],
        )
        for arr in arrays.values():
            arr.setflags(write=False)
        return cls(**arrays)


def build_chiral_basis() -> CliffordBasis:
    """Chiral representation: gamma^0 off-diagonal identities, gamma^k off-diagonal Paulis."""
    zero = np.zeros((2, 2), dtype=complex)
    eye = np.eye(2, dtype=complex)
    gam = np.empty((4, 4, 4), dtype=complex)
    gam[0] = np.block([[zero, eye], [eye, zero]])
    for k in range(3):
        gam[k + 1] = np.block([[zero, _PAULI[k]], [-_PAULI[k], zero]])
    pi = 1j * gam[0] @ gam[1] @ gam[2] @ gam[3]
    return CliffordBasis.from_gammas(gam, pi)


def verify_basis(basis: CliffordBasis):
    """Max-abs residual of every algebraic identity the basis must satisfy."""
    from .report import IdentityReport

    g, gl, sl, su, pi = (
        basis.gamma,
        basis.gamma_lower,
        basis.sigma_lower,
        basis.sigma_upper,
        basis.pi,
    )
    eye = basis.identity
    rep = IdentityReport()

    anti = np.einsum("aij,bjk->abik", g, g) + np.einsum("bij,ajk->abik", g, g)
    anti = anti - 2.0 * ETA[:, :, None, None] * eye[None, None, :, :]
    rep.add("anticommutator", np.abs(anti).max())

    sig_def = sl - 0.25 * (
        np.einsum("aij,bjk->abik", gl, gl) - np.einsum("bij,ajk->abik", gl, gl)
    )
    rep.add("sigma_definition", np.abs(sig_def).max())

    dual = 2j * sl - np.einsum("abcd,ij,jk,cdkl->abil", EPS_LOWER, pi, np.eye(4), su)
    rep.add("sigma_duality", np.abs(dual).max())

    pg = np.einsum("ij,ajk->aik", pi, g)
    triple = np.einsum("iab,jbc,kcd->ijkad", gl, gl, gl)
    triple = triple - (
        np.einsum("jk,iad->ijkad", ETA, gl)
        - np.einsum("ik,jad->ijkad", ETA, gl)
        + np.einsum("ij,kad->ijkad", ETA, gl)
        + 1j * np.einsum("ijkq,qad->ijkad", EPS_LOWER, pg)
    )
    rep.add("triple_product", np.abs(triple).max())

    rep.add("pi_anticommutation", np.abs(pi @ g + g @ pi).max())
    rep.add("pi_square", np.abs(pi @ pi - eye).max())

    # trace orthogonality of the six independent sigma^{ab}, needed by the
    # connection extraction's projection step
    worst = 0.0
    pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    for pa in pairs:
        for pb in pairs:
            if pa == pb:
                continue
            val = np.trace(su[pa].conj().T @ su[pb])
            worst = max(worst, abs(val))
    rep.add("sigma_orthogonality", worst)
    return rep


@dataclass(frozen=True)
class LorentzPair:
    """Spin and vector representations of one finite Lorentz transformation.

    Built from antisymmetric parameters lam = lam^{ab}:
      spin_rep = exp(lam^{ab} sigma_ab / 2)
      vec_rep  = exp(M),  M^a_b = lam^{ac} eta_cb
    and they satisfy spin_rep^-1 gamma^a spin_rep = vec_rep^a_b gamma^b.
    """

    spin_rep: np.ndarray
    vec_rep: np.ndarray
    params: np.ndarray

    def inverse(self) -> "LorentzPair":
        return LorentzPair(
            np.linalg.inv(self.spin_rep), np.linalg.inv(self.vec_rep), -self.params
        )


def lorentz_exp(lam: np.ndarray, basis: CliffordBasis) -> LorentzPair:
    lam = np.asarray(lam, dtype=float)
    if np.abs(lam + lam.T).max() > 1e-12:
        raise ValueError("Lorentz parameters must be antisymmetric")
    gen_spin = 0.5 * np.einsum("ab,abij->ij", lam, basis.sigma_lower)
    gen_vec = lam @ ETA
    return LorentzPair(expm(gen_spin), expm(gen_vec), lam.copy())


def boost_params(u: np.ndarray) -> np.ndarray:
    """Parameters of the pure boost whose vec_rep^-1 maps e_0 to the unit timelike u."""
    u = np.asarray(u, dtype=float)
    lam = np.zeros((4, 4))
    speed = np.linalg.norm(u[1:])
    if speed < 1e-300:
        return lam
    chi = np.arcsinh(speed)
    n = u[1:] / speed
    lam[0, 1:] = chi * n
    lam[1:, 0] = -chi * n
    return lam


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


def boost_reps(u: np.ndarray, basis: CliffordBasis):
    """(spin_rep, vec_rep) of lorentz_exp(boost_params(u)) in closed form.

    u has any leading batch shape (..., 4); only its spatial part v enters,
    with u0 = sqrt(1 + |v|^2).  Half-angle forms keep the rest frame regular:
      spin_rep = cosh(chi/2) 1 + sinh(chi/2) n_k gamma_0 gamma_k,
                 cosh(chi/2) = sqrt((u0 + 1) / 2), sinh(chi/2) n = v / (2 cosh(chi/2))
      vec_rep  = [[u0, -v], [-v, 1 + v v^T / (u0 + 1)]]
    """
    v = np.asarray(u, dtype=float)[..., 1:]
    batch = v.shape[:-1]
    u0 = np.sqrt(1.0 + (v * v).sum(axis=-1))
    half_cosh = np.sqrt(0.5 * (u0 + 1.0))
    generator = (v / (2.0 * half_cosh)[..., None]) @ basis.boost_generators.reshape(3, 16)
    spin = half_cosh[..., None, None] * basis.identity + generator.reshape(batch + (4, 4))
    vec = np.empty(batch + (4, 4))
    vec[..., 0, 0] = u0
    vec[..., 0, 1:] = -v
    vec[..., 1:, 0] = -v
    vec[..., 1:, 1:] = np.eye(3) + v[..., :, None] * v[..., None, :] / (u0 + 1.0)[..., None, None]
    return spin, vec


def rot_z_to_reps(target: np.ndarray, basis: CliffordBasis):
    """(spin_rep, vec_rep) of lorentz_exp(rot_z_to_params(target)) in closed form.

    target has any leading batch shape (..., 3) and need not be normalized.
    The half-angle quaternion of the minimal rotation z -> t is q =
    (|t| + t_z, z x t) normalized; its axis lies in the xy plane, so q_3 = 0:
      spin_rep = q_0 1 - 2 (q_1 sigma_23 + q_2 sigma_31)
      vec_rep  = diag(1, R^T), R the rotation matrix of q, which takes z onto t
    Near the -z antipode |t| + t_z is formed as (t_x^2 + t_y^2) / (|t| - t_z)
    to avoid cancellation; at the antipode itself, with the same threshold as
    rot_z_to_params, the rotation is the half turn about x.
    """
    t = np.asarray(target, dtype=float)
    tx, ty, tz = t[..., 0], t[..., 1], t[..., 2]
    rho2 = tx * tx + ty * ty
    norm = np.sqrt(rho2 + tz * tz)
    antipode = (np.sqrt(rho2) < 1e-14 * norm) & (tz < 0.0)
    q0 = np.where(tz >= 0.0, norm + tz, rho2 / (norm + np.abs(tz)))
    scale = 1.0 / np.sqrt(np.where(antipode, 1.0, q0 * q0 + rho2))
    q0 = np.where(antipode, 0.0, q0 * scale)
    q1 = np.where(antipode, 1.0, -ty * scale)
    q2 = np.where(antipode, 0.0, tx * scale)
    batch = t.shape[:-1]

    generator = np.stack([q1, q2], axis=-1) @ basis.rotation_generators.reshape(2, 16)
    spin = q0[..., None, None] * basis.identity - 2.0 * generator.reshape(batch + (4, 4))
    vec = np.zeros(batch + (4, 4))
    vec[..., 0, 0] = 1.0
    vec[..., 1, 1] = 1.0 - 2.0 * q2 * q2
    vec[..., 2, 2] = 1.0 - 2.0 * q1 * q1
    vec[..., 3, 3] = 1.0 - 2.0 * (q1 * q1 + q2 * q2)
    vec[..., 1, 2] = vec[..., 2, 1] = 2.0 * q1 * q2
    vec[..., 1, 3] = -2.0 * q2 * q0
    vec[..., 3, 1] = 2.0 * q2 * q0
    vec[..., 2, 3] = 2.0 * q1 * q0
    vec[..., 3, 2] = -2.0 * q1 * q0
    return spin, vec


def rest_to_lab(u: np.ndarray, spin_axis: np.ndarray, basis: CliffordBasis):
    """LorentzPairs (boost, rotation) with L = rot.spin @ boost.spin mapping the
    rest seed onto a spinor of velocity u and rest-frame spin along spin_axis."""
    boost = lorentz_exp(boost_params(u), basis)
    rot = lorentz_exp(rot_z_to_params(spin_axis), basis)
    return boost, rot
