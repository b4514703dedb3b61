"""Momentum from velocity and back again.

The momentum covector of a polar field splits along the frame as

  p^a = (xs eta^{ak} + y^k s^a + z_i s_j eps^{ijka}) u_k,
  xs  = mass cos(chiral) - y.s

where y and z collect the chiral-angle gradient, the connection and the
density gradient.  The map u -> p is linear and, remarkably, invertible
without knowing y: the inverse matrix annihilates s, so the y.u admixture
drops out.  Both directions are implemented, plus the slow-motion limit
p_vec = m v + grad(log density) x spin used as a sanity anchor.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import ETA, ETA_SIGNS
from .errors import DegenerateInversion, DegenerateX
from .fieldconn import Background, PolarJet

X_GUARD = 1e-12
INVERSION_GUARD = 1e-10


@dataclass
class CompactForms:
    """Potentials at a point, or at every point of a batched jet."""

    y: np.ndarray        # lowered components
    z: np.ndarray        # lowered components
    xs: float
    mass_cos: float      # mass times cosine of the chiral angle
    guard_scale: float = 1.0   # max(1, |mass|): xs is degenerate below X_GUARD times this


def _first(values, mask):
    """First entry of values (a scalar or an array) where mask holds."""
    return np.asarray(values)[mask][0]


def _require_xs(xs, guard_scale):
    """Raise DegenerateX if any |xs| falls below X_GUARD * guard_scale."""
    degenerate = np.abs(xs) < X_GUARD * guard_scale
    if degenerate.any():
        raise DegenerateX(
            "effective mass scale %.3e too close to zero" % _first(xs, degenerate)
        )


def compact_forms(jet: PolarJet, bg: Background) -> CompactForms:
    """Compact forms of a jet; a batched jet raises DegenerateX if any of its
    points does."""
    w_low = bg.w_value(jet.x) * ETA_SIGNS
    y = jet.tc.axial_dual() - bg.torsion_coupling * w_low + 0.5 * jet.dchiral
    z = -jet.dlogdensity - jet.tc.trace_contraction()
    mass_cos = bg.mass * np.cos(jet.chiral_angle)
    xs = mass_cos - np.vecdot(y, jet.spin)
    guard_scale = max(1.0, abs(bg.mass))
    _require_xs(xs, guard_scale)
    return CompactForms(y=y, z=z, xs=xs, mass_cos=mass_cos, guard_scale=guard_scale)


def momentum_from_velocity(u, s, forms: CompactForms, basis) -> np.ndarray:
    """Raised momentum from the unit velocity, spin direction and potentials."""
    u = np.asarray(u, dtype=float)
    s = np.asarray(s, dtype=float)
    u_low, s_low = ETA @ u, ETA @ s
    return (
        forms.xs * u
        + (forms.y @ u) * s
        + np.einsum("i,j,k,ijka->a", forms.z, s_low, u_low, basis.eps_upper)
    )


def momentum_long_form(u, s, forms: CompactForms, basis) -> np.ndarray:
    """Same momentum written without the xs shorthand; kept as a cross-check."""
    u = np.asarray(u, dtype=float)
    s = np.asarray(s, dtype=float)
    u_low, s_low = ETA @ u, ETA @ s
    return (
        forms.mass_cos * u
        + (forms.y @ u) * s
        - (forms.y @ s) * u
        - np.einsum("m,j,k,jkma->a", forms.z, u_low, s_low, basis.eps_upper)
    )


def velocity_from_momentum(p, s, forms: CompactForms, basis) -> np.ndarray:
    """Invert the momentum map; only z, s and xs enter.

    With zeta = z / xs and the contractions s.p, zeta.p, zeta.s, the inverse
    applied to p is

      xs denom u = p + s [(1 + (zeta.s)^2) s.p + (zeta.s) zeta.p]
                     + zeta [zeta.p + (zeta.s) s.p] + zeta_i s_j eps^{ijka} p_a,
      denom = 1 + zeta.zeta + (zeta.s)^2.

    It annihilates s, so whatever multiple of s the momentum carries (the y.u
    part) cannot and need not be recovered.  p and s may carry a batch shape
    (..., 4) matching forms; a batch raises if any of its points fails a guard.
    """
    p = np.asarray(p, dtype=float)
    s = np.asarray(s, dtype=float)
    xs = np.asarray(forms.xs)
    _require_xs(xs, forms.guard_scale)
    zeta_low = forms.z / xs[..., None]
    zeta = zeta_low * ETA_SIGNS
    zs = np.vecdot(zeta_low, s)
    denom = 1.0 + np.vecdot(zeta_low, zeta) + zs**2
    vanishing = np.abs(denom) < INVERSION_GUARD
    if vanishing.any():
        raise DegenerateInversion(
            "inversion denominator %.3e vanishes" % _first(denom, vanishing)
        )
    p_low = p * ETA_SIGNS
    zp = np.vecdot(zeta, p_low)
    sp = np.vecdot(s, p_low)
    c_zeta = zp + zs * sp
    c_s = sp + zs * c_zeta      # (1 + (zeta.s)^2) s.p + (zeta.s) zeta.p
    # zeta_i s_j eps^{ijka}, one (k, a) matrix per point, applied to p_low
    wedge = (zeta_low[..., :, None] * (s * ETA_SIGNS)[..., None, :]).reshape(zs.shape + (16,))
    dual = (wedge @ basis.eps_upper.reshape(16, 16)).reshape(zs.shape + (4, 4))
    u = p + s * c_s[..., None] + zeta * c_zeta[..., None] + (dual @ p_low[..., None])[..., 0]
    return u / (xs * denom)[..., None]


def nonrel_limit_momentum(velocity3, spin3, grad_log_density3, mass) -> np.ndarray:
    """Slow-motion spatial momentum: m v plus the density-gradient spin curl."""
    velocity3 = np.asarray(velocity3, dtype=float)
    spin3 = np.asarray(spin3, dtype=float)
    grad_log_density3 = np.asarray(grad_log_density3, dtype=float)
    return mass * velocity3 + np.cross(grad_log_density3, spin3)
