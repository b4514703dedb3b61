"""Momentum from velocity and back again.

The momentum covector of a polar field splits along the frame as

  p^a = (xs eta^{ak} + y^k s^a + z_i s_j eps^{ijka}) u_k,
  xs  = mass cos(chiral) - y.s

where y and z collect the chiral-angle gradient, the connection and the
density gradient.  The map u -> p is linear and, remarkably, invertible
without knowing y: the inverse matrix annihilates s, so the y.u admixture
drops out; the inverse ends in a triple product of z / xs, s and p, one
product with a constant epsilon table.  Both directions are implemented, plus
the slow-motion limit p_vec = m v + grad(log density) x spin as an anchor.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import EPS_UPPER, ETA, ETA_SIGNS, pair_dual
from .errors import DegenerateInversion, DegenerateX, raise_rows
from .fieldconn import Background, PolarJet

X_GUARD = 1e-12
INVERSION_GUARD = 1e-10

# eps^{ijk}_a over the rows (i, j, a) and the column k: zeta_i s_j p^a,
# flattened to (..., 64), times it is eps^{ijka} zeta_i s_j p_a
_EPS_TRIPLE = (EPS_UPPER * ETA_SIGNS).transpose(0, 1, 3, 2).reshape(64, 4)
_ETA_SIGNS_LONG = ETA_SIGNS.astype(np.longdouble)   # cast once, not per inversion


@dataclass
class CompactForms:
    """Potentials at a point, or at every point of a batched jet."""

    y: np.ndarray        # lowered components
    z: np.ndarray        # lowered components
    xs: float
    mass_cos: float      # mass times cosine of the chiral angle


def _require_xs(xs):
    """Raise DegenerateX naming each point whose |xs| (about 1 in mass units) is below X_GUARD."""
    degenerate = np.abs(xs) < X_GUARD
    raise_rows(degenerate, DegenerateX, "effective mass scale %.3e too close to zero", xs)


def potentials(jet: PolarJet, bg: Background):
    """The y and z potentials of a jet, lowered, with the jet's batch axes;
    no guard.  The connection enters through jet.contractions, the torsion
    term g w only when there is one."""
    parts = jet.contractions
    y = parts[..., :4]
    if bg.gw is not None:
        y = y - bg.gw_value(jet.x) * ETA_SIGNS
    y = y + 0.5 * jet.dchiral
    z = parts[..., 4:8] - jet.dlogdensity
    return y, z


def compact_forms(jet: PolarJet, bg: Background) -> CompactForms:
    """Compact forms of a jet, with its batch shape; no guard: xs is guarded
    where it is divided by, in velocity_from_momentum."""
    y, z = potentials(jet, bg)
    mass_cos = bg.mass * np.cos(jet.chiral_angle)
    xs = mass_cos - np.vecdot(y, jet.spin)
    return CompactForms(y=y, z=z, xs=xs, mass_cos=mass_cos)


def momentum_from_velocity(u, s, forms: CompactForms) -> np.ndarray:
    """Raised momentum from the unit velocity, spin direction and potentials."""
    u, s = np.asarray(u, dtype=float), np.asarray(s, dtype=float)
    u_low, s_low = ETA @ u, ETA @ s
    # z_i s_j u_k eps^{ijka}
    return forms.xs * u + (forms.y @ u) * s + u_low @ pair_dual(np.outer(forms.z, s_low))


def momentum_long_form(u, s, forms: CompactForms) -> np.ndarray:
    """Same momentum written without the xs shorthand; kept as a cross-check."""
    u, s = np.asarray(u, dtype=float), np.asarray(s, dtype=float)
    u_low, s_low = ETA @ u, ETA @ s
    # z_m u_j s_k eps^{jkma}
    return (
        forms.mass_cos * u
        + (forms.y @ u) * s
        - (forms.y @ s) * u
        - forms.z @ pair_dual(np.outer(u_low, s_low))
    )


def velocity_from_momentum(p, s, forms: CompactForms) -> np.ndarray:
    """Invert the momentum map; only z, s and xs enter.

    With zeta = z / xs and w = zeta + (zeta.s) s, the inverse applied to p is

      xs denom u = p + s (s.p) + w (w.p) + zeta_i s_j eps^{ijka} p_a,
      denom = 1 + zeta.zeta + (zeta.s)^2 = 1 + w.w.

    It annihilates s, so whatever multiple of s the momentum carries (the y.u
    part) cannot and need not be recovered.  The last term is zeta_i s_j p^a,
    zeta and s lowered, times one constant table.  p and s may carry a batch
    shape (..., 4) matching forms; a batch raises if any point fails a guard.
    """
    p, s = np.asarray(p, dtype=float), np.asarray(s, dtype=float)
    xs = np.asarray(forms.xs)
    _require_xs(xs)
    zeta_low = forms.z / xs[..., None]
    s_low = s * ETA_SIGNS
    # denom divides every component, and its three terms may nearly cancel
    # next to a degenerate inversion: form it in long double
    long_low = np.divide(forms.z, xs[..., None], dtype=np.longdouble)
    zs = np.vecdot(long_low, s)
    denom = (1.0 + np.vecdot(long_low, long_low * _ETA_SIGNS_LONG) + zs**2).astype(float)
    vanishing = np.abs(denom) < INVERSION_GUARD
    raise_rows(vanishing, DegenerateInversion, "inversion denominator %.3e vanishes", denom)
    w_low = zeta_low + zs.astype(float)[..., None] * s_low
    triple = zeta_low[..., :, None, None] * s_low[..., None, :, None] * p[..., None, None, :]
    u = p + s * np.vecdot(s_low, p)[..., None]
    u = u + (w_low * ETA_SIGNS) * np.vecdot(w_low, p)[..., None]
    u = u + triple.reshape(triple.shape[:-3] + (64,)) @ _EPS_TRIPLE
    return u / (xs * denom)[..., None]


def nonrel_limit_momentum(velocity3, spin3, grad_log_density3, mass) -> np.ndarray:
    """Slow-motion spatial momentum: m v plus the density-gradient spin curl."""
    grad3, spin3 = np.asarray(grad_log_density3, dtype=float), np.asarray(spin3, dtype=float)
    return mass * np.asarray(velocity3, dtype=float) + np.cross(grad3, spin3)
