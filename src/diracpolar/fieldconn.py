"""Spinor fields on spacetime, backgrounds, and the frame connection.

Fields come in two kinds: analytic superpositions of plane waves, with exact
derivatives, and gridded samples differentiated by central differences.  Both
expose evaluate(x) and partial(x) and everything downstream is agnostic.

The polar jet of a field at a point collects the polar data together with the
first derivatives of every polar variable, including the connection

  g_mu = l_spin^-1 d_mu l_spin

whose coefficients along sigma^{ij} steer the frame: d_mu s_i = r_{ji mu} s^j
and the same for the velocity.  The momentum covector is

  p_mu = d_mu(residual_phase) + trace_part_mu - charge * a_mu

which is invariant under a joint phase/potential gauge shift.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# lorentz_exp is not used here; it stays bound because bench/test_bench.py
# checks that the tracer wraps it in this module
from .algebra import (  # noqa: F401
    ETA,
    SEED_SPINOR,
    boost_reps,
    lorentz_exp,
    mdot,
    rot_z_to_reps,
    spin_inverse,
)
from .errors import OffShell, OutOfDomain, PhaseJump
from .polar import PolarData, polar_decompose, wrap_angle
from .report import IdentityReport

SIGMA_PAIRS = [(i, j) for i in range(4) for j in range(i + 1, 4)]
_PAIR_I, _PAIR_J = np.array(SIGMA_PAIRS).T

# polar_jet's stencil: the point itself, then +e_mu and -e_mu for mu = 0..3
_STENCIL = np.concatenate(
    [np.zeros((1, 4)), np.stack([np.eye(4), -np.eye(4)], axis=1).reshape(8, 4)]
)


class ConstantVector:
    """Spacetime-constant 4-vector potential, raised components."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def value(self, x):
        return self.values

    def shifted(self, delta):
        return ConstantVector(self.values + np.asarray(delta, dtype=float))


class LinearVector:
    """Affine 4-vector potential a^mu(x) = base^mu + slope^{mu nu} x_nu... stored
    as slope[mu][nu] multiplying the coordinate x^nu directly."""

    def __init__(self, base, slope):
        self.base = np.asarray(base, dtype=float)
        self.slope = np.asarray(slope, dtype=float).reshape(4, 4)

    def value(self, x):
        return self.base + self.slope @ np.asarray(x, dtype=float)

    def shifted(self, delta):
        return LinearVector(self.base + np.asarray(delta, dtype=float), self.slope)


@dataclass
class Background:
    mass: float
    charge: float = 0.0
    torsion_coupling: float = 0.0
    em_potential: object = None      # raised components a^mu
    torsion_vector: object = None    # raised components w^mu

    def a_value(self, x):
        return np.zeros(4) if self.em_potential is None else self.em_potential.value(x)

    def w_value(self, x):
        return (
            np.zeros(4) if self.torsion_vector is None else self.torsion_vector.value(x)
        )


@dataclass
class PlaneWaveComponent:
    momentum: np.ndarray    # raised components
    amplitude: np.ndarray   # constant spinor factor


class PlaneWaveField:
    """Finite superposition of plane waves psi0 exp(-i p.x); derivatives are exact."""

    kind = "analytic"

    def __init__(self, components):
        self.components = list(components)
        # one row per component: lowered momenta and amplitudes
        self._p_low = np.array([ETA @ c.momentum for c in self.components]).reshape(-1, 4)
        self._amplitudes = np.array(
            [c.amplitude for c in self.components], dtype=complex
        ).reshape(-1, 4)

    def _phases(self, x):
        return np.exp(-1j * (np.asarray(x, dtype=float) @ self._p_low.T))

    def evaluate(self, x):
        """Field at a point (4,), or at every point of a stack (..., 4)."""
        return self._phases(x) @ self._amplitudes

    def partial(self, x):
        # rows indexed by the derivative direction, phase gradient lowered
        return (-1j * self._p_low.T * self._phases(x)) @ self._amplitudes


def plane_wave(momentum, mass, spin_axis, amplitude, basis) -> PlaneWaveField:
    """Single positive-energy wave with the given rest-frame spin direction.

    The momentum must satisfy the mass shell within 1e-10 and point forward.
    """
    p = np.asarray(momentum, dtype=float)
    residual = abs(mdot(p, p) - mass**2)
    if residual > 1e-10 * max(1.0, mass**2) or p[0] <= 0:
        raise OffShell(
            "momentum fails p.p = m^2 (residual %.3e) or has p0 <= 0" % residual
        )
    boost_spin, _ = boost_reps(p / mass, basis)
    rot_spin, _ = rot_z_to_reps(spin_axis, basis)
    psi0 = amplitude * spin_inverse(rot_spin @ boost_spin, basis) @ SEED_SPINOR
    return PlaneWaveField([PlaneWaveComponent(p, psi0)])


def superpose(*fields) -> PlaneWaveField:
    comps = []
    for f in fields:
        comps.extend(f.components)
    return PlaneWaveField(comps)


class GriddedField:
    """Spinor samples on a regular 4d lattice; evaluation is node-snapped.

    data has shape (n0, n1, n2, n3, 4).  Points are accepted when they land
    on a node within a small fraction of the spacing, otherwise the request
    is refused rather than silently interpolated.
    """

    kind = "grid"

    def __init__(self, origin, spacing, data):
        self.origin = np.asarray(origin, dtype=float)
        self.spacing = np.broadcast_to(np.asarray(spacing, dtype=float), (4,)).copy()
        self.data = np.asarray(data, dtype=complex)
        if self.data.ndim != 5 or self.data.shape[-1] != 4:
            raise ValueError("grid data must have shape (n0, n1, n2, n3, 4)")

    def _index(self, x):
        rel = (np.asarray(x, dtype=float) - self.origin) / self.spacing
        idx = np.rint(rel).astype(int)
        if np.abs(rel - idx).max() > 1e-6:
            raise OutOfDomain("point does not sit on a grid node")
        if np.any(idx < 0) or np.any(idx >= self.data.shape[:4]):
            raise OutOfDomain("point outside the gridded region")
        return tuple(idx)

    def evaluate(self, x):
        return self.data[self._index(x)]

    def partial(self, x):
        idx = self._index(x)
        if any(i == 0 or i == n - 1 for i, n in zip(idx, self.data.shape[:4])):
            raise OutOfDomain("derivative stencil leaves the gridded region")
        out = np.empty((4, 4), dtype=complex)
        for mu in range(4):
            up = list(idx)
            dn = list(idx)
            up[mu] += 1
            dn[mu] -= 1
            out[mu] = (self.data[tuple(up)] - self.data[tuple(dn)]) / (
                2 * self.spacing[mu]
            )
        return out


class BoxWindow:
    """Axis-aligned view of another field; outside the box every request
    fails the same way a grid edge does.  Useful for modelling finite data
    coverage without giving up analytic derivatives inside."""

    def __init__(self, inner, lo, hi):
        self.inner = inner
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.kind = getattr(inner, "kind", "analytic")

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < self.lo) or np.any(x > self.hi):
            raise OutOfDomain("point outside the windowed region")
        return x

    def evaluate(self, x):
        return self.inner.evaluate(self._check(x))

    def partial(self, x):
        return self.inner.partial(self._check(x))


def _evaluate_points(fld, points):
    """Field values at a stack of points (N, 4); plane waves take the stack
    at once, other fields one point at a time."""
    if isinstance(fld, PlaneWaveField):
        return fld.evaluate(points)
    return np.array([fld.evaluate(x) for x in points])


def to_grid(fn, origin, spacing, shape) -> GriddedField:
    """Sample a callable psi(x) -> complex 4-vector on a lattice."""
    origin = np.asarray(origin, dtype=float)
    spacing = np.broadcast_to(np.asarray(spacing, dtype=float), (4,)).copy()
    data = np.empty(tuple(shape) + (4,), dtype=complex)
    for idx in np.ndindex(*shape):
        data[idx] = fn(origin + spacing * np.asarray(idx))
    return GriddedField(origin, spacing, data)


GRID_MAGIC = "# diracpolar grid v1"


def save_grid(path, grid: GriddedField) -> None:
    flat = grid.data.reshape(-1, 4)
    cols = np.column_stack([flat.real, flat.imag])
    with open(path, "w") as fh:
        fh.write(GRID_MAGIC + "\n")
        fh.write("# origin: " + " ".join("%.17g" % v for v in grid.origin) + "\n")
        fh.write("# spacing: " + " ".join("%.17g" % v for v in grid.spacing) + "\n")
        fh.write("# shape: " + " ".join(str(n) for n in grid.data.shape[:4]) + "\n")
        np.savetxt(fh, cols, fmt="%.17g")


def load_grid(path) -> GriddedField:
    with open(path) as fh:
        magic = fh.readline().strip()
        if magic != GRID_MAGIC:
            raise ValueError("not a grid file: bad magic line %r" % magic)
        origin = np.array(fh.readline().split(":", 1)[1].split(), dtype=float)
        spacing = np.array(fh.readline().split(":", 1)[1].split(), dtype=float)
        shape = tuple(int(t) for t in fh.readline().split(":", 1)[1].split())
        cols = np.loadtxt(fh)
    data = (cols[:, :4] + 1j * cols[:, 4:]).reshape(shape + (4,))
    return GriddedField(origin, spacing, data)


def covariant_derivative(fld, bg: Background, x, basis=None):
    """nabla_mu psi = d_mu psi + i charge a_mu psi, rows indexed by mu."""
    psi = fld.evaluate(x)
    a_low = ETA @ bg.a_value(x)
    return fld.partial(x) + 1j * bg.charge * np.outer(a_low, psi)


@dataclass
class TensorialConnection:
    r: np.ndarray                 # r[i, j, mu], antisymmetric in i, j (lowered)
    p: np.ndarray                 # momentum covector, lowered index
    dphase: np.ndarray
    trace_part: np.ndarray
    projection_residual: float

    def axial_dual(self) -> np.ndarray:
        from .algebra import EPS_LOWER

        r_up = np.einsum("ri,aj,nk,ijk->ran", ETA, ETA, ETA, self.r)
        return 0.25 * np.einsum("mran,ran->m", EPS_LOWER, r_up)

    def trace_contraction(self) -> np.ndarray:
        return 0.5 * np.einsum("mrs,rs->m", self.r, ETA)


@dataclass
class PolarJet:
    pd: PolarData
    dchiral: np.ndarray     # d_mu of the chiral angle
    dlogdensity: np.ndarray
    du: np.ndarray          # du[mu, a] = d_mu u^a
    ds: np.ndarray
    tc: TensorialConnection
    x: np.ndarray
    h: float


def polar_jet(fld, bg: Background, basis, x, h=1e-3) -> PolarJet:
    """Polar data and its centered first differences at a point.

    The nine stencil points are decomposed in one batch.
    """
    x = np.asarray(x, dtype=float)
    stencil = polar_decompose(_evaluate_points(fld, x + h * _STENCIL), basis)
    pd0 = stencil[0]

    jumps = wrap_angle(stencil.residual_phase[1:] - pd0.residual_phase)
    jumped = np.flatnonzero(np.abs(jumps) > np.pi / 2)
    if jumped.size:
        raise PhaseJump(
            "residual phase moved by %.3f across one stencil step" % jumps[jumped[0]]
        )

    def central(values, wrap=lambda d: d):
        # rows mu of (values at x + h e_mu - values at x - h e_mu) / 2h
        return wrap(values[1::2] - values[2::2]) / (2 * h)

    dchiral = central(stencil.chiral_angle, wrap_angle)
    dlogden = central(np.log(stencil.density))
    dphase = central(stencil.residual_phase, wrap_angle)
    du = central(stencil.velocity)
    ds = central(stencil.spin)
    g = spin_inverse(pd0.l_spin, basis) @ central(stencil.l_spin)

    # project each g_mu onto the identity and the six sigma^{ij}
    sigma6 = basis.sigma_upper[_PAIR_I, _PAIR_J]
    coeff = np.einsum("pij,mij->mp", sigma6.conj(), g).real
    trace_part = np.trace(g, axis1=1, axis2=2).imag / 4.0
    rebuilt = 1j * trace_part[:, None, None] * basis.identity + np.einsum(
        "mp,pij->mij", coeff, sigma6
    )
    r = np.zeros((4, 4, 4))
    r[_PAIR_I, _PAIR_J] = coeff.T
    r[_PAIR_J, _PAIR_I] = -coeff.T

    p = dphase + trace_part - bg.charge * (ETA @ bg.a_value(x))
    tc = TensorialConnection(
        r=r,
        p=p,
        dphase=dphase,
        trace_part=trace_part,
        projection_residual=float(np.abs(g - rebuilt).max()),
    )
    return PolarJet(
        pd=pd0, dchiral=dchiral, dlogdensity=dlogden, du=du, ds=ds, tc=tc, x=x, h=h
    )


def polar_derivative_operator(jet: PolarJet, basis, mu):
    """Matrix nabla_mu acting on psi when written through polar variables.

    The trace part of the connection sits inside the momentum covector and
    cancels against the frame term, so it appears here only through p.
    """
    op = (
        jet.dlogdensity[mu] * basis.identity
        - 0.5j * jet.dchiral[mu] * basis.pi
        - 1j * jet.tc.p[mu] * basis.identity
    )
    for (i, j) in SIGMA_PAIRS:
        op = op - jet.tc.r[i, j, mu] * basis.sigma_upper[i, j]
    return op


def verify_polar_derivative(jet: PolarJet, fld, bg, basis):
    """Residual per direction between nabla_mu psi computed from the field and
    from the polar variables of jet, at jet.x; normalized by the spinor
    magnitude."""
    psi = fld.evaluate(jet.x)
    direct = covariant_derivative(fld, bg, jet.x)
    scale = np.linalg.norm(psi)
    out = np.zeros(4)
    for mu in range(4):
        # the charge term enters through p, so compare against the full
        # covariant derivative
        via_polar = polar_derivative_operator(jet, basis, mu) @ psi
        out[mu] = np.abs(via_polar - direct[mu]).max() / scale
    return out


def verify_transport(jet: PolarJet, basis) -> IdentityReport:
    """Frame steering of the velocity and spin by the connection coefficients."""
    u_low_d = jet.du @ ETA        # rows mu, columns lowered a
    s_low_d = jet.ds @ ETA
    u_up = jet.pd.velocity
    s_up = jet.pd.spin
    rep = IdentityReport()
    worst_u = 0.0
    worst_s = 0.0
    for mu in range(4):
        pred_u = np.einsum("j,ji->i", u_up, jet.tc.r[:, :, mu])
        pred_s = np.einsum("j,ji->i", s_up, jet.tc.r[:, :, mu])
        worst_u = max(worst_u, np.abs(u_low_d[mu] - pred_u).max())
        worst_s = max(worst_s, np.abs(s_low_d[mu] - pred_s).max())
    rep.add("velocity_transport", worst_u)
    rep.add("spin_transport", worst_s)
    return rep


def gauge_shift_linear(fld: PlaneWaveField, bg: Background, c):
    """Joint shift psi -> exp(-i q c.x) psi, a -> a + c leaving the momentum
    covector invariant.  c carries raised components."""
    c = np.asarray(c, dtype=float)
    comps = [
        PlaneWaveComponent(comp.momentum + bg.charge * c, comp.amplitude.copy())
        for comp in fld.components
    ]
    pot = bg.em_potential if bg.em_potential is not None else ConstantVector(np.zeros(4))
    new_bg = Background(
        mass=bg.mass,
        charge=bg.charge,
        torsion_coupling=bg.torsion_coupling,
        em_potential=pot.shifted(c),
        torsion_vector=bg.torsion_vector,
    )
    return PlaneWaveField(comps), new_bg
