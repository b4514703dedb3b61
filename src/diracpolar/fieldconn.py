"""Spinor fields on spacetime, backgrounds, and the frame connection.

Fields come in two kinds: analytic superpositions of plane waves, with exact
derivatives, and gridded samples differentiated by central differences.  Both
expose evaluate(x) and partial(x) and everything downstream is agnostic.
Both take a point (4,) or a stack of points (..., 4); partial puts the
derivative direction mu right after the batch axes.

The polar jet of a field at a point collects the local polar variables and
the first derivatives of every polar variable, including the connection

  g_mu = l_spin^-1 d_mu l_spin

whose coefficients along sigma^{ij} steer the frame: d_mu s_i = r_{ji mu} s^j
and the same for the velocity.  The momentum covector is

  p_mu = d_mu(residual_phase) + trace_part_mu - charge * a_mu

which is invariant under a joint phase/potential gauge shift.

Two functions build a jet.  derivative_jet is exact: it takes the field and
its covariant derivative at the point, pairs both with the density matrices
in one contraction and differentiates the closed forms; it decomposes
nothing.  polar_jet differences the polar variables over a nine-point
stencil of step h, needs only evaluate, and checks the exact jet.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# lorentz_exp is not used here; it stays bound because bench/test_bench.py
# checks that the tracer wraps it in this module
from .algebra import (  # noqa: F401
    EPS_LOWER,
    ETA,
    ETA_SIGNS,
    PAIR_I,
    PAIR_J,
    SEED_SPINOR,
    boost_reps,
    boost_vec_jet,
    lorentz_exp,
    mdot,
    rot_z_to_connection,
    rot_z_to_reps,
    spin_inverse,
)
from .errors import OffShell, OutOfDomain, PhaseJump
from .bilinears import Densities
from .polar import polar_decompose, polar_variables, wrap_angle

# polar_jet's stencil: the point itself, then +e_mu and -e_mu for mu = 0..3
_STENCIL = np.concatenate(
    [np.zeros((1, 4)), np.stack([np.eye(4), -np.eye(4)], axis=1).reshape(8, 4)]
)

# unit steps along mu = 0..3, one row each
_STEPS = np.eye(4, dtype=int)

# TensorialConnection's contractions of r[..., i, j, mu] flattened to
# (..., 64): eps_m^{ij mu} r_{ij mu} / 4, all three indices raised by their
# signs, and eta^{j mu} r_{i j mu} / 2
_AXIAL_DUAL = 0.25 * np.einsum(
    "mijk,i,j,k->ijkm", EPS_LOWER, ETA_SIGNS, ETA_SIGNS, ETA_SIGNS
).reshape(64, 4)
_TRACE_CONTRACTION = 0.5 * np.einsum(
    "im,jk,j->ijkm", np.eye(4), np.eye(4), ETA_SIGNS
).reshape(64, 4)


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
        """Potential at a point (4,), or at every point of a stack (..., 4)."""
        return self.base + np.asarray(x, dtype=float) @ self.slope.T

    def shifted(self, delta):
        return LinearVector(self.base + np.asarray(delta, dtype=float), self.slope)


@dataclass
class Background:
    """Mass, couplings and potentials.  a_value and w_value take a point or a
    stack of points; a constant or absent potential comes back as one (4,)
    vector, which broadcasts against the stack."""

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
        """d_mu psi at a point (4,) or at every point of a stack (..., 4)."""
        # rows indexed by the derivative direction, phase gradient lowered
        phases = self._phases(x)[..., None, :]
        return (-1j * self._p_low.T * phases) @ self._amplitudes


def require_on_shell(momentum, mass) -> None:
    """Raise OffShell unless the momentum (4,), or every momentum of a stack
    (..., 4), satisfies the mass shell within 1e-10 and points forward."""
    p = np.asarray(momentum, dtype=float)
    residual = np.abs(mdot(p, p) - mass**2)
    off = (residual > 1e-10 * max(1.0, mass**2)) | (p[..., 0] <= 0)
    if np.any(off):
        raise OffShell(
            "momentum fails p.p = m^2 (residual %.3e) or has p0 <= 0" % residual[off][0]
        )


def plane_wave(momentum, mass, spin_axis, amplitude, basis) -> PlaneWaveField:
    """Positive-energy wave with the given rest-frame spin direction, or one
    wave per row of momenta (n, 4), spin axes (n, 3) and amplitudes (n,), all
    framed in one call.

    Every momentum must satisfy the mass shell within 1e-10 and point forward.
    """
    p = np.asarray(momentum, dtype=float)
    require_on_shell(p, mass)
    boost_spin, _ = boost_reps(p / mass, basis)
    rot_spin, _ = rot_z_to_reps(spin_axis, basis)
    frame = spin_inverse(rot_spin @ boost_spin, basis) @ SEED_SPINOR
    psi0 = np.asarray(amplitude)[..., None] * frame
    return PlaneWaveField(map(PlaneWaveComponent, p.reshape(-1, 4), psi0.reshape(-1, 4)))


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

    def __init__(self, origin, spacing, data):
        self.origin = np.asarray(origin, dtype=float)
        self.spacing = np.broadcast_to(np.asarray(spacing, dtype=float), (4,)).copy()
        self.data = np.asarray(data, dtype=complex)
        if self.data.ndim != 5 or self.data.shape[-1] != 4:
            raise ValueError("grid data must have shape (n0, n1, n2, n3, 4)")

    def _index(self, x):
        """Node index of a point, or index arrays of a stack of points."""
        rel = (np.asarray(x, dtype=float) - self.origin) / self.spacing
        idx = np.rint(rel).astype(int)
        if np.abs(rel - idx).max() > 1e-6:
            raise OutOfDomain("point does not sit on a grid node")
        if np.any(idx < 0) or np.any(idx >= self.data.shape[:4]):
            raise OutOfDomain("point outside the gridded region")
        return tuple(np.moveaxis(idx, -1, 0))

    def evaluate(self, x):
        """Field at a node (4,), or at every node of a stack (..., 4)."""
        return self.data[self._index(x)]

    def partial(self, x):
        """Central differences at a node (4,) or at every node of a stack
        (..., 4); a stack raises OutOfDomain if any of its stencils leaves
        the grid."""
        idx = np.stack(self._index(x), axis=-1)
        if np.any(idx == 0) or np.any(idx == np.array(self.data.shape[:4]) - 1):
            raise OutOfDomain("derivative stencil leaves the gridded region")
        # neighbour nodes along each mu, with mu right after the batch axes
        up = tuple(np.moveaxis(idx[..., None, :] + _STEPS, -1, 0))
        dn = tuple(np.moveaxis(idx[..., None, :] - _STEPS, -1, 0))
        return (self.data[up] - self.data[dn]) / (2 * self.spacing[:, None])


class BoxWindow:
    """Axis-aligned view of another field; outside the box every request
    fails the same way a grid edge does.  Useful for modelling finite data
    coverage without giving up analytic derivatives inside."""

    def __init__(self, inner, lo, hi):
        self.inner = inner
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < self.lo) or np.any(x > self.hi):
            raise OutOfDomain("point outside the windowed region")
        return x

    def evaluate(self, x):
        return self.inner.evaluate(self._check(x))

    def partial(self, x):
        """Inner derivative at a point (4,) or a stack (..., 4); a stack
        raises OutOfDomain if any of its points leaves the box."""
        return self.inner.partial(self._check(x))


def to_grid(fn, origin, spacing, shape) -> GriddedField:
    """Sample a callable psi(x) on a lattice.  fn is called once, on the
    stack of every node (n0, n1, n2, n3, 4), and returns the complex
    4-spinors of the same leading shape."""
    origin = np.asarray(origin, dtype=float)
    spacing = np.broadcast_to(np.asarray(spacing, dtype=float), (4,)).copy()
    nodes = origin + spacing * np.stack(np.indices(tuple(shape)), axis=-1)
    return GriddedField(origin, spacing, fn(nodes))


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


def covariant_derivative(fld, bg: Background, x, psi=None):
    """nabla_mu psi = d_mu psi + i charge a_mu psi at a point (4,) or at every
    point of a stack (..., 4), with mu right after the batch axes.  psi, the
    field at x, is evaluated here unless the caller passes it."""
    if psi is None:
        psi = fld.evaluate(x)
    a_low = bg.a_value(x) * ETA_SIGNS
    return fld.partial(x) + 1j * bg.charge * a_low[..., :, None] * psi[..., None, :]


@dataclass
class FieldSample:
    """A field and its covariant derivative at a point (4,) or at every point
    of a stack (..., 4): the inputs every exact balance check shares."""

    x: np.ndarray
    psi: np.ndarray       # (..., 4)
    grad: np.ndarray      # (..., mu, 4)


def sample_field(fld, bg: Background, x) -> FieldSample:
    x = np.asarray(x, dtype=float)
    psi = fld.evaluate(x)
    return FieldSample(x=x, psi=psi, grad=covariant_derivative(fld, bg, x, psi))


def density_products(psi, grad, rows):
    """psi^dagger M nabla_mu psi for every matrix M of a stack (k, 4, 4), as
    an array (..., k, mu): psi is (..., 4), grad (..., mu, 4) and rows the
    stack side by side (4, 4k), as algebra.side_by_side lays it out.

    For M = gamma^0 N with gamma^0 N hermitian, twice the real part is d_mu
    of the density adj(psi) N psi by the product rule; the charge terms of a
    covariant derivative cancel in it.
    """
    products = psi.conj() @ rows
    return products.reshape(psi.shape[:-1] + (-1, 4)) @ grad.swapaxes(-1, -2)


@dataclass
class TensorialConnection:
    """Connection at a point, or at every point of a batch (leading axes)."""

    r: np.ndarray                 # r[..., i, j, mu], antisymmetric in i, j (lowered)
    p: np.ndarray                 # momentum covector, lowered index
    dphase: np.ndarray
    trace_part: np.ndarray
    projection_residual: float    # one per point of a batch

    def axial_dual(self) -> np.ndarray:
        return self.r.reshape(self.r.shape[:-3] + (64,)) @ _AXIAL_DUAL

    def trace_contraction(self) -> np.ndarray:
        return self.r.reshape(self.r.shape[:-3] + (64,)) @ _TRACE_CONTRACTION


@dataclass
class PolarJet:
    """Local polar variables and their first derivatives at a point, or at
    every point of a batch, with the direction mu right after the batch axes;
    the frame and the residual phase enter only through r and p."""

    density: np.ndarray
    chiral_angle: np.ndarray
    velocity: np.ndarray    # unit timelike, raised index
    spin: np.ndarray        # unit spacelike, raised index
    dchiral: np.ndarray     # d_mu of the chiral angle
    dlogdensity: np.ndarray
    du: np.ndarray          # du[mu, a] = d_mu u^a
    ds: np.ndarray
    tc: TensorialConnection
    x: np.ndarray


def derivative_jet(fld, bg: Background, basis, x, sample=None) -> PolarJet:
    """Polar data and its exact first derivatives at a point x (4,), or at
    every point of a stack (..., 4), whose batch shape the jet then carries.

    It needs the field and its covariant derivative at x, from one
    sample_field unless the caller passes the sample, and pairs them with the
    matrices of basis.jet_rows in one contraction per point:
      - the density, chiral angle, velocity and spin come from S, P, U and A
        (polar_variables), their derivatives from the product rule;
      - the connection is r_mu = l_vec^T eta d_mu l_vec, differentiated
        through the closed forms of the boost and the minimal rotation, so
        trace_part and projection_residual are 0;
      - what remains of nabla psi once the known part is taken off lies
        along i psi, and its coefficient is -p.
    """
    if sample is None:
        sample = sample_field(fld, bg, x)
    psi, grad = sample.psi, sample.grad
    batch = psi.shape[:-1]

    # psi^dagger M [psi, nabla_mu psi] for the matrices M of basis.jet_rows:
    # the densities, then one column per mu.  Row 2 is gamma^0 gamma^0 = 1,
    # so it also holds psi^dagger nabla_mu psi
    columns = np.concatenate([psi[..., None, :], grad], axis=-2)
    products = density_products(psi, columns, basis.jet_rows)
    values = products[..., :10, 0].real
    density, chiral, u, s = polar_variables(Densities.from_values(values))
    d = 2.0 * products[..., :10, 1:].real
    mod = 2.0 * density**2      # |(S, P)|
    # d log(S + i P) = d log|(S, P)| + i d(chiral angle)
    dlog = (d[..., 0, :] + 1j * d[..., 1, :]) / (values[..., 0] + 1j * values[..., 1])[..., None]
    dlogmod, dchiral = dlog.real, dlog.imag
    # d_mu of (u, s) = (U, A) / |(S, P)|, from the rows (a, mu) of dU and dA
    dunit = d[..., 2:10, :] - values[..., 2:10, None] * dlogmod[..., None, :]
    dunit = dunit.swapaxes(-1, -2) / mod[..., None, None]
    du, ds = dunit[..., :4], dunit[..., 4:]

    # l_vec = R B: the rest spin t = (B s)_spatial steers R, and with B
    # symmetric, l_vec^T eta d l_vec = B (R^T eta dR B + eta dB)
    boost, dboost = boost_vec_jet(u, du)
    spatial = boost[..., 1:, :]
    t = (spatial @ s[..., None])[..., 0]
    dt = (dboost[..., 1:, :] @ s[..., None, :, None])[..., 0] + ds @ spatial.swapaxes(-1, -2)
    rotation = rot_z_to_connection(t, dt)
    b = boost[..., None, :, :]
    conn = b @ (rotation @ b + ETA @ dboost)

    # nabla psi = (K - i p) psi with the known part
    #   K = dlogdensity - i dchiral pi / 2 - r_{ij} sigma^{ij} / 2,
    # so p = -Im(psi^dagger nabla psi - psi^dagger K psi) / psi^dagger psi,
    # with psi^dagger psi = U^0; known = -Im(psi^dagger K psi)
    known = 0.5 * dchiral * products[..., 10, :1].real
    known = known + (conn[..., PAIR_I, PAIR_J] @ products[..., 11:, :1].imag)[..., 0]
    p = -(products[..., 2, 1:].imag + known) / values[..., 2, None]

    tc = TensorialConnection(
        r=conn.transpose(*range(len(batch)), -2, -1, -3),
        p=p,
        dphase=p + bg.charge * (bg.a_value(sample.x) * ETA_SIGNS),
        trace_part=np.zeros_like(p),
        projection_residual=np.zeros(batch)[()],
    )
    return PolarJet(density, chiral, u, s, dchiral, 0.5 * dlogmod, du, ds, tc, sample.x)


def polar_jet(fld, bg: Background, basis, x, h=1e-3) -> PolarJet:
    """Polar data and its centered first differences at a point x (4,), or at
    every point of a stack (..., 4), whose batch shape the jet then carries.

    The nine stencil points of every point are decomposed in one batch.
    """
    x = np.asarray(x, dtype=float)
    batch = x.ndim - 1
    # stencil axis first, so that stencil[k] is stencil point k of every point
    points = x + h * _STENCIL.reshape((9,) + (1,) * batch + (4,))
    stencil = polar_decompose(fld.evaluate(points), basis)
    pd0 = stencil[0]

    # (chiral, phase) and (chiral - 2 pi, phase + pi) are the same spinor:
    # take every stencil point to the chiral branch of the centre
    turns = np.rint((stencil.chiral_angle - pd0.chiral_angle) / (2 * np.pi))
    chiral = stencil.chiral_angle - 2 * np.pi * turns
    phase = stencil.residual_phase + np.pi * turns

    jumps = wrap_angle(phase[1:] - pd0.residual_phase)
    jumped = np.abs(jumps) > np.pi / 2
    if jumped.any():
        raise PhaseJump(
            "residual phase moved by %.3f across one stencil step" % jumps[jumped][0]
        )

    def central(values, wrap=lambda d: d):
        # (values at x + h e_mu - values at x - h e_mu) / 2h, mu behind the batch axes
        diff = wrap(values[1::2] - values[2::2]) / (2 * h)
        return np.moveaxis(diff, 0, batch) if batch else diff

    dchiral = central(chiral)
    dlogden = central(np.log(stencil.density))
    dphase = central(phase, wrap_angle)
    du = central(stencil.velocity)
    ds = central(stencil.spin)
    g = spin_inverse(pd0.l_spin, basis)[..., None, :, :] @ central(stencil.l_spin)

    # project each g_mu onto the identity and the six sigma^{ij}
    sigma6 = basis.sigma_upper[PAIR_I, PAIR_J]
    coeff = np.einsum("pij,...mij->...mp", sigma6.conj(), g).real
    trace_part = np.trace(g, axis1=-2, axis2=-1).imag / 4.0
    rebuilt = 1j * trace_part[..., None, None] * basis.identity + np.einsum(
        "...mp,pij->...mij", coeff, sigma6
    )
    r = np.zeros(x.shape[:-1] + (4, 4, 4))
    r[..., PAIR_I, PAIR_J, :] = np.swapaxes(coeff, -1, -2)
    r[..., PAIR_J, PAIR_I, :] = -np.swapaxes(coeff, -1, -2)

    p = dphase + trace_part - bg.charge * (bg.a_value(x) * ETA_SIGNS)
    tc = TensorialConnection(
        r=r,
        p=p,
        dphase=dphase,
        trace_part=trace_part,
        projection_residual=np.abs(g - rebuilt).max(axis=(-3, -2, -1)),
    )
    return PolarJet(
        pd0.density, pd0.chiral_angle, pd0.velocity, pd0.spin, dchiral, dlogden, du, ds, tc, x
    )


def polar_derivative_operator(jet: PolarJet, basis):
    """Matrices nabla_mu acting on psi when written through polar variables,
    one per direction mu, right after the jet's batch axes.

    The trace part of the connection sits inside the momentum covector and
    cancels against the frame term, so it appears here only through p.
    """
    sigma6 = basis.sigma_upper[PAIR_I, PAIR_J]
    diagonal = (jet.dlogdensity - 1j * jet.tc.p)[..., None, None] * basis.identity
    return (
        diagonal
        - 0.5j * jet.dchiral[..., None, None] * basis.pi
        - np.einsum("...pm,pij->...mij", jet.tc.r[..., PAIR_I, PAIR_J, :], sigma6)
    )


def verify_polar_derivative(jet: PolarJet, fld, bg, basis, sample=None):
    """Residual per direction between nabla_mu psi computed from the field and
    from the polar variables of jet, at jet.x; normalized by the spinor
    magnitude.  sample is the field at jet.x when the caller has it."""
    if sample is None:
        sample = sample_field(fld, bg, jet.x)
    psi = sample.psi
    # the charge term enters through p, so compare against the full
    # covariant derivative
    via_polar = (polar_derivative_operator(jet, basis) @ psi[..., None, :, None])[..., 0]
    scale = np.linalg.norm(psi, axis=-1)[..., None]
    return np.abs(via_polar - sample.grad).max(axis=-1) / scale


def verify_transport(jet: PolarJet, basis) -> dict:
    """Frame steering of the velocity and spin by the connection coefficients;
    one residual per point for a batched jet."""
    out = {}
    for name, up, derivative in (
        ("velocity_transport", jet.velocity, jet.du),
        ("spin_transport", jet.spin, jet.ds),
    ):
        # d_mu v_i against v^j r_{ji mu}, rows mu, columns lowered i
        predicted = np.einsum("...j,...jim->...mi", up, jet.tc.r)
        out[name] = np.abs(derivative * ETA_SIGNS - predicted).max(axis=(-2, -1))[()]
    return out


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
