"""Spinor fields on spacetime, backgrounds, and the frame connection.

Fields come in two kinds: analytic superpositions of plane waves, with exact
derivatives, and gridded samples differentiated by central differences.  Both
expose evaluate(x), partial(x) and block(x), which stacks psi and d_0 psi ...
d_3 psi as (..., 5, 4); everything downstream is agnostic.  All take a point
(4,) or a stack (..., 4); partial puts mu right after the batch axes.  Every
density product psi^dagger M [psi, d_mu psi] is density_products of the
field's own spinors, so its rounding is relative to |psi| and to |d_mu psi|,
also next to a node of the field.

The polar jet of a field at a point collects the local polar variables and
the first derivatives of every polar variable, including the connection

  g_mu = l_spin^-1 d_mu l_spin

whose coefficients along sigma^{ij} steer the frame: d_mu s_i = r_{ji mu} s^j
and the same for the velocity.  The momentum covector is

  p_mu = d_mu(residual_phase) + trace_part_mu - charge * a_mu

with trace_part_mu = Im tr(g_mu) / 4; p is invariant under a joint
phase/potential gauge shift.  A jet carries p_mu as p[..., mu] and r_{ij mu},
as r[..., mu, i, j], through its transport terms; it forms r on demand.

u and s fix r up to a turn about the spin, the frame gauge; a turn by c_mu
moves p by c_mu / 2 and leaves nabla psi as it is.  Two functions build a
jet, in two gauges.  derivative_jet is exact: it contracts psi and its
covariant derivative, from sample_field, with the ten density matrices behind
S, P, U and A and differentiates the closed forms; it decomposes nothing and
sets the turn to 0, the transport gauge.  polar_jet differences the polar
variables of polar_decompose, whose frame is the boost and the minimal
rotation, over a nine-point stencil of step h; it needs only evaluate and,
with its turn about the spin taken out, checks the exact jet.
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
    connection_from_transport,
    lorentz_exp,
    mdot,
    rot_z_to_reps,
    spin_inverse,
    transport_terms,
)
from .errors import OffShell, OutOfDomain, PhaseJump, raise_rows
from .bilinears import Densities, density_products
from .polar import polar_decompose, polar_variables, wrap_angle

# polar_jet's stencil: the point itself, then +e_mu and -e_mu for mu = 0..3
_STENCIL = np.concatenate(
    [np.zeros((1, 4)), np.stack([np.eye(4), -np.eye(4)], axis=1).reshape(8, 4)]
)

# unit steps along mu = 0..3, one row each
_STEPS = np.eye(4, dtype=int)

# the largest |p_mu| / mass of a wave: a lone wave is regular only up to about
# 1e5, and past 1e10 the Dirac residual's norm overflows at the largest mass
BOOST_MAX = 1e8

# CONNECTION_TABLE takes transport terms a, flattened to (..., 64), to what the
# guidance path reads of r = connection_from_transport(a), in one exact product:
# eps_m^{ij mu} r_{ij mu} / 4 (all raised by their signs) for y, -eta^{j mu}
# r_{i j mu} / 2 for z and r_{jk mu} / 2, (j, k) = (2, 3), (3, 1), (1, 2), for p.
# Its rows are those contractions of the r of each unit transport term
_UNIT_R = connection_from_transport(np.eye(64).reshape(64, 4, 4, 4))
CONNECTION_TABLE = np.hstack([
    0.25 * np.einsum("amij,kijm,i,j,m->ak", _UNIT_R, EPS_LOWER, *[ETA_SIGNS] * 3),
    -0.5 * np.einsum("ajij,j->ai", _UNIT_R, ETA_SIGNS),
    0.5 * _UNIT_R[:, :, [2, 3, 1], [3, 1, 2]].reshape(64, 12),
])
CONNECTION_TABLE.setflags(write=False)


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
        # a_k, then -i p_k mu a_k for mu = 0..3: what each phase multiplies in
        # psi and in d_mu psi, (5, n, 4)
        self._block_amplitudes = np.concatenate(
            [self._amplitudes[None], -1j * self._p_low.T[:, :, None] * self._amplitudes]
        )

    def _phases(self, x):
        return np.exp(-1j * (np.asarray(x, dtype=float) @ self._p_low.T))

    def evaluate(self, x):
        """Field at a point (4,), or at every point of a stack (..., 4)."""
        # a (1, n) row of phases times (n, 4) also at a single point, the
        # matrix product block forms
        return (self._phases(x)[..., None, :] @ self._amplitudes)[..., 0, :]

    # bench/tracer.py looks this method up by name; the package reads block
    def partial(self, x):
        """d_mu psi at a point (4,) or at every point of a stack (..., 4)."""
        return self.block(x)[..., 1:, :]

    def block(self, x):
        """psi and d_mu psi from one set of phases, (..., 5, 4), in one
        product; its psi row is the product evaluate forms, so it carries the
        same bits."""
        return (self._phases(x)[..., None, None, :] @ self._block_amplitudes)[..., 0, :]


def require_on_shell(momentum, mass) -> None:
    """Raise OffShell naming every momentum (..., 4) that points backward or
    misses the mass shell by more than both 1e-10 * max(1, mass^2) and 4 eps
    (p0^2 + |p|^2), twice its rounding, the larger from |p| of about 1e3 mass
    on.  It is tested in units of a power of two s, s <= max(mass, |p_mu|) <
    2s: the scaling is exact, so the test rounds as on p itself, and no
    square overflows.  A residual that is not finite fails."""
    p = np.asarray(momentum, dtype=float)
    s = np.ldexp(1.0, np.frexp(np.maximum(mass, np.abs(p).max(axis=-1)))[1] - 1)
    q = p / s[..., None]
    residual = np.abs(mdot(q, q) - (mass / s) ** 2)
    rounding = 4.0 * np.finfo(float).eps * np.vecdot(q, q)
    # |p.p - m^2| <= 1e-10 max(1, m^2), with s^2 = min(1, s)^2 max(1, s)^2 split
    # between the two sides so that neither overflows
    bound = 1e-10 * (max(1.0, mass) / np.maximum(1.0, s)) ** 2
    on = ((residual * np.minimum(1.0, s) ** 2 <= bound) | (residual <= rounding)) & (p[..., 0] > 0)
    with np.errstate(over="ignore"):    # the residual as printed, inf past the largest float
        shown = residual * s * s
    raise_rows(~on, OffShell, "momentum fails p.p = m^2 (residual %.3e) or has p0 <= 0", shown)


def plane_wave(momentum, mass, spin_axis, amplitude, basis) -> PlaneWaveField:
    """Positive-energy wave with the given rest-frame spin direction, or one
    wave per row of momenta (n, 4), spin axes (n, 3) and amplitudes (n,), all
    framed in one call.

    Each momentum must pass require_on_shell and stay within BOOST_MAX times the mass.
    """
    p = np.asarray(momentum, dtype=float)
    require_on_shell(p, mass)
    beyond = np.abs(p).max(axis=-1) > BOOST_MAX * mass
    raise_rows(beyond, OffShell, "momentum: a component exceeds %.0e times the mass" % BOOST_MAX)
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
        off = np.abs(rel - idx).max(axis=-1) > 1e-6
        raise_rows(off, OutOfDomain, "point does not sit on a grid node")
        outside = (idx < 0) | (idx >= self.data.shape[:4])
        raise_rows(outside.any(axis=-1), OutOfDomain, "point outside the gridded region")
        return tuple(np.moveaxis(idx, -1, 0))

    def evaluate(self, x):
        """Field at a node (4,), or at every node of a stack (..., 4)."""
        return self.data[self._index(x)]

    def partial(self, x):
        """Central differences at a node (4,) or at every node of a stack
        (..., 4); a stack raises OutOfDomain if any of its stencils leaves
        the grid."""
        idx = np.stack(self._index(x), axis=-1)
        edge = (idx == 0) | (idx == np.array(self.data.shape[:4]) - 1)
        raise_rows(edge.any(axis=-1), OutOfDomain, "derivative stencil leaves the gridded region")
        # neighbour nodes along each mu, with mu right after the batch axes
        up = tuple(np.moveaxis(idx[..., None, :] + _STEPS, -1, 0))
        dn = tuple(np.moveaxis(idx[..., None, :] - _STEPS, -1, 0))
        return (self.data[up] - self.data[dn]) / (2 * self.spacing[:, None])

    def block(self, x):
        return np.concatenate([self.evaluate(x)[..., None, :], self.partial(x)], axis=-2)


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
        outside = (x < self.lo) | (x > self.hi)
        raise_rows(outside.any(axis=-1), OutOfDomain, "point outside the windowed region")
        return x

    def evaluate(self, x):
        return self.inner.evaluate(self._check(x))

    def block(self, x):
        return self.inner.block(self._check(x))


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


@dataclass
class FieldSample:
    """psi and nabla_mu psi at x (4,) or (..., 4), for every exact check to share."""

    x: np.ndarray
    block: np.ndarray     # (..., 5, 4): psi, then nabla_0 psi ... nabla_3 psi

    @property
    def psi(self):
        return self.block[..., 0, :]

    @property
    def grad(self):
        """(..., 4, 4): mu, then the spinor index."""
        return self.block[..., 1:, :]


def sample_field(fld, bg: Background, x) -> FieldSample:
    """The field's block, with i charge a_mu psi added to d_mu psi at nonzero charge."""
    x = np.asarray(x, dtype=float)
    sample = FieldSample(x, fld.block(x))
    if bg.charge:
        grad, psi = sample.grad, sample.psi
        grad += 1j * bg.charge * (bg.a_value(x) * ETA_SIGNS)[..., :, None] * psi[..., None, :]
    return sample


def covariant_derivative(fld, bg: Background, x):
    """nabla_mu psi at x, mu right after the batch axes: sample_field's grad."""
    return sample_field(fld, bg, x).grad


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
    transport: np.ndarray   # a[mu, i, j], raised: r = a - a^T, lowered
    p: np.ndarray           # momentum covector, lowered
    x: np.ndarray

    def __post_init__(self):
        """contractions: the parts of r the guidance path reads, one product."""
        flat = self.transport.reshape(self.transport.shape[:-3] + (64,))
        self.contractions = flat @ CONNECTION_TABLE

    @property
    def r(self):    # r[mu, i, j] = r_{ij mu}, antisymmetric in i, j, lowered
        return connection_from_transport(self.transport)


def derivative_jet(fld, bg: Background, basis, x, sample=None) -> PolarJet:
    """Polar data and its exact first derivatives at a point x (4,), or at
    every point of a stack (..., 4), whose batch shape the jet then carries.

    It needs the field and its covariant derivative at x, from one
    sample_field unless the caller passes the sample, and pairs them with the
    ten density matrices M of basis.jet_rows in one density_products call:
      - the density, chiral angle, velocity and spin come from S, P, U and A
        (polar_variables), their derivatives from the product rule;
      - the connection r is frame_connection of u, s and their
        derivatives: the transport of u and s, with no turn about the spin
        (the transport gauge, which needs no frame); the jet keeps the
        transport terms and reads p's part of r through CONNECTION_TABLE;
      - what remains of nabla psi once the known part is taken off lies
        along i psi, and its coefficient is -p, in the same gauge as r.
    """
    if sample is None:
        sample = sample_field(fld, bg, x)
    # psi^dagger M [psi, nabla_mu psi]: the densities, then one column per
    # mu.  Row 2 is gamma^0 gamma^0 = 1, so it also holds psi^dagger nabla_mu psi
    products = density_products(sample.psi, sample.block, basis.jet_rows)
    values = products[..., 0].real
    density, chiral, u, s = polar_variables(Densities.from_values(values))
    # half the product-rule derivatives, rows (S, P, U, A), columns mu; halving is exact
    half_d = products[..., 1:].real
    # d log(S + i P) / 2 = d log(density) + i d(chiral angle) / 2
    half_dlog = half_d[..., 0, :] + 1j * half_d[..., 1, :]
    half_dlog = half_dlog / (values[..., 0] + 1j * values[..., 1])[..., None]
    dlogdensity, half_dchiral = half_dlog.real, half_dlog.imag
    # d_mu of (u, s) = (U, A) / |(S, P)|, |(S, P)| = 2 density^2
    dunit = half_d[..., 2:10, :] - values[..., 2:10, None] * dlogdensity[..., None, :]
    dunit = dunit.swapaxes(-1, -2) / (density**2)[..., None, None]
    du, ds = dunit[..., :4], dunit[..., 4:]

    jet = PolarJet(density, chiral, u, s, 2.0 * half_dchiral, dlogdensity, du, ds,
                   transport_terms(u, du, s, ds), None, sample.x)

    # nabla psi = (K - i p) psi with the known part
    #   K = dlogdensity - i dchiral pi / 2 - r_{ij} sigma^{ij} / 2,
    # so p = -Im(psi^dagger nabla psi - psi^dagger K psi) / psi^dagger psi,
    # with psi^dagger psi = U^0.  known = -Im(psi^dagger K psi) needs no more
    # products: psi^dagger pi psi = A^0, psi^dagger sigma^{0i} psi is real, and
    # sigma^{12}, sigma^{31}, sigma^{23} = -i gamma^0 gamma^{3, 2, 1} pi / 2 give
    # Im psi^dagger sigma^{jk} psi = -A^l / 2 for (j, k, l) cyclic
    half_cyclic = jet.contractions[..., 8:].reshape(du.shape[:-1] + (3,))
    minus_known = (half_cyclic @ values[..., 7:10, None])[..., 0]
    minus_known = minus_known - half_dchiral * values[..., 6, None]
    jet.p = (minus_known - products[..., 2, 1:].imag) / values[..., 2, None]
    return jet


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

    # project each g_mu onto the identity and the six sigma^{ij}, tr(sigma^ij^dagger
    # g_mu); the trace part joins the phase gradient in p
    sigma6 = basis.sigma_pairs.reshape(6, 16)
    coeff = (g.reshape(g.shape[:-2] + (16,)) @ sigma6.conj().T).real
    trace_part = np.trace(g, axis1=-2, axis2=-1).imag / 4.0
    transport = np.zeros(x.shape[:-1] + (4, 4, 4))
    transport[..., PAIR_I, PAIR_J] = coeff * ETA_SIGNS[PAIR_I] * ETA_SIGNS[PAIR_J]

    p = dphase + trace_part - bg.charge * (bg.a_value(x) * ETA_SIGNS)
    return PolarJet(
        pd0.density, pd0.chiral_angle, pd0.velocity, pd0.spin, dchiral, dlogden, du, ds,
        transport, p, x,
    )


def polar_derivative_operator(jet: PolarJet, basis):
    """Matrices nabla_mu acting on psi when written through polar variables,
    one per direction mu, right after the jet's batch axes.

    The trace part of the connection sits inside the momentum covector and
    cancels against the frame term, so it appears here only through p.
    """
    r6 = jet.r[..., PAIR_I, PAIR_J]
    connection = (r6 @ basis.sigma_pairs.reshape(6, 16)).reshape(r6.shape[:-1] + (4, 4))
    diagonal = (jet.dlogdensity - 1j * jet.p)[..., None, None] * basis.identity
    return diagonal - 0.5j * jet.dchiral[..., None, None] * basis.pi - connection


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


def verify_transport(jet: PolarJet) -> dict:
    """Frame steering of the velocity and spin by the connection coefficients;
    one residual per point for a batched jet."""
    out = {}
    for name, up, derivative in (
        ("velocity_transport", jet.velocity, jet.du),
        ("spin_transport", jet.spin, jet.ds),
    ):
        # d_mu v_i against v^j r_{ji mu}, rows mu, columns lowered i
        predicted = (up[..., None, None, :] @ jet.r)[..., 0, :]
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
