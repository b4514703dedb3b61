import os
from dataclasses import replace

# The suite works on 4x4 matrices, where extra BLAS threads only add
# wake-up stalls: on a shared machine that had sat idle, criterion 1's
# hundred small inversions took about a second with default threading and
# milliseconds with one thread.  This must run before numpy is imported.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

import numpy as np
import pytest

from diracpolar.algebra import EPS_LOWER, ETA, ETA_SIGNS, LOWER_PAIR, build_chiral_basis
from diracpolar.errors import OutOfDomain, raise_rows
from diracpolar.fieldconn import ConstantVector, PlaneWaveComponent, PlaneWaveField, plane_wave


@pytest.fixture(scope="session")
def basis():
    return build_chiral_basis()


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


def gauge_shift_linear(fld, bg, c):
    """Joint shift psi -> exp(-i q c.x) psi, a -> a + c leaving the momentum
    covector invariant, of a plane-wave field and its background.  c carries
    raised components."""
    c = np.asarray(c, dtype=float)
    comps = [
        PlaneWaveComponent(comp.momentum + bg.charge * c, comp.amplitude.copy())
        for comp in fld.components
    ]
    pot = bg.em_potential if bg.em_potential is not None else ConstantVector(np.zeros(4))
    pot = pot.shifted(c) if isinstance(pot, LinearVector) else ConstantVector(pot.values + c)
    return PlaneWaveField(comps), replace(bg, em_potential=pot)


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


def random_antisymmetric(rng, scale=1.0):
    a = rng.standard_normal((4, 4)) * scale
    return a - a.T


def torsion_wave(p_space, mass, coupling, w, basis, amplitude=1.0, branch=-1):
    """Exact plane-wave solution with a constant axial torsion background.

    Solves the stationary eigenproblem p0 psi0 = g0 (p.g + coupling w.g pi
    + mass) psi0 and returns the positive-energy wave, its full momentum and
    the energy.  branch picks among the two positive eigenvalues.
    """
    p_space = np.asarray(p_space, dtype=float)
    w = np.asarray(w, dtype=float)
    h = np.einsum("k,kij->ij", p_space, basis.gamma[1:])
    h = h + coupling * np.einsum("a,aij,jk->ik", ETA @ w, basis.gamma, basis.pi)
    h = basis.gamma[0] @ (h + mass * basis.identity)
    vals, vecs = np.linalg.eigh(h)
    positive = [k for k in range(4) if vals[k] > 0]
    k = positive[branch]
    energy = vals[k]
    psi0 = amplitude * vecs[:, k]
    p4 = np.concatenate([[energy], p_space])
    return PlaneWaveField([PlaneWaveComponent(p4, psi0)]), p4


def vanishing_waves(rng, basis, scale=1.0):
    """Three free waves of unit mass whose amplitudes sum to zero: their sum
    vanishes at x = 0, while its derivative there is of order scale.

    Each amplitude lies in the two-dimensional space of positive-energy
    solutions for its momentum; the first is drawn with largest entry 1 and
    the other two are solved for.
    """
    momenta = [
        np.concatenate([[np.sqrt(1 + v @ v)], v]) for v in rng.uniform(-0.3, 0.3, size=(3, 3))
    ]
    spaces = [
        np.column_stack(
            [plane_wave(p, 1.0, np.array([0.0, 0.0, z]), 1.0, basis).components[0].amplitude
             for z in (1.0, -1.0)]
        )
        for p in momenta
    ]
    first = spaces[0] @ (rng.standard_normal(2) + 1j * rng.standard_normal(2))
    first = first / np.abs(first).max()
    rest = np.linalg.solve(np.column_stack(spaces[1:]), -first)
    amplitudes = [first, spaces[1] @ rest[:2], spaces[2] @ rest[2:]]
    return [PlaneWaveComponent(p, scale * a) for p, a in zip(momenta, amplitudes)]


def jet_gap(a, b):
    """Largest gap between two polar jets over every derivative they carry."""
    pairs = (
        (a.dchiral, b.dchiral),
        (a.dlogdensity, b.dlogdensity),
        (a.du, b.du),
        (a.ds, b.ds),
        (a.r, b.r),
        (a.p, b.p),
    )
    return max(np.abs(x - y).max() for x, y in pairs)


def spin_dual(u, s):
    """*(u^s)_ij = eps_ijkl u^k s^l, lowered, for velocities and spins (..., 4)."""
    return np.einsum("ijkl,...k,...l->...ij", EPS_LOWER, u, s)


def turn_about_spin(r, u, s):
    """lam_mu of the component lam_mu *(u^s) of connections r (..., mu, 4, 4),
    lowered, at unit velocities and spins u, s (..., 4).  Every transport
    term of r has no such component, since eps(u, du, u, s) = eps(s, ds, u, s)
    = eps(u, s, u, s) = 0, and *(u^s) contracted with itself gives 2."""
    raised = spin_dual(u, s) * ETA_SIGNS[:, None] * ETA_SIGNS
    return 0.5 * np.einsum("...mij,...ij->...m", r, raised)


def shift_turn(jet, c):
    """The jet in another frame gauge: the turn about the spin shifted by c
    (..., mu), r += c *(u^s) and p += c / 2, which leaves nabla psi as it is.
    r is formed from transport terms, and c *(u^s) raised and halved are
    transport terms whose r is c *(u^s)."""
    dual = spin_dual(jet.velocity, jet.spin)[..., None, :, :] * (0.5 * LOWER_PAIR)
    return replace(jet, transport=jet.transport + c[..., None, None] * dual, p=jet.p + 0.5 * c)


def transport_gauge(jet):
    """The jet with its turn about the spin taken out, the gauge of
    derivative_jet; a stencil jet comes in the minimal-rotation gauge."""
    return shift_turn(jet, -turn_about_spin(jet.r, jet.velocity, jet.spin))


class SpinorTable:
    """Field that returns the given spinors (n, 4) and derivatives (n, 4, 4)
    for any stack of n points, or one spinor (4,) for a single point."""

    def __init__(self, psi, grad):
        self.psi, self.grad = psi, grad

    def evaluate(self, x):
        return self.psi

    def partial(self, x):
        return self.grad

    def block(self, x):
        return np.concatenate([self.psi[..., None, :], self.grad], axis=-2)


def per_row_emit(rows, fmt, out):
    """The emitter that printed one (name, value) row at a time, each value
    through its own format call, kept as the byte reference for reports."""

    def fmt_value(value):
        if isinstance(value, (list, tuple, np.ndarray)):
            return " ".join("%.17g" % v for v in np.asarray(value, dtype=float))
        return "%.17g" % value

    if fmt == "records":
        for name, value in rows:
            print("%s=%s" % (name, fmt_value(value)), file=out)
    else:
        width = max((len(name) for name, _ in rows), default=0)
        for name, value in rows:
            print("%-*s  %s" % (width, name, fmt_value(value)), file=out)
