"""The closed-form kernels of the guidance path against reference forms.

velocity_from_momentum applies the inverse momentum map to p term by term,
and potentials contracts the connection r[..., mu, i, j] of a jet through
constant tables.  The references below are the direct forms they replace:
the explicit inverse matrix B and the einsum contractions.  Each kernel must
match its reference to rounding, for a single point and for a batch.  The
closed-form frame connection is checked against differences of the
decomposed frame in test_algebra.

The balance checks contract the field with each matrix of their stack once
and take the reversed products adj(nabla psi) M psi from the hermiticity of
the stack; the reference contracts the stack and its conjugate transpose as
they stand.  The exact jet reads psi^dagger pi psi and Im psi^dagger
sigma^{ij} psi off the axial density; the reference contracts pi and the six
sigma^{ij} directly.
"""
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diracpolar.algebra import (
    EPS_LOWER,
    EPS_UPPER,
    ETA,
    ETA_SIGNS,
    PAIR_I,
    PAIR_J,
    mdot,
    side_by_side,
)
from diracpolar.fieldconn import (
    Background,
    FieldSample,
    PolarJet,
    density_products,
    derivative_jet,
)
from diracpolar.gordon import _density_derivatives
from diracpolar.guidance import CompactForms, potentials, velocity_from_momentum

from conftest import SpinorTable

EPS = np.finfo(float).eps
ORACLE = settings(max_examples=200, deadline=None, derandomize=True, database=None)
seeds = st.integers(0, 2**32 - 1)
# () is a single point, n a batch of n points
batches = st.one_of(st.just(()), st.integers(1, 6).map(lambda n: (n,)))
# a point, a stack of points and a stack of stacks
point_batches = st.one_of(st.just(()), st.integers(1, 6).map(lambda n: (n,)), st.just((2, 3)))


def inverse_matrix(s, forms):
    """The inverse momentum map as an explicit matrix per point, divided by
    xs denom: velocity = matrix @ p_low.  Formed in long double from the
    float64 inputs, so the reference's own rounding (denom may nearly cancel)
    does not count against the kernel."""
    xs = np.asarray(forms.xs, dtype=np.longdouble)
    zeta_low = np.asarray(forms.z, dtype=np.longdouble) / xs[..., None]
    zeta = zeta_low * ETA_SIGNS
    s = np.asarray(s, dtype=np.longdouble)
    s_low = s * ETA_SIGNS
    zs = np.sum(zeta_low * s, axis=-1)
    denom = 1.0 + np.sum(zeta_low * zeta, axis=-1) + zs**2

    def outer(a, b):
        return a[..., :, None] * b[..., None, :]

    b = ETA + outer(s, s) * (1 + zs**2)[..., None, None]
    b = b + outer(zeta, zeta)
    b = b + (outer(zeta, s) + outer(s, zeta)) * zs[..., None, None]
    b = b + np.einsum("...i,...j,ijka->...ka", zeta_low, s_low, EPS_UPPER)
    return b / (xs * denom)[..., None, None], denom


def unit_frame(rng, batch, speed):
    """Random unit timelike u and unit spacelike s orthogonal to it."""
    v = rng.standard_normal(batch + (3,)) * speed
    u = np.concatenate([np.sqrt(1.0 + (v * v).sum(axis=-1))[..., None], v], axis=-1)
    a = rng.standard_normal(batch + (4,))
    a = a - mdot(a, u)[..., None] * u
    return u, a / np.sqrt(-mdot(a, a))[..., None]


@ORACLE
@given(seed=seeds, batch=batches, speed=st.floats(0.0, 3.0), size=st.floats(0.0, 3.0))
def test_velocity_from_momentum_matches_explicit_inverse(basis, seed, batch, speed, size):
    rng = np.random.default_rng(seed)
    u, s = unit_frame(rng, batch, speed)
    z = rng.standard_normal(batch + (4,)) * size
    xs = rng.uniform(0.1, 3.0, batch) * rng.choice([-1.0, 1.0], batch)
    forms = CompactForms(y=np.zeros(batch + (4,)), z=z, xs=xs[()], mass_cos=1.0)
    p = rng.standard_normal(batch + (4,)) * 2.0 + u
    matrix, denom = inverse_matrix(s, forms)
    assume(np.all(np.abs(denom) > 1e-3))
    p_low = p * ETA_SIGNS
    want = (matrix @ p_low[..., None])[..., 0]
    got = velocity_from_momentum(p, s, forms)
    assert got.shape == batch + (4,)
    # the size of the terms the rows of matrix @ p_low sum
    scale = (np.abs(matrix) @ np.abs(p_low)[..., None])[..., 0]
    assert np.all(np.abs(got - want) <= 50 * EPS * scale.max(axis=-1, keepdims=True))


def connection_jet(r):
    """A jet of batch shape r.shape[:-3] that carries only the connection r:
    every other derivative is 0, so potentials returns the two contractions
    of r, y as it is and z negated."""
    batch = r.shape[:-3]
    zero = np.zeros(batch + (4,))
    zeros = np.zeros(batch + (4, 4))
    return PolarJet(
        np.ones(batch), np.zeros(batch), zero, zero, zero, zero, zeros, zeros, r, zero, zero
    )


@ORACLE
@given(seed=seeds, batch=batches)
def test_connection_contractions_match_einsum(seed, batch):
    rng = np.random.default_rng(seed)
    r = rng.standard_normal(batch + (4, 4, 4))
    r = r - np.swapaxes(r, -2, -1)
    y, z = potentials(connection_jet(r), Background(mass=1.0))
    # r[..., mu, i, j] = r_{ij mu}: eps_m^{ij mu} r_{ij mu} / 4 and eta^{j mu} r_{i j mu} / 2
    raised = r * np.einsum("i,j,k->ijk", ETA_SIGNS, ETA_SIGNS, ETA_SIGNS)
    axial = 0.25 * np.einsum("mran,...nra->...m", EPS_LOWER, raised)
    trace = 0.5 * np.einsum("...jij,j->...i", r, ETA_SIGNS)
    scale = np.abs(r).max()
    assert y.shape == z.shape == batch + (4,)
    assert np.abs(y - axial).max() <= 20 * EPS * scale
    assert np.abs(-z - trace).max() <= 20 * EPS * scale


def random_spinors(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def density_derivatives_both_orders(sample, basis):
    """The balance pieces from 84 matrices: the 42 of basis.balance_rows and
    their conjugate transposes, each contracted with the field as it stands.
    Sums and differences (..., 42, mu)."""
    stack = basis.balance_rows.reshape(4, -1, 4).transpose(1, 0, 2)
    n = len(stack)
    both = density_products(
        sample.psi,
        sample.grad,
        side_by_side(np.concatenate([stack, np.conj(np.swapaxes(stack, -1, -2))])),
    )
    forward, backward = both[..., :n, :], both[..., n:, :].conj()
    return forward + backward, forward - backward


@ORACLE
@given(seed=seeds, batch=point_batches, log_size=st.floats(-3.0, 3.0))
def test_density_derivatives_match_both_orders(basis, seed, batch, log_size):
    rng = np.random.default_rng(seed)
    psi = random_spinors(rng, batch + (4,)) * 10.0**log_size
    grad = random_spinors(rng, batch + (4, 4))
    sample = FieldSample(np.zeros(batch + (4,)), np.concatenate([psi[..., None, :], grad], axis=-2))
    want_both = density_derivatives_both_orders(sample, basis)
    for got, want in zip(_density_derivatives(sample, basis), want_both):
        got = np.concatenate([piece.reshape(batch + (-1, 4)) for piece in got], axis=-2)
        assert got.shape == want.shape == batch + (42, 4)
        # every product sums 16 terms psi_i M_ij v_j, |M_ij| <= 1; 20000
        # random draws stayed at 0 units
        scale = np.abs(psi).sum(axis=-1) * np.abs(grad).sum(axis=-1).max(axis=-1)
        assert np.all(np.abs(got - want) <= 4 * EPS * scale[..., None, None])


def reference_momentum(psi, grad, jet, basis):
    """p from psi, nabla psi and the jet's dchiral and r, with psi^dagger pi
    psi and psi^dagger sigma^{ij} psi contracted directly."""
    pi_term = np.einsum("...i,ij,...j->...", psi.conj(), basis.pi, psi).real
    sigma = basis.sigma_upper[PAIR_I, PAIR_J]
    sigma_terms = np.einsum("...i,pij,...j->...p", psi.conj(), sigma, psi).imag
    known = 0.5 * jet.dchiral * pi_term[..., None]
    known = known + (jet.r[..., PAIR_I, PAIR_J] @ sigma_terms[..., None])[..., 0]
    kinetic = np.einsum("...i,...mi->...m", psi.conj(), grad).imag
    return -(kinetic + known) / np.vecdot(psi, psi).real[..., None]


@ORACLE
@given(seed=seeds, batch=point_batches, log_size=st.floats(-3.0, 3.0))
def test_jet_momentum_matches_direct_products(basis, seed, batch, log_size):
    rng = np.random.default_rng(seed)
    psi = random_spinors(rng, batch + (4,)) * 10.0**log_size
    grad = random_spinors(rng, batch + (4, 4)) * 10.0**log_size
    x = np.zeros(batch + (4,))
    jet = derivative_jet(SpinorTable(psi, grad), Background(mass=1.0), basis, x)
    want = reference_momentum(psi, grad, jet, basis)
    assert jet.p.shape == want.shape == batch + (4,)
    # the two forms differ by rounding of the known and kinetic terms; 20000
    # random draws reached 0.69 units
    scale = np.abs(jet.dchiral).max(axis=-1) + np.abs(jet.r).max(axis=(-3, -2, -1))
    scale = scale + np.abs(grad).max(axis=(-2, -1)) / np.abs(psi).max(axis=-1)
    assert np.all(np.abs(jet.p - want) <= 4 * EPS * scale[..., None])
