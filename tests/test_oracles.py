"""The closed-form kernels of the guidance path against reference forms.

velocity_from_momentum applies the inverse momentum map to p term by term,
and potentials contracts the connection r[..., mu, i, j] of a jet through
constant tables.  The references below are the direct forms they replace:
the explicit inverse matrix B and the einsum contractions.  Each kernel must
match its reference to rounding, for a single point and for a batch.  The
closed-form frame connection is checked against differences of the
decomposed frame in test_algebra.
"""
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diracpolar.algebra import EPS_LOWER, ETA, ETA_SIGNS, mdot
from diracpolar.fieldconn import Background, PolarJet
from diracpolar.guidance import CompactForms, potentials, velocity_from_momentum

EPS = np.finfo(float).eps
ORACLE = settings(max_examples=200, deadline=None, derandomize=True, database=None)
seeds = st.integers(0, 2**32 - 1)
# () is a single point, n a batch of n points
batches = st.one_of(st.just(()), st.integers(1, 6).map(lambda n: (n,)))


def inverse_matrix(s, forms, basis):
    """The inverse momentum map as an explicit matrix per point, divided by
    xs denom: velocity = matrix @ p_low."""
    xs = np.asarray(forms.xs)
    zeta_low = forms.z / xs[..., None]
    zeta = zeta_low * ETA_SIGNS
    s_low = s * ETA_SIGNS
    zs = np.sum(zeta_low * s, axis=-1)
    z2 = np.sum(zeta_low * zeta, axis=-1)
    denom = 1.0 + z2 + zs**2

    def outer(a, b):
        return a[..., :, None] * b[..., None, :]

    b = ETA + outer(s, s) * (1 + zs**2)[..., None, None]
    b = b + outer(zeta, zeta)
    b = b + (outer(zeta, s) + outer(s, zeta)) * zs[..., None, None]
    b = b + np.einsum("...i,...j,ijka->...ka", zeta_low, s_low, basis.eps_upper)
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
    matrix, denom = inverse_matrix(s, forms, basis)
    assume(np.all(np.abs(denom) > 1e-3))
    p_low = p * ETA_SIGNS
    want = (matrix @ p_low[..., None])[..., 0]
    got = velocity_from_momentum(p, s, forms, basis)
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
