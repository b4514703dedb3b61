"""The closed-form kernels of the guidance path against reference forms.

velocity_from_momentum applies the inverse momentum map to p term by term,
boost_vec_jet builds the boost and its derivative from outer products, and
TensorialConnection contracts r through constant tables.  The references
below are the direct forms they replace: the explicit inverse matrix B, the
boost matrix assembled block by block, and the einsum contractions.  Each
kernel must match its reference to rounding, for a single point and for a
batch.
"""
import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diracpolar.algebra import EPS_LOWER, ETA, ETA_SIGNS, boost_vec_jet, mdot
from diracpolar.fieldconn import TensorialConnection
from diracpolar.guidance import CompactForms, velocity_from_momentum

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


def boost_vec_blocks(v, u0):
    vec = np.empty(v.shape[:-1] + (4, 4))
    vec[..., 0, 0] = u0
    vec[..., 0, 1:] = -v
    vec[..., 1:, 0] = -v
    vec[..., 1:, 1:] = np.eye(3) + v[..., :, None] * v[..., None, :] / (u0 + 1.0)[..., None, None]
    return vec


def boost_vec_jet_blocks(u, du):
    """boost_vec_jet with every block of the matrix and its derivative
    written out."""
    v = np.asarray(u, dtype=float)[..., 1:]
    dv = np.asarray(du, dtype=float)[..., 1:]
    u0 = np.sqrt(1.0 + (v * v).sum(axis=-1))
    du0 = (dv @ v[..., :, None])[..., 0] / u0[..., None]
    w = v / (u0 + 1.0)[..., None]
    d = np.empty(dv.shape[:-1] + (4, 4))
    d[..., 0, 0] = du0
    d[..., 0, 1:] = -dv
    d[..., 1:, 0] = -dv
    sym = dv[..., :, None] * w[..., None, None, :]
    outer = w[..., :, None] * w[..., None, :]
    d[..., 1:, 1:] = sym + np.swapaxes(sym, -1, -2) - du0[..., None, None] * outer[..., None, :, :]
    return boost_vec_blocks(v, u0), d


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


@ORACLE
@given(seed=seeds, batch=batches, log_speed=st.floats(-3.0, 2.5))
def test_boost_vec_jet_matches_blocks(seed, batch, log_speed):
    rng = np.random.default_rng(seed)
    u, _ = unit_frame(rng, batch, 10.0**log_speed)
    du = rng.standard_normal(batch + (4, 4))
    vec, dvec = boost_vec_jet(u, du)
    want_vec, want_dvec = boost_vec_jet_blocks(u, du)
    assert vec.shape == batch + (4, 4) and dvec.shape == batch + (4, 4, 4)
    u0 = u[..., 0][..., None, None]
    assert np.all(np.abs(vec - want_vec) <= 50 * EPS * u0)
    # every entry of d vec is a sum of terms of size |dv| at most
    dv = np.abs(du[..., 1:]).max(axis=(-2, -1))[..., None, None, None]
    assert np.all(np.abs(dvec - want_dvec) <= 50 * EPS * dv)


@ORACLE
@given(seed=seeds, batch=batches)
def test_connection_contractions_match_einsum(seed, batch):
    rng = np.random.default_rng(seed)
    r = rng.standard_normal(batch + (4, 4, 4))
    r = r - np.swapaxes(r, -3, -2)
    tc = TensorialConnection(r=r, p=None, dphase=None, trace_part=None, projection_residual=0.0)
    raised = r * np.einsum("i,j,k->ijk", ETA_SIGNS, ETA_SIGNS, ETA_SIGNS)
    axial = 0.25 * np.einsum("mran,...ran->...m", EPS_LOWER, raised)
    trace = 0.5 * np.einsum("...ijj,j->...i", r, ETA_SIGNS)
    scale = np.abs(r).max()
    assert np.abs(tc.axial_dual() - axial).max() <= 20 * EPS * scale
    assert np.abs(tc.trace_contraction() - trace).max() <= 20 * EPS * scale
