"""The closed-form kernels of the guidance path and the gordon scan against
reference forms.

velocity_from_momentum applies the inverse momentum map to p term by term,
and potentials reads the connection of a jet through one constant table.
The references below are the direct forms they replace:
the explicit inverse matrix B and the einsum contractions.  Each kernel must
match its reference to rounding, for a single point and for a batch.  The
closed-form frame connection is checked against differences of the
decomposed frame in test_algebra.

The guidance path reads the connection only through CONNECTION_TABLE, one
product on the transport terms, and inverts the momentum map through a
triple product; the references are the routes they replaced, the connection
array of frame_connection contracted through two tables and a fancy index,
and the inversion through a per-point pair dual, down to whole guidance
velocities.

The balance checks contract the field with each matrix of their stack once
and take the reversed products adj(nabla psi) M psi from the hermiticity of
the stack; the reference contracts the stack and its conjugate transpose as
they stand.  The exact jet reads psi^dagger pi psi and Im psi^dagger
sigma^{ij} psi off the axial density; the reference contracts pi and the six
sigma^{ij} directly.

Every fixed contraction of the gordon scan is a reshape and one matmul
against a table built once: EPS_PAIRS (through pair_dual and its (4, 64)
view), basis.dirac_rows, basis.sigma_pairs and basis.density_rows.  The
einsum forms they replaced are the references here, contraction by
contraction and for the whole residual dicts, on fields that solve nothing
and carry a charge, an EM potential and a torsion vector.

The gordon report is one format string filled from one residual array; the
reference is the scan as (label, value) row tuples, printed one row at a
time and checked through a dict, which must give the same bytes and exit code.

The regularity guard compares |(S, P)| = hypot(S, P) with
sqrt(REGULARITY_EPS) |U^0| and returns it; the reference compares the squares
S^2 + P^2 and REGULARITY_EPS (U^0)^2.  Away from the bound both fail the same
rows with the same messages, and is_regular passes exactly the rows the guard
does.
"""
import dataclasses
import io

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diracpolar import cli
from diracpolar.algebra import (
    EPS_LOWER,
    EPS_UPPER,
    ETA,
    ETA_SIGNS,
    LOWER_PAIR,
    PAIR_I,
    PAIR_J,
    connection_from_transport,
    mdot,
    pair_dual,
    side_by_side,
    spin_inverse,
)
from diracpolar import bilinears
from diracpolar.bilinears import Densities, compute_bilinears, is_regular, require_regular
from diracpolar.errors import SingularSpinor, raise_rows
from diracpolar.fieldconn import (
    _STENCIL,
    Background,
    FieldSample,
    LinearVector,
    PlaneWaveComponent,
    PlaneWaveField,
    PolarJet,
    density_products,
    derivative_jet,
    plane_wave,
    polar_derivative_operator,
    polar_jet,
    sample_field,
    verify_transport,
)
from diracpolar.gordon import (
    _density_derivatives,
    compute_potentials,
    dirac_residual,
    residual_bilinear_gordon,
    residual_polar_groups,
)
from diracpolar.guidance import (
    CompactForms,
    momentum_from_velocity,
    momentum_long_form,
    potentials,
    velocity_from_momentum,
)
from diracpolar.polar import polar_decompose
from diracpolar.trajectories import velocity_field

from conftest import SpinorTable, per_row_emit

EPS = np.finfo(float).eps
ORACLE = settings(max_examples=200, deadline=None, derandomize=True, database=None)
seeds = st.integers(0, 2**32 - 1)
# () is a single point, n a batch of n points
batches = st.one_of(st.just(()), st.integers(1, 6).map(lambda n: (n,)))
# a point, a stack of points and a stack of stacks
point_batches = st.one_of(st.just(()), st.integers(1, 6).map(lambda n: (n,)), st.just((2, 3)))
# and the empty stack
all_batches = st.one_of(point_batches, st.just((0,)))


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
    """A jet of batch shape r.shape[:-3] that carries only the connection r,
    antisymmetric, as the transport terms r raised and halved: every other
    derivative is 0, so potentials returns the two contractions of r, y as it
    is and z negated."""
    batch = r.shape[:-3]
    zero = np.zeros(batch + (4,))
    zeros = np.zeros(batch + (4, 4))
    transport = 0.5 * r * LOWER_PAIR
    return PolarJet(
        np.ones(batch), np.zeros(batch), zero, zero, zero, zero, zeros, zeros, transport, zero, zero
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
    products = density_products(sample.psi, sample.grad, basis.balance_rows)
    for got, want in zip(_density_derivatives(products, basis.balance_signs), want_both):
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


# The einsum forms the gordon scan's table contractions replaced.  _S lowers
# one index by its sign and _S2 two.
_S = ETA_SIGNS
_S2 = ETA_SIGNS[:, None] * ETA_SIGNS


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _dot(a, b):
    return np.sum(a * b, axis=-1)


def _trace(a):
    return np.trace(a, axis1=-2, axis2=-1)


def reference_densities(psi, basis):
    """The sixteen complex density products (..., 16), in one einsum."""
    rows = basis.density_rows.reshape(4, 16, 4)     # rows[i, k, j] = (gamma^0 M_k)[i, j]
    return np.einsum("...i,ikj,...j->...k", psi.conj(), rows, psi)


def reference_dirac(sample, bg, basis):
    psi = sample.psi
    w_low = bg.w_value(sample.x) * _S
    op = 1j * np.einsum("mij,...mj->...i", basis.gamma, sample.grad)
    op = op - bg.torsion_coupling * np.einsum(
        "...a,aij,...j->...i", w_low, basis.gamma @ basis.pi, psi
    )
    op = op - bg.mass * psi
    return (np.linalg.norm(op, axis=-1) / np.linalg.norm(psi, axis=-1))[()]


def reference_bilinear_gordon(sample, bg, basis):
    """residual_bilinear_gordon with every epsilon and matrix contraction an
    einsum, and the densities from reference_densities."""
    products = density_products(sample.psi, sample.grad, basis.balance_rows)
    sums, differences = _density_derivatives(products, basis.balance_signs)
    d_one, d_pi, d_gam, d_gam_pi, d_sig, _ = sums
    k_one, k_pi, k_gam, k_gam_pi, k_sig, k_sig_pi = differences
    values = reference_densities(sample.psi, basis).real
    scalar, pseudoscalar, u, s = values[..., 0], values[..., 1], values[..., 2:6], values[..., 6:10]
    m_low = np.zeros(values.shape[:-1] + (4, 4))
    m_low[..., PAIR_I, PAIR_J] = values[..., 10:]
    m_low[..., PAIR_J, PAIR_I] = -values[..., 10:]
    m, coup = bg.mass, bg.torsion_coupling
    w = np.broadcast_to(bg.w_value(sample.x), sample.psi.shape)
    w_low, u_low = w * _S, u * _S
    m_up = m_low * _S2
    scale = u[..., 0]
    d_vec = np.swapaxes(d_gam, -1, -2)
    d_ax = np.swapaxes(d_gam_pi, -1, -2)
    d_tens = 2j * np.moveaxis(d_sig, -1, -3) * _S2

    def worst(a, axes):
        return np.abs(a).max(axis=axes) / scale

    out = {}
    out["vector_divergence"] = np.abs(_trace(d_vec)) / scale
    out["pseudoscalar_kinetic"] = np.abs(0.5j * _trace(k_gam_pi) - coup * _dot(w_low, u)) / scale
    dur = d_vec * _S[:, None]
    curl_u = dur - np.swapaxes(dur, -1, -2)
    curl_u = curl_u + 1j * np.einsum("anmr,...rm->...an", EPS_UPPER, k_gam_pi * _S[:, None])
    curl_u = curl_u - 2 * coup * np.einsum("ansr,...s,...r->...an", EPS_UPPER, w_low, u_low)
    out["vector_curl"] = worst(curl_u - 2 * m * m_up, (-2, -1))
    out["axial_divergence"] = np.abs(_trace(d_ax) - 2 * m * pseudoscalar) / scale
    acc = 0.5j * _trace(k_gam) - coup * _dot(w_low, s) - m * scalar
    out["scalar_kinetic"] = np.abs(acc) / scale
    curl_s = np.einsum("anmq,...mq->...an", EPS_UPPER, d_ax * _S)
    k = k_gam * _S
    curl_s = curl_s + 1j * (k - np.swapaxes(k, -1, -2)) + 2 * coup * (_outer(w, s) - _outer(s, w))
    out["axial_curl"] = worst(curl_s, (-2, -1))
    vr = 1j * k_one * _S + 2j * _trace(d_sig)
    vr = vr + coup * np.einsum("amrs,...m,...rs->...a", EPS_UPPER, w_low, m_low) - 2 * m * u
    out["vector_recovery"] = worst(vr, -1)
    ai = k_pi * _S - 0.5 * np.einsum("amrs,...mrs->...a", EPS_UPPER, d_tens)
    ai = ai + 2 * coup * np.einsum("...ab,...b->...a", m_up, w_low)
    out["axial_recovery"] = worst(ai, -1)
    vi = d_one * _S + 2 * _trace(k_sig) + 2 * coup * w * pseudoscalar[..., None]
    out["scalar_gradient"] = worst(vi, -1)
    ar = 1j * d_pi * _S + 2j * _trace(k_sig_pi) - 2 * coup * w * scalar[..., None] + 2 * m * s
    out["pseudoscalar_gradient"] = worst(ar, -1)
    return {name: value[()] for name, value in out.items()}


def reference_polar_groups(jet, bg):
    """residual_polar_groups with the duals, the crosses and the d1 term as
    einsum over EPS_UPPER and EPS_LOWER."""
    e, f = compute_potentials(jet, bg)
    p, u, s = jet.p, jet.velocity, jet.spin
    u_low, s_low = u * _S, s * _S
    f_up, p_up = f * _S, p * _S

    def dual(a, b):
        return np.einsum("anmr,...m,...r->...an", EPS_UPPER, a, b)

    def cross(a):
        return np.einsum("...m,...j,...k,jkma->...a", a, u_low, s_low, EPS_UPPER)

    out = {"a1": np.abs(_dot(f, u)), "a2": np.abs(_dot(e, u) + _dot(p, s))}
    a3 = dual(e, u_low) + _outer(f_up, u) - _outer(u, f_up) + dual(p, s_low)
    out["a3"] = np.abs(a3).max(axis=(-2, -1))
    out["b1"] = np.abs(_dot(f, s))
    out["b2"] = np.abs(_dot(e, s) + _dot(p, u))
    b3 = dual(e, s_low) + _outer(f_up, s) - _outer(s, f_up) + dual(p, u_low)
    out["b3"] = np.abs(b3).max(axis=(-2, -1))
    c1 = cross(f) + _dot(e, u)[..., None] * s - _dot(e, s)[..., None] * u - p_up
    out["c1"] = np.abs(c1).max(axis=-1)
    c2 = _dot(f, u)[..., None] * s - _dot(f, s)[..., None] * u - cross(e)
    out["c2"] = np.abs(c2).max(axis=-1)
    d1 = f - np.einsum("mrna,...r,...n,...a->...m", EPS_LOWER, p_up, u, s)
    out["d1"] = np.abs(d1).max(axis=-1)
    d2 = e - _dot(p, u)[..., None] * s_low + _dot(p, s)[..., None] * u_low
    out["d2"] = np.abs(d2).max(axis=-1)
    return out


def charged_background(rng):
    """Mass, charge and torsion coupling with an EM potential and a torsion
    vector that vary across spacetime."""
    return Background(
        mass=rng.uniform(0.5, 2.0),
        charge=rng.uniform(-1.0, 1.0),
        torsion_coupling=rng.uniform(-1.0, 1.0),
        em_potential=LinearVector(rng.standard_normal(4), rng.standard_normal((4, 4))),
        torsion_vector=LinearVector(rng.standard_normal(4), rng.standard_normal((4, 4))),
    )


def random_field(rng, batch, log_size):
    """Spinors and derivatives that solve nothing, at points x, under a
    charged background: (field, background, x)."""
    psi = random_spinors(rng, batch + (4,)) * 10.0**log_size
    grad = random_spinors(rng, batch + (4, 4)) * 10.0**log_size
    x = rng.uniform(-1.0, 1.0, batch + (4,))
    return SpinorTable(psi, grad), charged_background(rng), x


def l1(a, axis=-1):
    return np.abs(a).sum(axis=axis)


@ORACLE
@given(seed=seeds, batch=all_batches)
def test_pair_dual_matches_einsum(seed, batch):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(batch + (4, 4))
    got = pair_dual(w)
    assert got.shape == batch + (4, 4)
    # each entry is one sum of two products w_cd, w_dc with epsilon = +-1
    want = np.einsum("abcd,...cd->...ab", EPS_UPPER, w)
    assert np.all(np.abs(got - want) <= EPS * l1(w, (-2, -1))[..., None, None])


@ORACLE
@given(seed=seeds, batch=all_batches, log_size=st.floats(-3.0, 3.0))
def test_compute_bilinears_matches_einsum(basis, seed, batch, log_size):
    rng = np.random.default_rng(seed)
    psi = random_spinors(rng, batch + (4,)) * 10.0**log_size
    bil = compute_bilinears(psi, basis)
    got = np.concatenate(
        [np.asarray(bil.scalar)[..., None], np.asarray(bil.pseudoscalar)[..., None],
         bil.vector, bil.axial, bil.tensor6],
        axis=-1,
    )
    want = reference_densities(psi, basis)
    assert got.shape == want.shape == batch + (16,)
    # every density sums 16 terms psi_i M_ij psi_j, |M_ij| <= 1; 3000 random
    # draws reached 0.95 units
    scale = l1(psi) ** 2
    assert np.all(np.abs(got - want.real) <= 4 * EPS * scale[..., None])
    assert np.all(np.abs(bil.imag_residual - np.abs(want.imag).max(axis=-1)) <= 4 * EPS * scale)


@ORACLE
@given(seed=seeds, batch=all_batches, log_size=st.floats(-3.0, 3.0))
def test_dirac_residual_matches_einsum(basis, seed, batch, log_size):
    rng = np.random.default_rng(seed)
    fld, bg, x = random_field(rng, batch, log_size)
    got = dirac_residual(fld, bg, basis, x)
    want = reference_dirac(sample_field(fld, bg, x), bg, basis)
    assert np.shape(got) == np.shape(want) == batch
    # gamma^a nabla_a psi and the torsion term, per unit |psi|; 3000 random
    # draws reached 0.68 units
    sample = sample_field(fld, bg, x)
    torsion = abs(bg.torsion_coupling) * l1(bg.w_value(x)) * l1(fld.psi)
    scale = (l1(l1(sample.grad)) + torsion) / np.linalg.norm(fld.psi, axis=-1) + bg.mass
    assert np.all(np.abs(got - want) <= 8 * EPS * scale)


@ORACLE
@given(seed=seeds, batch=all_batches, log_size=st.floats(-3.0, 3.0))
def test_bilinear_gordon_matches_einsum(basis, seed, batch, log_size):
    rng = np.random.default_rng(seed)
    fld, bg, x = random_field(rng, batch, log_size)
    got = residual_bilinear_gordon(fld, bg, basis, x)
    sample = sample_field(fld, bg, x)
    want = reference_bilinear_gordon(sample, bg, basis)
    assert list(got) == list(want)
    # the products |psi| |nabla psi| and the mass and torsion terms |psi|^2,
    # per unit density u^0 = |psi|^2; 3000 random draws reached 1.28 units
    psi = l1(fld.psi)
    size = psi * (l1(sample.grad).max(axis=-1) + (bg.mass + abs(bg.torsion_coupling)
                                                  * l1(bg.w_value(x))) * psi)
    scale = size / np.vecdot(fld.psi, fld.psi).real
    for name in want:
        assert np.shape(got[name]) == np.shape(want[name]) == batch, name
        assert np.all(np.abs(got[name] - want[name]) <= 16 * EPS * scale), name


def jet_scale(jet, bg):
    """The size of the terms of the polar groups: a covector e, f or p
    against the velocity and the spin."""
    e, f = compute_potentials(jet, bg)
    return (l1(e) + l1(f) + l1(jet.p)) * l1(jet.velocity) * l1(jet.spin)


@ORACLE
@given(seed=seeds, batch=all_batches, log_size=st.floats(-3.0, 3.0))
def test_polar_groups_match_einsum(basis, seed, batch, log_size):
    rng = np.random.default_rng(seed)
    fld, bg, x = random_field(rng, batch, log_size)
    jet = derivative_jet(fld, bg, basis, x)
    got = residual_polar_groups(jet, bg)
    want = reference_polar_groups(jet, bg)
    assert list(got) == list(want)
    # 3000 random draws reached 0.35 units; a sign slip in any term, such as
    # d1's eps_{mrna} p^r u^n s^a, is of the size of scale itself
    scale = jet_scale(jet, bg)
    for name in want:
        assert np.shape(got[name]) == np.shape(want[name]) == batch, name
        assert np.all(np.abs(got[name] - want[name]) <= 4 * EPS * scale), name


@ORACLE
@given(seed=seeds, batch=all_batches, log_size=st.floats(-3.0, 3.0))
def test_jet_checks_match_einsum(basis, seed, batch, log_size):
    rng = np.random.default_rng(seed)
    fld, bg, x = random_field(rng, batch, log_size)
    jet = derivative_jet(fld, bg, basis, x)
    r6 = jet.r[..., PAIR_I, PAIR_J]
    sigma6 = basis.sigma_upper[PAIR_I, PAIR_J]
    want = (jet.dlogdensity - 1j * jet.p)[..., None, None] * basis.identity
    want = want - 0.5j * jet.dchiral[..., None, None] * basis.pi
    want = want - np.einsum("...mp,pij->...mij", r6, sigma6)
    got = polar_derivative_operator(jet, basis)
    assert got.shape == want.shape == batch + (4, 4, 4)
    # six r coefficients against sigma entries of size <= 1/2; 3000 random
    # draws stayed at 0 units here and reached 0.76 units in the transport
    assert np.all(np.abs(got - want) <= 4 * EPS * l1(r6)[..., None, None])

    transport = verify_transport(jet)
    for name, up, derivative in (
        ("velocity_transport", jet.velocity, jet.du),
        ("spin_transport", jet.spin, jet.ds),
    ):
        predicted = np.einsum("...j,...mji->...mi", up, jet.r)
        want = np.abs(derivative * ETA_SIGNS - predicted).max(axis=(-2, -1))
        scale = l1(up) * np.abs(jet.r).max(axis=(-3, -2, -1))
        assert np.shape(transport[name]) == batch
        assert np.all(np.abs(transport[name] - want) <= 4 * EPS * scale), name


@ORACLE
@given(seed=seeds, speed=st.floats(0.0, 3.0), size=st.floats(0.0, 3.0))
def test_momentum_maps_match_einsum(seed, speed, size):
    rng = np.random.default_rng(seed)
    u, s = unit_frame(rng, (), speed)
    y, z = rng.standard_normal((2, 4)) * size
    forms = CompactForms(y=y, z=z, xs=rng.uniform(0.1, 3.0), mass_cos=rng.uniform(-1.0, 1.0))
    u_low, s_low = u * ETA_SIGNS, s * ETA_SIGNS
    short = forms.xs * u + (y @ u) * s + np.einsum("i,j,k,ijka->a", z, s_low, u_low, EPS_UPPER)
    long = forms.mass_cos * u + (y @ u) * s - (y @ s) * u
    long = long - np.einsum("m,j,k,jkma->a", z, u_low, s_low, EPS_UPPER)
    # 2000 random draws reached 0.17 units
    scale = (abs(forms.xs) + abs(forms.mass_cos) + 2 * l1(y) * l1(s) + l1(z) * l1(s)) * l1(u)
    assert np.all(np.abs(momentum_from_velocity(u, s, forms) - short) <= 4 * EPS * scale)
    assert np.all(np.abs(momentum_long_form(u, s, forms) - long) <= 4 * EPS * scale)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(seed=seeds, batch=all_batches)
def test_stencil_projection_matches_einsum(basis, seed, batch):
    # three waves of small momenta near the origin, with no node close by
    rng = np.random.default_rng(seed)
    waves = [
        PlaneWaveComponent(np.concatenate([[1.5], rng.uniform(-0.3, 0.3, 3)]), amplitude)
        for amplitude in random_spinors(rng, (3, 4)) * [[1.0], [0.2], [0.1]]
    ]
    fld = PlaneWaveField(waves)
    x, h = rng.uniform(-0.2, 0.2, batch + (4,)), 1e-3
    jet = polar_jet(fld, Background(mass=1.0), basis, x, h)
    # g_mu = l_spin^-1 d_mu l_spin from the same stencil, projected with einsum
    points = x + h * _STENCIL.reshape((9,) + (1,) * len(batch) + (4,))
    l_spin = polar_decompose(fld.evaluate(points), basis).l_spin
    dl = np.moveaxis((l_spin[1::2] - l_spin[2::2]) / (2 * h), 0, len(batch))
    g = spin_inverse(l_spin[0], basis)[..., None, :, :] @ dl
    sigma6 = basis.sigma_upper[PAIR_I, PAIR_J]
    want = np.einsum("pij,...mij->...mp", sigma6.conj(), g).real
    got = jet.r[..., PAIR_I, PAIR_J]
    assert got.shape == want.shape == batch + (4, 6)
    # 500 random draws stayed at 0 units
    assert np.all(np.abs(got - want) <= 4 * EPS * l1(g.reshape(batch + (4, 16)))[..., None])


# The guidance path before CONNECTION_TABLE, as references: the connection
# array itself, its contractions through two tables and a fancy index, and the
# inversion through a per-point pair dual.

def head_frame_connection(u, du, s, ds):
    us = u[..., :, None] * s[..., None, :]
    a = u[..., None, :, None] * du[..., None, :] - s[..., None, :, None] * ds[..., None, :]
    a = a + (du @ (s * ETA_SIGNS)[..., None])[..., None] * us[..., None, :, :]
    return (a - a.swapaxes(-1, -2)) * LOWER_PAIR


HEAD_AXIAL_DUAL = 0.25 * np.einsum(
    "mijk,i,j,k->kijm", EPS_LOWER, ETA_SIGNS, ETA_SIGNS, ETA_SIGNS
).reshape(64, 4)
HEAD_TRACE_CONTRACTION = 0.5 * np.einsum(
    "im,jk,j->kijm", np.eye(4), np.eye(4), ETA_SIGNS
).reshape(64, 4)
CYCLIC_J, CYCLIC_K = [2, 3, 1], [3, 1, 2]


def head_potentials(jet, r, bg):
    """y and z of a jet whose connection is r, through the two tables."""
    flat = r.reshape(r.shape[:-3] + (64,))
    y = flat @ HEAD_AXIAL_DUAL
    if bg.torsion_vector is not None:
        y = y - bg.torsion_coupling * (bg.w_value(jet.x) * ETA_SIGNS)
    y = y + 0.5 * jet.dchiral
    return y, -jet.dlogdensity - flat @ HEAD_TRACE_CONTRACTION


def head_velocity_from_momentum(p, s, forms):
    xs = np.asarray(forms.xs)
    zeta_low = forms.z / xs[..., None]
    zeta = zeta_low * ETA_SIGNS
    zs = np.vecdot(zeta_low, s)
    long_low = np.divide(forms.z, xs[..., None], dtype=np.longdouble)
    denom = 1.0 + np.vecdot(long_low, long_low * ETA_SIGNS) + np.vecdot(long_low, s) ** 2
    denom = denom.astype(float)
    p_low = p * ETA_SIGNS
    zp = np.vecdot(zeta, p_low)
    sp = np.vecdot(s, p_low)
    c_zeta = zp + zs * sp
    c_s = sp + zs * c_zeta
    dual = pair_dual(zeta_low[..., :, None] * (s * ETA_SIGNS)[..., None, :])
    u = p + s * c_s[..., None] + zeta * c_zeta[..., None] + (dual @ p_low[..., None])[..., 0]
    return u / (xs * denom)[..., None]


def transport_size(jet):
    """Per mu, the size of the transport terms u du_mu, s ds_mu and
    (s.du_mu) u s that every entry of r sums."""
    u, s = l1(jet.velocity)[..., None], l1(jet.spin)[..., None]
    return u * l1(jet.du) + s * l1(jet.ds) + l1(jet.du * jet.spin[..., None, :]) * u * s


@ORACLE
@given(seed=seeds, batch=all_batches, log_size=st.floats(-3.0, 3.0))
def test_connection_table_matches_connection_array(basis, seed, batch, log_size):
    rng = np.random.default_rng(seed)
    fld, bg, x = random_field(rng, batch, log_size)
    jet = derivative_jet(fld, bg, basis, x)
    r = head_frame_connection(jet.velocity, jet.du, jet.spin, jet.ds)
    size = transport_size(jet)
    assert jet.r.shape == r.shape == batch + (4, 4, 4)
    # 3000 random draws reached 0.44 units for r and its cyclic parts, 0.08
    # for y and z and 0.25 for p
    assert np.all(np.abs(jet.r - r) <= 4 * EPS * size[..., None, None])
    cyclic = 2.0 * jet.contractions[..., 8:].reshape(batch + (4, 3))
    assert np.all(np.abs(cyclic - r[..., CYCLIC_J, CYCLIC_K]) <= 4 * EPS * size[..., None])
    torsion = abs(bg.torsion_coupling) * l1(bg.w_value(x))
    scale = size.sum(axis=-1) + l1(jet.dchiral) + l1(jet.dlogdensity) + torsion
    for got, want in zip(potentials(jet, bg), head_potentials(jet, r, bg)):
        assert got.shape == want.shape == batch + (4,)
        assert np.all(np.abs(got - want) <= 4 * EPS * scale[..., None])
    # and p, against its known part from the connection array
    sample = sample_field(fld, bg, x)
    want = reference_momentum(sample.psi, sample.grad, replace_r(jet, r), basis)
    # r enters p through the transport terms, which may cancel in r
    scale = np.abs(jet.dchiral).max(axis=-1) + size.max(axis=-1)
    scale = scale + np.abs(sample.grad).max(axis=(-2, -1)) / np.abs(sample.psi).max(axis=-1)
    assert np.all(np.abs(jet.p - want) <= 4 * EPS * scale[..., None])


def replace_r(jet, r):
    """The jet with connection r, antisymmetric: transport terms r raised and
    halved, whose r is r bit for bit."""
    return dataclasses.replace(jet, transport=0.5 * r * LOWER_PAIR)


@ORACLE
@given(seed=seeds, batch=all_batches, speed=st.floats(0.0, 3.0), size=st.floats(0.0, 3.0))
def test_inversion_matches_pair_dual_route(basis, seed, batch, speed, size):
    rng = np.random.default_rng(seed)
    u, s = unit_frame(rng, batch, speed)
    z = rng.standard_normal(batch + (4,)) * size
    xs = rng.uniform(0.1, 3.0, batch) * rng.choice([-1.0, 1.0], batch)
    forms = CompactForms(y=np.zeros(batch + (4,)), z=z, xs=xs[()], mass_cos=1.0)
    p = rng.standard_normal(batch + (4,)) * 2.0 + u
    matrix, denom = inverse_matrix(s, forms)
    assume(np.all(np.abs(denom) > 1e-3))
    got = velocity_from_momentum(p, s, forms)
    want = head_velocity_from_momentum(p, s, forms)
    assert got.shape == want.shape == batch + (4,)
    # the size of the terms both sum; 3000 random draws reached 3.2 units
    scale = (np.abs(matrix) @ np.abs(p)[..., None])[..., 0]
    assert np.all(np.abs(got - want) <= 16 * EPS * scale.max(axis=-1, keepdims=True))


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(seed=seeds, batch=all_batches)
def test_stencil_jet_through_the_table(basis, seed, batch):
    rng = np.random.default_rng(seed)
    waves = [
        PlaneWaveComponent(np.concatenate([[1.5], rng.uniform(-0.3, 0.3, 3)]), amplitude)
        for amplitude in random_spinors(rng, (3, 4)) * [[1.0], [0.2], [0.1]]
    ]
    bg = charged_background(rng)
    x = rng.uniform(-0.2, 0.2, batch + (4,))
    jet = polar_jet(PlaneWaveField(waves), bg, basis, x, 1e-3)
    r = jet.r
    # exactly antisymmetric, and back bit for bit from r raised and halved
    assert np.array_equal(r, -r.swapaxes(-1, -2))
    assert np.array_equal(connection_from_transport(0.5 * r * LOWER_PAIR), r)
    torsion = abs(bg.torsion_coupling) * l1(bg.w_value(x))
    scale = l1(r.reshape(batch + (64,))) + l1(jet.dchiral) + l1(jet.dlogdensity) + torsion
    # 500 random draws reached 0.23 units
    for got, want in zip(potentials(jet, bg), head_potentials(jet, r, bg)):
        assert got.shape == want.shape == batch + (4,)
        assert np.all(np.abs(got - want) <= 4 * EPS * scale[..., None])


def head_guidance_velocity(fld, bg, basis, x):
    """The guidance velocity through the connection array, the two tables and
    the pair dual, from the jet's u, s and their derivatives."""
    jet = derivative_jet(fld, bg, basis, x)
    r = head_frame_connection(jet.velocity, jet.du, jet.spin, jet.ds)
    y, z = head_potentials(jet, r, bg)
    xs = bg.mass * np.cos(jet.chiral_angle) - np.vecdot(y, jet.spin)
    sample = sample_field(fld, bg, x)
    p = reference_momentum(sample.psi, sample.grad, replace_r(jet, r), basis)
    forms = CompactForms(y=y, z=z, xs=xs, mass_cos=0.0)
    return head_velocity_from_momentum(p * ETA_SIGNS, jet.spin, forms)


@pytest.mark.parametrize("charged", [False, True], ids=["free", "charged"])
def test_guidance_velocity_matches_connection_array_route(basis, charged):
    # criterion 5's two-wave solution, and the same waves under a charge, an
    # affine EM potential and a linear torsion vector
    v = np.array([[0.25, -0.1, 0.05], [0.1, 0.15, -0.08]])
    momenta = np.column_stack([np.sqrt(1.0 + np.vecdot(v, v)), v])
    spins = np.array([[0.1, 0.2, 1.0], [-0.1, 0.1, 1.0]])
    waves = plane_wave(momenta, 1.0, spins, np.array([1.0, 0.3]), basis)
    rng = np.random.default_rng(5)
    bg = charged_background(rng) if charged else Background(mass=1.0)
    for batch in [(), (7,), (2, 3), (0,)]:
        x = rng.uniform(-1.0, 1.0, batch + (4,))
        got = velocity_field(waves, bg, basis, "guidance")(x)
        want = head_guidance_velocity(waves, bg, basis, x)
        assert got.shape == want.shape == batch + (4,)
        # 2000 points reached 4.4e-16 without the background and 6.4e-16 with it
        scale = np.maximum(1.0, np.abs(want).max(axis=-1, initial=0.0))
        assert np.all(np.abs(got - want).max(axis=-1, initial=0.0) <= 1e-15 * scale)


def row_gordon_point(fld, bg, basis, points):
    """The gordon scan as (label, value) row tuples in point order, pK.point
    first, then its residuals: the report before it became one array."""
    sample = cli.sample_field(fld, bg, points)
    columns = {"dirac": cli.dirac_residual(fld, bg, basis, points, sample)}
    columns.update(cli.residual_bilinear_gordon(fld, bg, basis, points, sample))
    jet = cli.derivative_jet(fld, bg, basis, points, sample)
    for name, value in cli.residual_polar_groups(jet, bg).items():
        columns["group_" + name] = value
    derivative = cli.verify_polar_derivative(jet, fld, bg, basis, sample)
    columns["polar_derivative"] = derivative.max(axis=-1)
    transport = cli.verify_transport(jet)
    columns["transport"] = np.maximum(
        transport["velocity_transport"], transport["spin_transport"]
    )
    table = np.column_stack(list(columns.values())).tolist()
    rows = []
    for k, (x, values) in enumerate(zip(points, table)):
        tag = "p%d." % k
        rows.append((tag + "point", x))
        rows.extend(zip([tag + label for label in columns], values))
    return rows


def row_gordon(argv):
    """diracpolar gordon through the row tuples, printed one row at a time,
    and a dict of the checked rows: the exit code, stdout and stderr."""
    args = cli.build_parser().parse_args(argv)
    cfg = cli._load_config(args.config)
    basis = cli.build_chiral_basis()
    fld = cli.build_field(cfg, basis)
    bg = cli.build_background(cfg)
    if args.points == 1:
        points = cfg.point[None, :]
    else:
        rng = np.random.default_rng(args.seed)
        points = cfg.point + rng.uniform(-1.0, 1.0, size=(args.points, 4))
    rows = row_gordon_point(fld, bg, basis, points)
    out, err = io.StringIO(), io.StringIO()
    per_row_emit(rows, args.format, out)
    checked = {name: value for name, value in rows if not name.endswith(".point")}
    values = np.fromiter(checked.values(), float, len(checked))
    broken = ~np.isfinite(values)
    worst = broken.argmax() if broken.any() else values.argmax()
    name = list(checked)[worst]
    code = 0
    if broken[worst] or values[worst] >= cfg.tolerance:
        print(
            "tolerance violation: %s = %.17g (tolerance %.17g)"
            % (name, checked[name], cfg.tolerance),
            file=err,
        )
        code = 1
    return code, out.getvalue(), err.getvalue()


def poison_groups(groups):
    """residual_polar_groups with NaN at p3.group_b2 and inf at p7.group_a1:
    the first non-finite value in point order is p3's, in label order p7's."""

    def poisoned(jet, bg):
        out = {name: np.array(value, dtype=float) for name, value in groups(jet, bg).items()}
        out["b2"][3] = np.nan
        out["a1"][7] = np.inf
        return out

    return poisoned


@pytest.mark.parametrize("fmt", ["records", "table"])
@pytest.mark.parametrize(
    "points, tolerance, poison",
    [(1, "1e-6", False), (20, "1e-6", False), (20, "1e-15", False), (20, "1e-6", True)],
    ids=["one-point", "twenty-points", "broken-tolerance", "nan-residual"],
)
def test_gordon_report_matches_row_tuples(tmp_path, capsys, monkeypatch, fmt, points,
                                          tolerance, poison):
    # criterion 5's two-wave solution
    path = tmp_path / "two-wave.cfg"
    path.write_text(
        "mass = 1.0\ntolerance = %s\npoint = 0.0 0.1 0.05 -0.1\n"
        "[wave]\nvelocity = 0.25 -0.1 0.05\nspin = 0.1 0.2 1.0\n"
        "[wave]\nvelocity = 0.1 0.15 -0.08\nspin = -0.1 0.1 1.0\namplitude = 0.3\n"
        % tolerance
    )
    if poison:
        monkeypatch.setattr(cli, "residual_polar_groups", poison_groups(cli.residual_polar_groups))
    argv = ["gordon", "--config", str(path), "--points", str(points), "--seed", "7",
            "--format", fmt]
    want = row_gordon(argv)
    got = (cli.console_main(argv), *capsys.readouterr())
    assert got == want
    if poison:
        assert "tolerance violation: p3.group_b2 = nan" in got[2]
    assert got[0] == (0 if tolerance == "1e-6" and not poison else 1)


def head_require_regular(dens):
    """The squared regularity test and its messages, {row: message} of the
    rows it fails."""
    squared = dens.density_squared()
    singular = ~(squared > bilinears.REGULARITY_EPS * dens.vector[..., 0] ** 2)
    message = "scalar^2 + pseudoscalar^2 = %.3e below %.1e * density^2"
    try:
        raise_rows(singular, SingularSpinor, message, squared, bilinears.REGULARITY_EPS)
    except SingularSpinor as exc:
        return exc.rows
    return {}


def signed(lo, hi):
    """Either sign times 10 to a power in [lo, hi]."""
    sign = st.sampled_from([-1.0, 1.0])
    return st.builds(lambda sign, e: sign * 10.0**e, sign, st.floats(lo, hi))


def near_row(angle, u0, ulps):
    """S, P and U^0 whose |(S, P)| is ulps units of EPS off the bound."""
    modulus = np.sqrt(bilinears.REGULARITY_EPS) * abs(u0) * (1.0 + ulps * EPS)
    return modulus * np.cos(angle), modulus * np.sin(angle), u0


# S, P and U^0 of magnitudes 1e-150 to 1e150, so that no square leaves the
# normal floats, and rows within 12 ulp of the bound
free_rows = st.tuples(signed(-150, 150), signed(-150, 150), signed(-150, 150))
near_rows = st.builds(near_row, st.floats(0.1, 1.4), signed(-140, 140), st.integers(-12, 12))


@ORACLE
@given(
    rows=st.lists(st.one_of(free_rows, near_rows), min_size=1, max_size=8),
    nan=st.none() | st.tuples(st.integers(0, 7), st.integers(0, 2)),
)
def test_regularity_guard_matches_squared_test(rows, nan):
    values = np.zeros((len(rows), 10))
    values[:, [0, 1, 2]] = rows
    if nan is not None:
        values[nan[0] % len(rows), nan[1]] = np.nan
    dens = Densities.from_values(values)
    modulus = np.hypot(dens.scalar, dens.pseudoscalar)
    try:
        got = require_regular(dens)
    except SingularSpinor as exc:
        failing = exc.rows
    else:
        assert np.array_equal(got, modulus)
        failing = {}
    # is_regular passes exactly the rows the guard passes, next to the bound too
    assert np.flatnonzero(~is_regular(dens)).tolist() == sorted(failing)
    if nan is not None:
        assert nan[0] % len(rows) in failing
    # the two tests round differently within 4 ulp of the bound; 2e7 rows
    # next to it disagreed no further than 2 ulp
    bound = np.sqrt(bilinears.REGULARITY_EPS) * np.abs(dens.vector[:, 0])
    far = ~(np.abs(modulus - bound) <= 4 * np.spacing(bound))
    want = head_require_regular(Densities.from_values(values[far]))
    kept = np.flatnonzero(far).tolist()
    assert {kept.index(row): message for row, message in failing.items() if row in kept} == want
