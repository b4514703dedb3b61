import dataclasses

import numpy as np
import pytest

from diracpolar import guidance
from diracpolar.algebra import ETA, ETA_SIGNS, mdot
from diracpolar.errors import DegenerateInversion, DegenerateX
from diracpolar.fieldconn import (
    Background,
    ConstantVector,
    derivative_jet,
    plane_wave,
    polar_jet,
    superpose,
)
from diracpolar.guidance import (
    CompactForms,
    compact_forms,
    momentum_from_velocity,
    momentum_long_form,
    nonrel_limit_momentum,
    velocity_from_momentum,
    X_GUARD,
)
from diracpolar.trajectories import velocity_field

MASS = 1.0


def random_frame(rng, speed=0.6):
    v3 = rng.standard_normal(3) * speed
    u = np.concatenate([[np.sqrt(1 + v3 @ v3)], v3])
    a = rng.standard_normal(4)
    a = a - mdot(a, u) * u
    s = a / np.sqrt(-mdot(a, a))
    return u, s


def random_forms(rng, s):
    y = rng.standard_normal(4) * 0.7
    z = rng.standard_normal(4) * 0.7
    mass_cos = rng.uniform(0.5, 2.0) * np.cos(rng.uniform(-1.2, 1.2))
    xs = mass_cos - y @ s
    return CompactForms(y=y, z=z, xs=float(xs), mass_cos=float(mass_cos))


def test_momentum_forms_agree(basis):
    rng = np.random.default_rng(61)
    for _ in range(1000):
        u, s = random_frame(rng)
        forms = random_forms(rng, s)
        pa = momentum_from_velocity(u, s, forms)
        pb = momentum_long_form(u, s, forms)
        assert np.abs(pa - pb).max() < 1e-12


def test_inversion_round_trip(basis):
    rng = np.random.default_rng(62)
    checked = 0
    while checked < 1000:
        u, s = random_frame(rng)
        forms = random_forms(rng, s)
        if abs(forms.xs) <= 0.1:
            continue
        p = momentum_from_velocity(u, s, forms)
        back = velocity_from_momentum(p, s, forms)
        assert np.abs(back - u).max() < 1e-10
        checked += 1


def test_inversion_ignores_spin_admixture(basis):
    # the inverse matrix annihilates s, so shifting p along s changes nothing
    rng = np.random.default_rng(63)
    u, s = random_frame(rng)
    forms = random_forms(rng, s)
    if abs(forms.xs) <= 0.1:
        forms = CompactForms(forms.y, forms.z, 1.0, forms.mass_cos)
    p = momentum_from_velocity(u, s, forms)
    v1 = velocity_from_momentum(p, s, forms)
    v2 = velocity_from_momentum(p + 3.7 * s, s, forms)
    assert np.abs(v1 - v2).max() < 1e-12


def test_degenerate_x_guard(basis):
    forms = CompactForms(
        y=np.zeros(4), z=np.zeros(4), xs=1e-14, mass_cos=0.0
    )
    with pytest.raises(DegenerateX):
        velocity_from_momentum(np.array([1.0, 0, 0, 0]), np.array([0, 0, 0, 1.0]), forms)


POINTS = np.array([[0.0, 0.1, 0.05, -0.1], [0.3, -0.2, 0.1, 0.4], [0.1, 0.0, 0.2, 0.0]])


def two_waves(basis):
    """Criterion 5's two-wave solution."""
    return superpose(
        boosted_wave(basis, (0.25, -0.1, 0.05), (0.1, 0.2, 1.0)),
        boosted_wave(basis, (0.1, 0.15, -0.08), (-0.1, 0.1, 1.0), amp=0.3),
    )


def test_guidance_evaluation_guards_xs_once(basis, monkeypatch):
    calls = []

    def counting(xs):
        calls.append(np.shape(xs))
        return require_xs(xs)

    require_xs = guidance._require_xs
    monkeypatch.setattr(guidance, "_require_xs", counting)
    vel = velocity_field(two_waves(basis), Background(mass=MASS), basis, "guidance")
    vel(np.zeros(4))
    vel(POINTS)
    assert calls == [(), (3,)]


def test_compact_forms_leaves_degenerate_xs_to_the_inversion(basis):
    # a torsion vector xs0 s at the second point shifts its xs by -xs0 to
    # rounding: compact_forms returns the forms, and velocity_from_momentum
    # names that point with the message compact_forms once raised
    jet = derivative_jet(two_waves(basis), Background(mass=MASS), basis, POINTS)
    xs0 = compact_forms(jet, Background(mass=MASS)).xs[1]
    bg = Background(mass=MASS, gw=ConstantVector(xs0 * jet.spin[1]))
    forms = compact_forms(jet, bg)
    degenerate = np.abs(forms.xs) < X_GUARD * MASS
    assert degenerate.tolist() == [False, True, False]
    with pytest.raises(DegenerateX) as info:
        velocity_from_momentum(jet.p * ETA_SIGNS, jet.spin, forms)
    assert info.value.rows == {1: "effective mass scale %.3e too close to zero" % forms.xs[1]}


def test_degenerate_inversion_guard(basis):
    # spacelike zeta of unit length orthogonal to s zeroes the denominator
    forms = CompactForms(
        y=np.zeros(4), z=np.array([0.0, -1.0, 0.0, 0.0]), xs=1.0, mass_cos=1.0
    )
    with pytest.raises(DegenerateInversion):
        velocity_from_momentum(
            np.array([1.0, 0, 0, 0]), np.array([0.0, 0, 0, 1.0]), forms
        )


def boosted_wave(basis, v3, spin, amp=1.0):
    v3 = np.asarray(v3, dtype=float)
    p = np.concatenate([[MASS * np.sqrt(1 + v3 @ v3)], MASS * v3])
    return plane_wave(p, MASS, np.asarray(spin, dtype=float), amp, basis)


def test_field_momentum_matches_connection(basis):
    # on a solution the momentum rebuilt from the velocity map coincides with
    # the covector extracted from the phase and the connection
    fld = superpose(
        boosted_wave(basis, (0.25, -0.1, 0.05), (0.1, 0.2, 1.0)),
        boosted_wave(basis, (0.1, 0.15, -0.08), (-0.1, 0.1, 1.0), amp=0.3),
    )
    bg = Background(mass=MASS)
    for x in [np.zeros(4), np.array([0.3, -0.2, 0.1, 0.4])]:
        jet = polar_jet(fld, bg, basis, x, h=1e-3)
        forms = compact_forms(jet, bg)
        p_guid = momentum_from_velocity(jet.velocity, jet.spin, forms)
        assert np.abs(p_guid - ETA @ jet.p).max() < 1e-6
        back = velocity_from_momentum(ETA @ jet.p, jet.spin, forms)
        assert np.abs(back - jet.velocity).max() < 1e-6


def test_nonrel_limit_on_slow_field(basis):
    fld = superpose(
        boosted_wave(basis, (0.02, -0.015, 0.01), (0.1, 0.0, 1.0)),
        boosted_wave(basis, (-0.01, 0.02, 0.015), (0.0, 0.1, 1.0), amp=0.3),
    )
    bg = Background(mass=MASS)
    rng = np.random.default_rng(64)
    for _ in range(10):
        x = rng.uniform(-0.4, 0.4, size=4)
        jet = polar_jet(fld, bg, basis, x, h=1e-3)
        u = jet.velocity
        v3 = u[1:] / u[0]
        speed = np.linalg.norm(v3)
        assert speed <= 0.05
        p_exact = (ETA @ jet.p)[1:]
        p_nr = nonrel_limit_momentum(v3, jet.spin[1:], jet.dlogdensity[1:], MASS)
        bound = 5 * speed**2 * max(np.linalg.norm(ETA @ jet.p), 1e-30)
        assert np.abs(p_exact - p_nr).max() < bound


def test_nonrel_formula_shape():
    p = nonrel_limit_momentum([0.01, 0, 0], [0, 0, 1.0], [0, 0.2, 0], 2.0)
    # cross product: (0, 0.2, 0) x (0, 0, 1) = (0.2, 0, 0)
    assert np.abs(p - [0.02 + 0.2, 0.0, 0.0]).max() < 1e-15
