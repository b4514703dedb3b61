"""Acceptance suite: one test per shipping criterion, one verdict line each.

Run with -s to see the verdict lines; each test also passes or fails on its
own, so the -v listing doubles as the per-criterion report.
"""
import time

import numpy as np

from diracpolar.algebra import ETA, build_chiral_basis, lorentz_exp, verify_basis
from diracpolar.bilinears import (
    check_fierz,
    check_spinor_constraints,
    compute_bilinears,
    random_regular_spinor,
)
from diracpolar.fieldconn import (
    Background,
    PlaneWaveComponent,
    PlaneWaveField,
    plane_wave,
    polar_jet,
    superpose,
    verify_polar_derivative,
    verify_transport,
)
from diracpolar.gordon import (
    equivalence_probe,
    residual_bilinear_gordon,
    residual_polar_groups,
)
from diracpolar.guidance import (
    CompactForms,
    momentum_from_velocity,
    momentum_long_form,
    nonrel_limit_momentum,
    velocity_from_momentum,
)
from diracpolar.polar import kinematic_velocity, polar_decompose, polar_reconstruct
from diracpolar.trajectories import integrate, sup_divergence

MASS = 1.0


def boosted_wave(basis, v3, spin, amp=1.0):
    v3 = np.asarray(v3, dtype=float)
    p = np.concatenate([[MASS * np.sqrt(1 + v3 @ v3)], MASS * v3])
    return plane_wave(p, MASS, np.asarray(spin, dtype=float), amp, basis), p


def two_wave(basis):
    f1, _ = boosted_wave(basis, (0.25, -0.1, 0.05), (0.1, 0.2, 1.0))
    f2, _ = boosted_wave(basis, (0.1, 0.15, -0.08), (-0.1, 0.1, 1.0), amp=0.3)
    return superpose(f1, f2)


def verdict(num, label, checks, elapsed, budget):
    """checks: dict name -> (value, bound); prints one line, then asserts."""
    bad = {k: v for k, (v, bound) in checks.items() if not v < bound}
    ok = not bad and elapsed < budget
    worst = max(checks, key=lambda k: checks[k][0] / checks[k][1])
    print(
        "%s criterion %d: %s (worst %s = %.3e, %.2fs)"
        % ("[PASS]" if ok else "[FAIL]", num, label, worst, checks[worst][0], elapsed)
    )
    assert not bad, bad
    assert elapsed < budget, "budget %gs exceeded: %.2fs" % (budget, elapsed)


def test_criterion_1_clifford_suite(basis):
    start = time.perf_counter()
    rep = verify_basis(basis)
    exact = max(abs(v) for v in rep.values())
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        lam = rng.standard_normal((4, 4)) * 0.7
        lam = lam - lam.T
        pair = lorentz_exp(lam, basis)
        inv = np.linalg.inv(pair.spin_rep)
        for a in range(4):
            lhs = inv @ basis.gamma[a] @ pair.spin_rep
            rhs = np.einsum("b,bij->ij", pair.vec_rep[a], basis.gamma)
            worst = max(worst, np.abs(lhs - rhs).max())
    checks = {
        # bound is the smallest positive float: only an exact zero passes
        "basis_identities_exact": (exact, np.nextafter(0.0, 1.0)),
        "lorentz_conjugation": (worst, 1e-10),
    }
    verdict(1, "clifford suite", checks, time.perf_counter() - start, 1.0)


def test_criterion_2_fierz_suite(basis):
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst_fierz = 0.0
    worst_constraint = 0.0
    for _ in range(1000):
        psi = random_regular_spinor(rng, basis)
        bil = compute_bilinears(psi, basis)
        worst_fierz = max(worst_fierz, *check_fierz(bil).values())
        worst_constraint = max(
            worst_constraint, *check_spinor_constraints(psi, basis).values()
        )
    checks = {
        "fierz_identities": (worst_fierz, 1e-10),
        "spinor_constraints": (worst_constraint, 1e-10),
    }
    verdict(2, "fierz suite", checks, time.perf_counter() - start, 5.0)


def test_criterion_3_polar_round_trip(basis):
    start = time.perf_counter()
    rng = np.random.default_rng(1003)
    worst_trip = 0.0
    worst_vel = 0.0
    for _ in range(1000):
        psi = random_regular_spinor(rng, basis)
        pd = polar_decompose(psi, basis)
        back = polar_reconstruct(pd, basis)
        worst_trip = max(worst_trip, np.abs(back - psi).max() / np.linalg.norm(psi))
        worst_vel = max(worst_vel, np.abs(kinematic_velocity(pd) - pd.velocity).max())
    checks = {
        "round_trip": (worst_trip, 1e-10),
        "kinematic_velocity": (worst_vel, 1e-10),
    }
    verdict(3, "polar round trip", checks, time.perf_counter() - start, 10.0)


def test_criterion_4_connection_oracle(basis):
    start = time.perf_counter()
    bg = Background(mass=MASS)
    rng = np.random.default_rng(1004)
    worst_p = 0.0
    for _ in range(10):
        v3 = rng.standard_normal(3) * 0.4
        spin = rng.standard_normal(3) + np.array([0.0, 0.0, 2.0])
        fld, p = boosted_wave(basis, v3, spin)
        x = rng.uniform(-0.5, 0.5, size=4)
        jet = polar_jet(fld, bg, basis, x, h=1e-3)
        worst_p = max(worst_p, np.abs(jet.p - ETA @ p).max())

    fld = two_wave(basis)
    worst_deriv = 0.0
    worst_transport = 0.0
    for _ in range(5):
        x = rng.uniform(-0.5, 0.5, size=4)
        jet = polar_jet(fld, bg, basis, x, h=1e-3)
        worst_deriv = max(worst_deriv, verify_polar_derivative(jet, fld, bg, basis).max())
        worst_transport = max(worst_transport, *verify_transport(jet).values())

    x = np.array([0.2, -0.1, 0.3, 0.1])
    e_coarse = verify_polar_derivative(
        polar_jet(fld, bg, basis, x, h=2e-3), fld, bg, basis
    ).max()
    e_fine = verify_polar_derivative(polar_jet(fld, bg, basis, x, h=1e-3), fld, bg, basis).max()
    ratio = e_coarse / e_fine
    checks = {
        "momentum_matches_wave": (worst_p, 1e-7),
        "polar_derivative": (worst_deriv, 1e-7),
        "transport_identities": (worst_transport, 1e-7),
        "order_ratio_low": (3.5, ratio + 1e-12),
        "order_ratio_high": (ratio, 4.5),
    }
    verdict(4, "connection oracle", checks, time.perf_counter() - start, 30.0)


def test_criterion_5_gordon_suite(basis):
    start = time.perf_counter()
    bg = Background(mass=MASS)
    rng = np.random.default_rng(1005)
    single, _ = boosted_wave(basis, (0.3, -0.2, 0.1), (0.2, 0.5, 1.0))
    double = two_wave(basis)
    worst = 0.0
    for fld in (single, double):
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, size=4)
            worst = max(worst, max(residual_bilinear_gordon(fld, bg, basis, x).values()))
            jet = polar_jet(fld, bg, basis, x, h=1e-3)
            worst = max(worst, max(residual_polar_groups(jet, bg).values()))

    points = [rng.uniform(-0.5, 0.5, size=4) for _ in range(20)]
    probe = equivalence_probe(double, bg, basis, points, h=1e-3)
    solution_agree = np.all((probe["dirac"] < 1e-9) & (probe["group_d"] < 1e-6))
    comp = double.components[0]
    broken = PlaneWaveField(
        [
            PlaneWaveComponent(
                comp.momentum, comp.amplitude + np.array([0.15, 0.05j, 0, 0.1])
            ),
            double.components[1],
        ]
    )
    probe = equivalence_probe(broken, bg, basis, points, h=1e-3)
    dirac, group_d = probe["dirac"], probe["group_d"]
    broken_agree = np.all(
        (dirac > 1e-3) & (group_d > 1e-3) & (0.1 < group_d / dirac) & (group_d / dirac < 10)
    )
    checks = {
        "equation_residuals": (worst, 1e-6),
        "equivalence_on_solution": (0.0 if solution_agree else 1.0, 0.5),
        "equivalence_on_perturbed": (0.0 if broken_agree else 1.0, 0.5),
    }
    verdict(5, "gordon suite", checks, time.perf_counter() - start, 60.0)


def test_criterion_6_guidance_inversion(basis):
    start = time.perf_counter()
    rng = np.random.default_rng(1006)
    worst_trip = 0.0
    worst_forms = 0.0
    done = 0
    while done < 1000:
        v3 = rng.standard_normal(3) * 0.6
        u = np.concatenate([[np.sqrt(1 + v3 @ v3)], v3])
        a = rng.standard_normal(4)
        a = a - (a @ ETA @ u) * u
        s = a / np.sqrt(-(a @ ETA @ a))
        y = rng.standard_normal(4) * 0.7
        z = rng.standard_normal(4) * 0.7
        mass_cos = rng.uniform(0.5, 2.0) * np.cos(rng.uniform(-1.2, 1.2))
        xs = float(mass_cos - y @ s)
        if abs(xs) <= 0.1:
            continue
        done += 1
        forms = CompactForms(y=y, z=z, xs=xs, mass_cos=mass_cos)
        p = momentum_from_velocity(u, s, forms)
        worst_forms = max(
            worst_forms, np.abs(p - momentum_long_form(u, s, forms)).max()
        )
        u_back = velocity_from_momentum(p, s, forms)
        worst_trip = max(worst_trip, np.abs(u_back - u).max())
    checks = {
        "velocity_round_trip": (worst_trip, 1e-10),
        "momentum_form_gap": (worst_forms, 1e-12),
    }
    verdict(6, "guidance inversion", checks, time.perf_counter() - start, 5.0)


def test_criterion_7_nonrelativistic_limit(basis):
    start = time.perf_counter()
    f1, _ = boosted_wave(basis, (0.02, -0.015, 0.01), (0.1, 0.0, 1.0))
    f2, _ = boosted_wave(basis, (-0.01, 0.02, 0.015), (0.0, 0.1, 1.0), amp=0.3)
    fld = superpose(f1, f2)
    bg = Background(mass=MASS)
    rng = np.random.default_rng(1007)
    worst = 0.0
    for _ in range(10):
        x = rng.uniform(-0.4, 0.4, size=4)
        jet = polar_jet(fld, bg, basis, x, h=1e-3)
        u = jet.velocity
        v3 = u[1:] / u[0]
        speed = np.linalg.norm(v3)
        assert speed <= 0.05
        p_low = ETA @ jet.p
        p_nr = nonrel_limit_momentum(v3, jet.spin[1:], jet.dlogdensity[1:], MASS)
        bound = 5 * speed**2 * np.linalg.norm(p_low)
        worst = max(worst, np.abs(p_low[1:] - p_nr).max() / bound)
    checks = {"nr_momentum_ratio": (worst, 1.0)}
    verdict(7, "non-relativistic limit", checks, time.perf_counter() - start, 10.0)


def test_criterion_8_trajectories(basis):
    start = time.perf_counter()
    bg = Background(mass=MASS)
    fld, p = boosted_wave(basis, (0.3, -0.2, 0.1), (0.2, 0.5, 1.0))
    tr = integrate(fld, bg, basis, np.zeros(4), tau_max=10.0, h_tau=0.1, mode="kinematic")
    line = tr.tau[:, None] * (p / MASS)[None, :]
    straight = np.abs(tr.x - line).max()

    fld = two_wave(basis)
    x0 = np.array([0.0, 0.05, -0.1, 0.15])
    arcs = {}
    worst_unit = 0.0
    for mode in ("kinematic", "guidance"):
        arcs[mode] = integrate(fld, bg, basis, x0, tau_max=10.0, h_tau=0.1, mode=mode)
        assert arcs[mode].completed
        worst_unit = max(worst_unit, arcs[mode].diagnostics["max_unit_violation"])
    divergence = sup_divergence(arcs["kinematic"], arcs["guidance"])

    rough = superpose(
        boosted_wave(basis, (0.8, 0.0, 0.0), (0.2, 0.5, 1.0))[0],
        boosted_wave(basis, (-0.5, 0.3, 0.0), (0.0, 0.1, 1.0), amp=0.5)[0],
    )
    y0 = np.array([0.0, 0.1, 0.05, -0.1])
    ref = integrate(rough, bg, basis, y0, tau_max=2.0, h_tau=0.0125, mode="kinematic")
    e = []
    for h in (0.1, 0.05):
        tr_h = integrate(rough, bg, basis, y0, tau_max=2.0, h_tau=h, mode="kinematic")
        e.append(np.abs(tr_h.x[-1] - ref.x[-1]).max())
    order = np.log2(e[0] / e[1])
    checks = {
        "straight_line": (straight, 1e-10),
        "unit_velocity": (worst_unit, 1e-6),
        "mode_divergence": (divergence, 1e-5),
        "rk4_order_low": (3.5, order + 1e-12),
        "rk4_order_high": (order, 4.5),
    }
    verdict(8, "trajectories", checks, time.perf_counter() - start, 60.0)
