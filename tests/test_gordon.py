import numpy as np
import pytest

from diracpolar.algebra import ETA
from diracpolar.fieldconn import (
    Background,
    ConstantVector,
    PlaneWaveComponent,
    PlaneWaveField,
    plane_wave,
    polar_jet,
    superpose,
)
from diracpolar.gordon import (
    compute_potentials,
    dirac_residual,
    equivalence_probe,
    group_d_residual,
    residual_bilinear_gordon,
    residual_polar_groups,
)

from conftest import LinearVector, gauge_shift_linear, torsion_wave

MASS = 1.0

TEN_KEYS = {
    "vector_divergence",
    "pseudoscalar_kinetic",
    "vector_curl",
    "axial_divergence",
    "scalar_kinetic",
    "axial_curl",
    "vector_recovery",
    "axial_recovery",
    "scalar_gradient",
    "pseudoscalar_gradient",
}

GROUP_KEYS = {"a1", "a2", "a3", "b1", "b2", "b3", "c1", "c2", "d1", "d2"}


def boosted_wave(basis, v3, spin, amp=1.0):
    v3 = np.asarray(v3, dtype=float)
    p = np.concatenate([[MASS * np.sqrt(1 + v3 @ v3)], MASS * v3])
    return plane_wave(p, MASS, np.asarray(spin, dtype=float), amp, basis)


def two_wave(basis):
    f1 = boosted_wave(basis, (0.25, -0.1, 0.05), (0.1, 0.2, 1.0))
    f2 = boosted_wave(basis, (0.1, 0.15, -0.08), (-0.1, 0.1, 1.0), amp=0.3)
    return superpose(f1, f2)


def test_free_wave_balances(basis):
    fld = boosted_wave(basis, (0.3, -0.2, 0.1), (0.2, 0.5, 1.0))
    bg = Background(mass=MASS)
    res = residual_bilinear_gordon(fld, bg, basis, np.array([0.2, 0.1, -0.3, 0.4]))
    assert set(res) == TEN_KEYS
    assert max(res.values()) < 1e-12, res


def test_two_wave_balances(basis):
    fld = two_wave(basis)
    bg = Background(mass=MASS)
    for x in [np.zeros(4), np.array([0.3, -0.2, 0.5, 0.1])]:
        res = residual_bilinear_gordon(fld, bg, basis, x)
        assert max(res.values()) < 1e-12, res


def test_torsion_wave_balances(basis):
    # constant axial background with nonzero coupling hits every torsion term
    w = np.array([0.1, 0.05, -0.2, 0.3])
    coup = 0.4
    fld, p4 = torsion_wave([0.2, -0.1, 0.3], MASS, coup, w, basis)
    bg = Background(
        mass=MASS, torsion_coupling=coup, torsion_vector=ConstantVector(w)
    )
    assert dirac_residual(fld, bg, basis, np.zeros(4)) < 1e-12
    res = residual_bilinear_gordon(fld, bg, basis, np.array([0.1, 0.2, 0.3, -0.2]))
    assert max(res.values()) < 1e-11, res


def test_charged_wave_balances(basis):
    # constant potential is a gauge ghost: shifted free wave stays a solution
    fld = boosted_wave(basis, (0.2, 0.1, -0.15), (0.0, 0.3, 1.0))
    bg = Background(mass=MASS, charge=0.6, em_potential=ConstantVector(np.zeros(4)))
    fld2, bg2 = gauge_shift_linear(fld, bg, np.array([0.3, -0.1, 0.2, 0.4]))
    assert dirac_residual(fld2, bg2, basis, np.zeros(4)) < 1e-12
    res = residual_bilinear_gordon(fld2, bg2, basis, np.array([0.1, 0.0, -0.2, 0.3]))
    assert max(res.values()) < 1e-12, res


def test_broken_field_fails_balances(basis):
    # spoiled amplitude spinor is no longer a solution and the residuals see it
    fld = boosted_wave(basis, (0.3, 0.0, 0.1), (0.0, 0.0, 1.0))
    comp = fld.components[0]
    bad = PlaneWaveField(
        [PlaneWaveComponent(comp.momentum, comp.amplitude + np.array([0.2, 0, 0.1j, 0]))]
    )
    bg = Background(mass=MASS)
    res = residual_bilinear_gordon(bad, bg, basis, np.zeros(4))
    assert max(res.values()) > 1e-3
    assert dirac_residual(bad, bg, basis, np.zeros(4)) > 1e-3


def test_off_shell_residual_scales(basis):
    # residual of a slightly off-shell wave tracks the mass-shell violation
    p = np.array([1.1, 0.0, 0.0, 0.3])
    psi0 = plane_wave(
        np.array([np.sqrt(1 + 0.09), 0, 0, 0.3]), MASS, [0, 0, 1.0], 1.0, basis
    ).components[0].amplitude
    fld = PlaneWaveField([PlaneWaveComponent(p, psi0)])
    bg = Background(mass=MASS)
    r = dirac_residual(fld, bg, basis, np.zeros(4))
    gap = abs(p @ ETA @ p - MASS**2)
    assert 0.1 * gap / (2 * np.linalg.norm(p)) < r < 10 * gap


@pytest.mark.parametrize(
    "mass_exponent, amplitude_exponent", [(500, 100), (-500, -100), (0, 600), (0, -600)]
)
def test_dirac_residual_keeps_its_bits_at_any_scale(basis, mass_exponent, amplitude_exponent):
    # scaling the mass and the momentum by 2^a and psi by 2^b scales the
    # residual by 2^a exactly: both norms are taken in units of a power of two
    # near |psi|, so their squares neither overflow nor underflow
    psi0 = plane_wave(
        np.array([np.sqrt(1 + 0.09), 0, 0, 0.3]), MASS, [0, 0, 1.0], 1.0, basis
    ).components[0].amplitude
    p, x = np.array([1.1, 0.0, 0.0, 0.3]), np.array([0.2, 0.1, -0.3, 0.4])
    want = dirac_residual(
        PlaneWaveField([PlaneWaveComponent(p, psi0)]), Background(mass=MASS), basis, x
    )
    scale, size = 2.0**mass_exponent, 2.0**amplitude_exponent
    fld = PlaneWaveField([PlaneWaveComponent(scale * p, size * psi0)])
    got = dirac_residual(fld, Background(mass=scale * MASS), basis, x / scale)
    assert 0.0 < want and got / scale == want


def test_potentials_rest_wave(basis):
    fld = plane_wave([MASS, 0, 0, 0], MASS, [0, 0, 1.0], 1.0, basis)
    bg = Background(mass=MASS)
    jet = polar_jet(fld, bg, basis, np.zeros(4), h=1e-3)
    e, f = compute_potentials(jet, bg)
    # at rest with zero chiral angle: e = m s lowered, f = 0
    assert np.abs(e - MASS * ETA @ np.array([0, 0, 0, 1.0])).max() < 1e-10
    assert np.abs(f).max() < 1e-10


def test_polar_groups_close_on_solutions(basis):
    bg = Background(mass=MASS)
    for fld in [
        boosted_wave(basis, (0.3, -0.2, 0.1), (0.2, 0.5, 1.0)),
        two_wave(basis),
    ]:
        jet = polar_jet(fld, bg, basis, np.array([0.1, 0.2, -0.1, 0.3]), h=1e-3)
        groups = residual_polar_groups(jet, bg)
        assert set(groups) == GROUP_KEYS
        assert max(groups.values()) < 1e-6, groups


def test_polar_groups_with_torsion(basis):
    # a single eigenwave keeps the chiral angle at zero, so superpose two of
    # them: still an exact solution, but with nonzero chiral angle the sine
    # terms and the torsion shifts in both potentials are all exercised
    w = np.array([0.0, 0.1, -0.05, 0.2])
    coup = 0.5
    f1, _ = torsion_wave([0.15, 0.1, -0.2], MASS, coup, w, basis)
    f2, _ = torsion_wave([-0.1, 0.2, 0.1], MASS, coup, w, basis, amplitude=0.35, branch=-2)
    fld = superpose(f1, f2)
    bg = Background(
        mass=MASS, torsion_coupling=coup, torsion_vector=ConstantVector(w)
    )
    x = np.array([0.1, 0.2, -0.1, 0.3])
    assert dirac_residual(fld, bg, basis, x) < 1e-12
    jet = polar_jet(fld, bg, basis, x, h=1e-3)
    assert abs(jet.chiral_angle) > 1e-3
    groups = residual_polar_groups(jet, bg)
    assert max(groups.values()) < 1e-7, groups


def test_equivalence_probe_both_directions(basis):
    rng = np.random.default_rng(31)
    fld = two_wave(basis)
    bg = Background(mass=MASS)
    points = [rng.uniform(-0.5, 0.5, size=4) for _ in range(20)]
    probe = equivalence_probe(fld, bg, basis, points, h=1e-3)
    assert probe["dirac"].shape == probe["group_d"].shape == (20,)
    assert np.all(probe["dirac"] < 1e-9)
    assert np.all(probe["group_d"] < 1e-6)

    # perturb the amplitude so the field stops solving the equation; both
    # residuals must light up together, within a common factor
    comp = fld.components[0]
    bad = PlaneWaveField(
        [
            PlaneWaveComponent(comp.momentum, comp.amplitude + np.array([0.15, 0.05j, 0, 0.1])),
            fld.components[1],
        ]
    )
    probe = equivalence_probe(bad, bg, basis, points[:5], h=1e-3)
    assert np.all(probe["dirac"] > 1e-3)
    assert np.all(probe["group_d"] > 1e-3)
    ratio = probe["group_d"] / probe["dirac"]
    assert np.all((0.1 < ratio) & (ratio < 10.0)), ratio


def test_group_d_residual_is_max_of_d(basis):
    fld = two_wave(basis)
    bg = Background(mass=MASS)
    jet = polar_jet(fld, bg, basis, np.zeros(4), h=1e-3)
    groups = residual_polar_groups(jet, bg)
    assert group_d_residual(jet, bg) == max(groups["d1"], groups["d2"])


# Residuals of a non-solution, recorded from the per-point implementation
# (one field evaluation and one jet per point, Python loops over the
# directions): a wrong sign or factor in any single term moves them, where
# on a solution every term sits at roundoff.
NON_SOLUTION_POINTS = np.array(
    [[0.0, 0.0, 0.0, 0.0], [0.3, -0.2, 0.5, 0.1], [-0.4, 0.25, -0.15, 0.35]]
)
PARENT_RESIDUALS = {
    "dirac": (0.14582323475986989, 0.1873932414877654, 0.24561785445855475),
    "vector_divergence": (0.0020109404036678918, 0.001870504278610762, 0.0021086781747574447),
    "pseudoscalar_kinetic": (0.038701299222456575, 0.021600744370109917, 0.15613837036904957),
    "vector_curl": (0.19605550818420756, 0.2963557920039936, 0.32244729348198214),
    "axial_divergence": (0.03162211820526337, 0.023976671562666745, 0.03832722944441146),
    "scalar_kinetic": (0.000835600689825262, 0.013093341383561247, 0.027301643087325366),
    "axial_curl": (0.19099293181088567, 0.28836621162804815, 0.30868697278599017),
    "vector_recovery": (0.1825574805088935, 0.29460980398130376, 0.3121989444141251),
    "axial_recovery": (0.19684539223143446, 0.1915693477806262, 0.3191899418816217),
    "scalar_gradient": (0.17693521045492802, 0.2703763030340101, 0.18928559144070883),
    "pseudoscalar_gradient": (0.1906997959403196, 0.19045163316422115, 0.30081279386424203),
    "group_a1": (0.001049700154928884, 0.0009750243456657108, 0.0011022805216253887),
    "group_a2": (0.040403743125755565, 0.022519329905120795, 0.16323807692890466),
    "group_a3": (0.1023399285274475, 0.15447925640019106, 0.1685545839204259),
    "group_b1": (0.016506576867427705, 0.01249814747324329, 0.020034995929458906),
    "group_b2": (0.0008723581629821453, 0.013650144116534424, 0.028543065419704194),
    "group_b3": (0.09969729067119634, 0.15031458519544255, 0.161361578509701),
    "group_c1": (0.09444517332848668, 0.15289574258314245, 0.16295585911305696),
    "group_c2": (0.10353301411028017, 0.10088601437165273, 0.16766596219672938),
    "group_d1": (0.09153687867745633, 0.14026791255116666, 0.09741653473781582),
    "group_d2": (0.10030100155084429, 0.10021865719275733, 0.1581977190435057),
}


def perturbed_background_field(basis):
    """Two-wave field with a spoiled amplitude, in a background that switches
    on every coupling: torsion, charge and affine em and torsion potentials."""
    fld = two_wave(basis)
    comp = fld.components[0]
    bad = PlaneWaveField(
        [
            PlaneWaveComponent(comp.momentum, comp.amplitude + np.array([0.15, 0.05j, 0, 0.1])),
            fld.components[1],
        ]
    )
    slope_a = np.array(
        [[0, 0.1, 0, 0], [0.05, 0, -0.2, 0], [0, 0.3, 0, 0.1], [-0.1, 0, 0, 0.2]]
    )
    slope_w = np.array(
        [[0.2, 0, 0.1, 0], [0, -0.1, 0, 0.05], [0.1, 0, 0, -0.3], [0, 0.2, 0.1, 0]]
    )
    bg = Background(
        mass=MASS,
        charge=0.6,
        torsion_coupling=0.4,
        em_potential=LinearVector([0.1, -0.2, 0.05, 0.3], slope_a),
        torsion_vector=LinearVector([0.05, 0.1, -0.2, 0.3], slope_w),
    )
    return bad, bg


def all_residuals(fld, bg, basis, x):
    out = {"dirac": dirac_residual(fld, bg, basis, x)}
    out.update(residual_bilinear_gordon(fld, bg, basis, x))
    jet = polar_jet(fld, bg, basis, x, h=1e-3)
    for name, value in residual_polar_groups(jet, bg).items():
        out["group_" + name] = value
    return out


def test_batched_residuals_reproduce_recorded_non_solution(basis):
    fld, bg = perturbed_background_field(basis)
    batch = all_residuals(fld, bg, basis, NON_SOLUTION_POINTS)
    assert list(batch) == list(PARENT_RESIDUALS)
    for name, recorded in PARENT_RESIDUALS.items():
        assert np.shape(batch[name]) == (3,)
        rel = np.abs(batch[name] - recorded) / np.abs(recorded)
        assert rel.max() < 1e-10, (name, rel)


def test_batch_equals_stacked_single_calls(basis):
    fld, bg = perturbed_background_field(basis)
    batch = all_residuals(fld, bg, basis, NON_SOLUTION_POINTS)
    singles = [all_residuals(fld, bg, basis, x) for x in NON_SOLUTION_POINTS]
    for name, values in batch.items():
        stacked = np.array([single[name] for single in singles])
        assert all(np.ndim(single[name]) == 0 for single in singles)
        # the same arithmetic, summed in another order
        assert np.abs(values - stacked).max() <= 1e-13 * np.abs(stacked).max(), name
