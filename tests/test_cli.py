import io
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

import diracpolar
from diracpolar import cli
from diracpolar.cli import console_main, parse_config
from diracpolar.errors import ConfigError, OffShell

from conftest import BoxWindow, per_row_emit

TWO_WAVE = """\
mass = 1.0
tolerance = 1e-6
step = 1e-3
point = 0.0 0.1 0.05 -0.1

[wave]
velocity = 0.25 -0.1 0.05
spin = 0.2 0.5 1.0

[wave]
velocity = 0.1 0.15 -0.08
amplitude = 0.3
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def records(captured):
    out = {}
    for line in captured.splitlines():
        if "=" in line and not line.startswith("#"):
            key, _, value = line.partition("=")
            out[key] = value
    return out


def test_identities_passes(capsys):
    code = console_main(["identities", "--random", "20", "--format", "records"])
    got = records(capsys.readouterr().out)
    assert code == 0
    assert float(got["anticommutator"]) == 0.0
    assert float(got["lorentz_conjugation"]) < 1e-10
    assert float(got["density_interdependence"]) < 1e-10
    assert float(got["spinor_constraints"]) < 1e-10


def test_identities_deterministic(capsys):
    args = ["identities", "--random", "10", "--seed", "42", "--format", "records"]
    assert console_main(args) == 0
    first = capsys.readouterr().out
    assert console_main(args) == 0
    assert capsys.readouterr().out == first
    assert list(records(first)) == [
        "anticommutator",
        "sigma_definition",
        "sigma_duality",
        "triple_product",
        "pi_anticommutation",
        "pi_square",
        "sigma_orthogonality",
        "lorentz_conjugation",
        "density_interdependence",
        "spinor_constraints",
    ]


def test_identities_draw_count(capsys):
    # no draws leave the random checks at 0; a negative count is a usage error
    assert console_main(["identities", "--random", "0", "--format", "records"]) == 0
    got = records(capsys.readouterr().out)
    assert float(got["lorentz_conjugation"]) == float(got["spinor_constraints"]) == 0.0
    assert console_main(["identities", "--random", "-1"]) == 2
    assert "--random" in capsys.readouterr().err


def test_identities_tolerance_violation(capsys):
    # impossible tolerance forces exit 1 and names the offender
    code = console_main(["identities", "--random", "5", "--tolerance", "1e-30"])
    err = capsys.readouterr().err
    assert code == 1
    assert "tolerance violation" in err


def test_conventions_sheet_is_stable(capsys):
    assert console_main(["identities", "--conventions"]) == 0
    first = capsys.readouterr().out
    assert console_main(["identities", "--conventions"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "metric: diag(+1, -1, -1, -1)" in first
    assert "lowered epsilon_0123 = +1" in first
    assert "rest seed spinor: (1, 0, 1, 0)" in first


def test_polar_round_trip(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TWO_WAVE)
    code = console_main(["polar", "--config", cfg, "--format", "records"])
    got = records(capsys.readouterr().out)
    assert code == 0
    assert float(got["round_trip_residual"]) < 1e-12
    assert float(got["density"]) > 0
    velocity = np.array([float(t) for t in got["velocity"].split()])
    assert velocity[0] > 1.0


def test_polar_direct_spinor(capsys):
    code = console_main(
        ["polar", "--spinor", "1,0,0,0,1,0,0,0", "--format", "records"]
    )
    got = records(capsys.readouterr().out)
    assert code == 0
    # the seed spinor decomposes trivially
    assert abs(float(got["density"]) - 1.0) < 1e-14
    assert abs(float(got["chiral_angle"])) < 1e-14


def test_polar_zero_spinor_is_config_error(capsys):
    code = console_main(["polar", "--spinor", "0,0,0,0,0,0,0,0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "SingularSpinor" in err


def test_polar_needs_some_input(capsys):
    code = console_main(["polar"])
    assert code == 2
    assert "--config or --spinor" in capsys.readouterr().err


def test_gordon_on_solution(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TWO_WAVE)
    code = console_main(["gordon", "--config", cfg, "--format", "records"])
    got = records(capsys.readouterr().out)
    assert code == 0
    assert float(got["p0.dirac"]) < 1e-12
    assert float(got["p0.group_d1"]) < 1e-6
    assert "p0.vector_divergence" in got and "p0.pseudoscalar_gradient" in got


def test_gordon_sampled_points(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TWO_WAVE)
    args = ["gordon", "--config", cfg, "--points", "3", "--seed", "7",
            "--format", "records"]
    code = console_main(args)
    first = records(capsys.readouterr().out)
    assert code == 0
    assert "p0.point" in first and "p2.point" in first
    assert float(first["p2.group_d2"]) < 1e-6
    # same seed reproduces the same sampled points
    assert console_main(args) == 0
    assert records(capsys.readouterr().out) == first


# labels of one sampled point, in report order after pK.point
GORDON_LABELS = [
    "dirac", "vector_divergence", "pseudoscalar_kinetic", "vector_curl",
    "axial_divergence", "scalar_kinetic", "axial_curl", "vector_recovery",
    "axial_recovery", "scalar_gradient", "pseudoscalar_gradient",
    "group_a1", "group_a2", "group_a3", "group_b1", "group_b2", "group_b3",
    "group_c1", "group_c2", "group_d1", "group_d2", "polar_derivative", "transport",
]

# pK.point lines of TWO_WAVE with --points 5 --seed 7, as the per-point scan
# printed them
SEED7_POINTS = [
    "0.25019093320933394 0.89442760193915094 0.60137138049038708 -0.64958562001881626",
    "-0.39966743017754913 0.84710689079252377 -0.93946939086885051 0.54245683676553258",
    "0.59413885750409245 0.035869905687441556 -0.34393514636137296 -0.54314877579845333",
    "-0.49026082469175081 -0.0098473882347068498 0.059096517915906602 0.006994704148984926",
    "0.99100056686878535 0.6853238384275061 0.29435845888232531 0.87792029536376981",
]


def test_gordon_scan_keeps_labels_and_points(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TWO_WAVE)
    args = ["gordon", "--config", cfg, "--points", "5", "--seed", "7", "--format", "records"]
    assert console_main(args) == 0
    lines = [line.split("=", 1) for line in capsys.readouterr().out.splitlines()]
    expected = [
        "p%d.%s" % (k, label) for k in range(5) for label in ["point"] + GORDON_LABELS
    ]
    assert [key for key, _ in lines] == expected
    assert [value for key, value in lines if key.endswith(".point")] == SEED7_POINTS


@pytest.mark.parametrize("fmt", ["table", "records"])
def test_emit_matches_per_row_printing(basis, fmt):
    run = parse_config(TWO_WAVE)
    points = run.point + np.random.default_rng(7).uniform(-1.0, 1.0, size=(20, 4))
    labels, table = cli._gordon_point(
        cli.build_field(run, basis), cli.build_background(run), basis, points
    )
    rows = [
        ("p%d.%s" % (k, label), value)
        for k, row in enumerate(table)
        for label, value in zip(["point"] + labels, [row[:4], *row[4:]])
    ]
    assert len(rows) == 20 * (1 + len(GORDON_LABELS))
    want, got = io.StringIO(), io.StringIO()
    per_row_emit(rows, fmt, want)
    cli.emit(rows, fmt, got)
    assert got.getvalue() == want.getvalue()


def test_gordon_scan_reads_the_field_once(basis, monkeypatch):
    run = parse_config(TWO_WAVE)
    fld = cli.build_field(run, basis)
    calls = []

    def counted(x):
        calls.append(np.shape(x))
        return block(x)

    block = fld.block
    monkeypatch.setattr(fld, "block", counted)
    points = run.point + np.random.default_rng(7).uniform(-1.0, 1.0, size=(20, 4))
    cli._gordon_point(fld, cli.build_background(run), basis, points)
    assert calls == [(20, 4)]


def test_parser_is_reused_without_leaking_options(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, TWO_WAVE)
    plain = ["gordon", "--config", cfg, "--points", "2", "--format", "records"]
    assert console_main(plain) == 0
    first = capsys.readouterr().out

    def rebuilt():
        raise AssertionError("parser built a second time")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    # another seed draws other points than the config's seed
    assert console_main(plain + ["--seed", "5"]) == 0
    assert capsys.readouterr().out != first
    assert console_main(plain) == 0
    assert capsys.readouterr().out == first
    with pytest.raises(SystemExit) as exc:
        console_main(["gordon", "--config", cfg, "--points", "many"])
    assert exc.value.code == 2
    assert console_main(plain) == 0
    assert capsys.readouterr().out == first


def test_gordon_step_option_removed(tmp_path, capsys):
    # the exact jet has no stencil step; abbreviations are off, so --h is not
    # read as --help either
    cfg = write_cfg(tmp_path, TWO_WAVE)
    for option in ("--h", "--poin"):
        with pytest.raises(SystemExit) as exc:
            console_main(["gordon", "--config", cfg, option, "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_gordon_tolerance_violation(tmp_path, capsys, monkeypatch):
    from diracpolar.fieldconn import PlaneWaveComponent, PlaneWaveField

    build_field = cli.build_field

    def perturbed(run, basis):
        # criterion 5's non-solution: the first wave's amplitude perturbed
        first, second = build_field(run, basis).components
        amplitude = first.amplitude + np.array([0.15, 0.05j, 0, 0.1])
        return PlaneWaveField([PlaneWaveComponent(first.momentum, amplitude), second])

    monkeypatch.setattr(cli, "build_field", perturbed)
    cfg = write_cfg(tmp_path, TWO_WAVE)
    code = console_main(["gordon", "--config", cfg])
    err = capsys.readouterr().err
    assert code == 1
    assert "tolerance violation" in err


def test_guidance_consistency(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TWO_WAVE)
    code = console_main(["guidance", "--config", cfg, "--format", "records"])
    got = records(capsys.readouterr().out)
    assert code == 0
    assert float(got["momentum_form_gap"]) < 1e-14
    assert float(got["velocity_round_trip"]) < 1e-6
    assert "zeta" in got and "effective_mass_scale" in got


def test_guidance_jet_is_exact(tmp_path, capsys):
    # the step key still parses, but the guidance jet has no stencil to size
    texts = (TWO_WAVE, TWO_WAVE.replace("step = 1e-3", "step = 0.5"),
             TWO_WAVE.replace("step = 1e-3\n", ""))
    outs = []
    for text in texts:
        cfg = write_cfg(tmp_path, text)
        assert console_main(["guidance", "--config", cfg, "--format", "records"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    got = records(outs[0])
    assert float(got["momentum_consistency"]) <= 1e-13
    assert float(got["velocity_round_trip"]) <= 1e-13


def test_trajectory_completes(tmp_path, capsys):
    # globals live above the wave sections
    cfg = write_cfg(tmp_path, "tau_step = 0.25\n" + TWO_WAVE)
    argv = ["trajectory", "--config", cfg, "--steps", "4", "--mode", "guidance"]
    code = console_main(argv + ["--format", "records"])
    got = capsys.readouterr().out
    assert code == 0
    assert "status=completed" in got
    samples = [line for line in got.splitlines() if line.startswith("sample=")]
    assert len(samples) == 5
    first = samples[0].split("=", 1)[1].split()
    assert len(first) == 10    # seed index, tau, x, u
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0


def test_trajectory_seeds_file_and_out(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TWO_WAVE)
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("0 0 0 0\n0 0.1 0.2 -0.1  # second seed\n")
    out = tmp_path / "arc.txt"
    code = console_main(
        ["trajectory", "--config", cfg, "--seeds", str(seeds),
         "--steps", "4", "--htau", "0.25", "--out", str(out), "--format", "records"]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    text = out.read_text()
    assert "# trajectory 0" in text and "# trajectory 1" in text
    samples = [line for line in text.splitlines() if line.startswith("sample=")]
    assert len(samples) == 10    # two seeds, 5 samples each
    assert samples[-1].split("=", 1)[1].split()[0] == "1"


@pytest.mark.parametrize("target", ["missing/arc.txt", "."], ids=["missing-directory", "directory"])
def test_trajectory_unwritable_out_exits_2(tmp_path, capsys, monkeypatch, target):
    # the path is checked before any arc is integrated
    monkeypatch.setattr(cli, "batch_integrate", lambda *args, **kwargs: pytest.fail("integrated"))
    argv = ["trajectory", "--out", str(tmp_path / target)]
    assert "cannot write --out" in assert_config_error(tmp_path, capsys, argv, "")


def test_trajectory_records_round_trip(tmp_path, capsys, basis):
    from diracpolar.cli import build_background, build_field
    from diracpolar.trajectories import batch_integrate

    cfg = write_cfg(tmp_path, TWO_WAVE)
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("0 0 0 0\n0 0.1 0.2 -0.1\n-0.3 0.05 0 0.4\n")
    argv = ["trajectory", "--config", cfg, "--seeds", str(seeds),
            "--steps", "7", "--htau", "0.1", "--format", "records"]
    assert console_main(argv) == 0
    rows = {}
    for line in capsys.readouterr().out.splitlines():
        if line.startswith("sample="):
            head, *values = line.split()
            rows.setdefault(int(head[len("sample="):]), []).append([float(v) for v in values])
    with open(cfg) as fh:
        run = parse_config(fh.read())
    arcs = batch_integrate(
        build_field(run, basis), build_background(run), basis,
        np.loadtxt(str(seeds)), tau_max=7 * 0.1, h_tau=0.1,
    )
    assert sorted(rows) == [0, 1, 2]
    for index, arc in enumerate(arcs):
        # 17 significant digits: every float reads back to the same double
        assert np.array_equal(np.array(rows[index]), np.column_stack([arc.tau, arc.x, arc.u]))


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["trajectory", "--htau", "0"], ""),
        (["trajectory", "--htau", "nan"], ""),
        (["trajectory", "--steps", "-3"], ""),
        (["trajectory"], "tau_step = 0\n"),
        # NaN fails every comparison, so it would pass every check
        (["gordon"], "tolerance = nan\n"),
        (["identities", "--tolerance", "nan"], None),
        (["gordon", "--points", "3", "--seed=-1"], ""),
        (["identities", "--seed=-2"], None),
        (["gordon", "--points", "0"], ""),
        (["gordon", "--points=-4"], ""),
        # no residual is below 0, so every gated command would exit 1 on
        # correct output
        (["gordon"], "tolerance = 0\n"),
        (["trajectory", "--steps", "2"], "tolerance = -1\n"),
        (["identities", "--tolerance", "-1"], None),
        (["identities", "--tolerance", "0"], None),
    ],
    ids=["htau-zero", "htau-nan", "steps-negative", "tau_step-zero", "tolerance-nan",
         "identities-tolerance-nan", "gordon-seed-negative", "identities-seed-negative",
         "points-zero", "points-negative", "tolerance-zero", "tolerance-negative",
         "identities-tolerance-negative", "identities-tolerance-zero"],
)
def test_degenerate_steps_and_tolerances_exit_2(tmp_path, capsys, argv, extra):
    err = assert_config_error(tmp_path, capsys, argv, extra)
    if "tolerance" in "".join(argv) + (extra or ""):
        assert "tolerance: expected a " in err


@pytest.mark.parametrize(
    "mass", ["5e-324", "%.17g" % cli.MASS_MIN, "1e-160", "1e150", "%.17g" % cli.MASS_MAX]
)
def test_every_accepted_mass_runs_without_warnings(tmp_path, capsys, mass):
    # the on-shell check squares p in units of max(mass, |p|), which stays
    # finite up to MASS_MAX; below the smallest normal float the momenta
    # mass * (p0, v) keep few bits, and such a mass is rejected
    code = 2 if float(mass) < cli.MASS_MIN else 0
    cfg = write_cfg(tmp_path, TWO_WAVE.replace("mass = 1.0", "mass = " + mass))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in (["gordon", "--points", "3"], ["guidance"],
                     ["trajectory", "--mode", "kinematic", "--steps", "2"]):
            assert console_main(argv + ["--config", cfg]) == code
            assert "Warning" not in capsys.readouterr().err


def test_guidance_gaps_count_in_units_of_the_momentum(tmp_path, capsys):
    # at mass 1e150 the momenta are about 1e150 and agree to rounding
    cfg = write_cfg(tmp_path, TWO_WAVE.replace("mass = 1.0", "mass = 1e150"))
    assert console_main(["guidance", "--config", cfg, "--format", "records"]) == 0
    got = records(capsys.readouterr().out)
    assert float(got["momentum_form_gap"]) < 1e-14
    assert float(got["momentum_consistency"]) < 1e-14
    assert float(got["velocity_round_trip"]) < 1e-12


@pytest.mark.parametrize(
    "momentum, rows",
    [
        ((1.0, 0, 0, 0.5), {0: "momentum fails p.p = m^2 (residual 7.500e-01) or has p0 <= 0"}),
        ((1.25e-160, 0, 0, 0.75e-160), None),
    ],
    ids=["off-shell", "on-shell"],
)
def test_momentum_waves_at_a_tiny_mass(momentum, rows):
    # p / mass reaches 1e160 here and its square overflows: the shell test
    # must neither overflow nor let a NaN residual pass (every warning is an
    # error in this suite)
    from diracpolar.fieldconn import require_on_shell

    try:
        require_on_shell(np.array(momentum), 1e-160)
    except OffShell as exc:
        assert exc.rows == rows
    else:
        assert rows is None



def run_quietly(argv, cfg):
    """console_main of argv on the config with every warning an error: the
    exit code and stderr."""
    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(io.StringIO()), redirect_stderr(err):
        warnings.simplefilter("error")
        code = console_main(argv + ["--config", cfg])
    return code, err.getvalue()


@pytest.mark.parametrize(
    "mass, argv",
    [
        # the effective mass scale xs is about the mass: its guard scales with it
        ("1e-100", ["guidance"]),
        ("1e-100", ["trajectory", "--mode", "guidance", "--steps", "3", "--htau", "5e98"]),
        # the balance terms of size mass u^0 cancel to rounding, per unit mass
        ("1e150", ["gordon", "--points", "3"]),
        ("%.17g" % cli.MASS_MAX, ["gordon", "--points", "3"]),
    ],
    ids=["guidance-1e-100", "trajectory-1e-100", "gordon-1e150", "gordon-MASS_MAX"],
)
def test_exact_solutions_pass_at_any_mass(tmp_path, mass, argv):
    text = TWO_WAVE.replace("mass = 1.0", "mass = " + mass)
    text = text.replace("point = 0.0 0.1 0.05 -0.1", "point = 0 0 0 0")
    assert run_quietly(argv, write_cfg(tmp_path, text)) == (0, "")


@pytest.mark.parametrize("command", [["guidance"], ["polar"], ["trajectory", "--steps", "4"],
                                     ["trajectory", "--mode", "guidance", "--steps", "4"]])
def test_fast_velocity_wave_is_on_the_shell(tmp_path, command):
    # p.p rounds to about 1e-10 of m^2 at |v| = 1000: the shell allows for it
    cfg = write_cfg(tmp_path, "mass = 1\npoint = 0 0 0 0\n\n[wave]\nvelocity = 1000 0 0\n")
    assert run_quietly(command, cfg) == (0, "")


@pytest.mark.parametrize(
    "wave, err",
    [
        ("velocity = 1e200 0 0", "config error: wave 1 velocity: a component exceeds 1e+08\n"),
        ("velocity = 6e7 8.000001e7 0",
         "config error: wave 1 velocity: p0 / mass = sqrt(1 + v.v) exceeds 1e+08,"
         " got '6e7 8.000001e7 0'\n"),
    ],
    ids=["velocity", "p0"],
)
def test_waves_boosted_past_the_limit_exit_2(tmp_path, wave, err):
    # a component of 1e200 overflows in the squares of the boost, and the
    # components go first; p0 / mass past BOOST_MAX is rejected as plane_wave
    # would reject it, but before any work
    text = "mass = 1\npoint = 0 0 0 0\n\n[wave]\n%s\n" % wave
    for argv in (["gordon"], ["guidance"], ["polar"], ["trajectory", "--steps", "2"]):
        assert run_quietly(argv, write_cfg(tmp_path, text)) == (2, err)


@pytest.mark.parametrize("mass", ["%.17g" % cli.MASS_MIN, "1", "%.17g" % cli.MASS_MAX])
def test_velocity_at_the_boost_limit_builds(basis, mass):
    # sqrt(1 + v.v) rounds to 1e8 at |v| = 1e8: the parse check bounds p0 /
    # mass where plane_wave does, so a wave it accepts builds at any mass
    cfg = parse_config("mass = %s\n[wave]\nvelocity = 6e7 8e7 0\n" % mass)
    assert cli.build_field(cfg, basis).components[0].momentum[0] == float(mass) * 1e8


# the two-wave config of the amplitude range, the amplitude on both waves
AMPLITUDES = "mass = 1\npoint = 0 0 0 0\n" + "".join(
    "\n[wave]\nvelocity = %s\namplitude = %%s\n" % v for v in ("0.1 0 0", "0 0.2 0")
)
RANGE = "expected 0 or a magnitude in [1e-70, 1e+70]"
RUNS = (["gordon", "--points", "3"], ["guidance"], ["polar"], ["trajectory", "--steps", "2"],
        ["trajectory", "--mode", "guidance", "--steps", "2"])


@pytest.mark.parametrize(
    "amplitude, code, err",
    [
        ("1e-70", 0, ""),
        ("-1e70", 0, ""),
        ("9e-71", 2, "".join(
            "config error: wave %d amplitude: %s, got 9e-71\n" % (i, RANGE) for i in (1, 2))),
        ("-1.1e70", 2, "".join(
            "config error: wave %d amplitude: %s, got -1.1e+70\n" % (i, RANGE) for i in (1, 2))),
    ],
    ids=["smallest", "largest", "below", "above"],
)
def test_amplitudes_past_the_range_exit_2(tmp_path, amplitude, code, err):
    # the densities' products take the fourth power of the amplitude: it
    # leaves the normal floats below 1.2e-77 and overflows from 1e77 on, from
    # 1e73 on when a wave is boosted to BOOST_MAX
    cfg = write_cfg(tmp_path, AMPLITUDES % (amplitude, amplitude))
    for argv in RUNS:
        assert run_quietly(argv, cfg) == (code, err)


@pytest.mark.parametrize("amplitude", ["1e-70", "1e70"])
def test_amplitude_range_runs_on_boosted_waves(tmp_path, amplitude):
    # no warning at either end on waves boosted to BOOST_MAX; gordon's
    # transport residual grows with the boost past the tolerance (exit 1)
    text = AMPLITUDES.replace("0.1 0 0", "1e8 0 0").replace("0 0.2 0", "0 1e8 0")
    cfg = write_cfg(tmp_path, text % (amplitude, amplitude))
    for argv in RUNS:
        code, err = run_quietly(argv, cfg)
        assert code == 0 or err.startswith("tolerance violation: "), (argv, err)


def test_build_field_checks_the_shell_once(basis, monkeypatch):
    from diracpolar import fieldconn

    calls = []

    def counting(momentum, mass):
        calls.append(np.shape(momentum))
        return require_on_shell(momentum, mass)

    require_on_shell = fieldconn.require_on_shell
    for module in (fieldconn, cli):
        if hasattr(module, "require_on_shell"):
            monkeypatch.setattr(module, "require_on_shell", counting)
    cli.build_field(parse_config(MIXED_WAVES), basis)
    # the four waves as one stack, in plane_wave
    assert calls == [(4, 4)]

@pytest.mark.parametrize(
    "command, text",
    [
        # mass**2 overflows a float
        ("gordon", TWO_WAVE.replace("mass = 1.0", "mass = 1e160")),
        # plane_wave divides by the mass
        ("guidance", "mass = 0\n[wave]\nvelocity = 0 0 0\n"),
        # no positive-energy wave has a negative mass
        ("guidance", "mass = -1\n[wave]\nvelocity = 0 0 0\n"),
    ],
    ids=["huge", "zero", "negative"],
)
def test_mass_out_of_range_exit_2(tmp_path, capsys, command, text):
    argv = [command, "--config", write_cfg(tmp_path, text)]
    err = assert_config_error(tmp_path, capsys, argv, None)
    assert "mass: expected a number in [2.2250738585072014e-308, 1.3407807929942596e+154]" in err


@pytest.mark.parametrize(
    "steps, count",
    # numpy refuses each of these at once: 5.55 EiB of samples, a shape past
    # its size limit, and a count no float holds.  Never test a count that
    # could really be allocated.
    [(10**17, "1e+17"), (10**20, "1e+20"), (10**400, "inf")],
    ids=["memory", "shape", "overflow"],
)
def test_too_many_steps_exit_2(tmp_path, capsys, steps, count):
    argv = ["trajectory", "--steps", str(steps)]
    assert "%s steps" % count in assert_config_error(tmp_path, capsys, argv, "")


@pytest.mark.parametrize("count", [10**17, 10**20], ids=["memory", "shape"])
@pytest.mark.parametrize(
    "argv, extra",
    [(["gordon", "--points"], ""), (["identities", "--random"], None)],
    ids=["gordon-points", "identities-random"],
)
def test_too_many_draws_exit_2(tmp_path, capsys, argv, extra, count):
    # numpy refuses both counts at once, as for --steps above.  Never test a
    # count that could really be allocated.
    err = assert_config_error(tmp_path, capsys, argv + [str(count)], extra)
    assert "%s: cannot allocate %d draws" % (argv[1], count) in err


def assert_config_error(tmp_path, capsys, argv, extra):
    """argv, with a TWO_WAVE config carrying the extra lines unless extra is
    None, exits 2 with config errors only; returns what it wrote to stderr."""
    if extra is not None:
        text = TWO_WAVE.replace("tolerance = 1e-6\n", "tolerance = 1e-6\n" + extra)
        argv = argv + ["--config", write_cfg(tmp_path, text)]
    code = console_main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("config error: ")
    assert captured.out == ""
    return captured.err


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["guidance"], "point = inf 0 0 0\n"),
        (["polar", "--spinor", "nan,0,0,0,1,0,0,0"], None),
    ],
    ids=["config-point-inf", "spinor-nan"],
)
def test_non_finite_numbers_exit_2(tmp_path, capsys, argv, extra):
    assert "expected finite numbers" in assert_config_error(tmp_path, capsys, argv, extra)


@pytest.mark.parametrize(
    "command, key, line",
    [
        ("guidance", "torsion_coupling", "torsion_coupling = nan"),
        ("gordon", "torsion_coupling", "torsion_coupling = nan"),
        ("gordon", "charge", "charge = inf"),
        ("guidance", "mass", "mass = nan"),
        ("gordon", "tolerance", "tolerance = inf"),
        ("trajectory", "tau_step", "tau_step = -inf"),
        ("guidance", "wave 2 amplitude", "amplitude = inf"),
        ("gordon", "wave 2 phase", "phase = nan"),
    ],
    ids=["guidance-torsion-nan", "gordon-torsion-nan", "charge-inf", "mass-nan",
         "tolerance-inf", "tau_step-inf", "amplitude-inf", "phase-nan"],
)
def test_non_finite_config_numbers_exit_2(tmp_path, capsys, command, key, line):
    # a global line goes first (a later line of the same key does not hide
    # it), a wave line ends the last wave
    if key.startswith("wave"):
        text = TWO_WAVE + line + "\n"
    else:
        text = line + "\n" + TWO_WAVE
    argv = [command, "--config", write_cfg(tmp_path, text)]
    assert "%s: expected a finite number" % key in assert_config_error(tmp_path, capsys, argv, None)


# a value past the bound of every key whose table entry has a check
PAST_THE_BOUND = {
    "mass": "0", "tolerance": "0", "velocity": "6e7 8.000001e7 0", "amplitude": "1e71",
}
NUMBER_KEYS = [
    (prefix, key, count, check is not None)
    for prefix, keys in (("", cli.GLOBAL_KEYS), ("wave 1 ", cli.WAVE_KEYS))
    for key, (count, _, check) in keys.items()
    if count
]


@pytest.mark.parametrize(
    "prefix, key, count, checked", NUMBER_KEYS, ids=[key for _, key, _, _ in NUMBER_KEYS]
)
def test_every_key_bounds_its_value(tmp_path, capsys, prefix, key, count, checked):
    # read from the tables, so that a key added later is tested too: a
    # non-finite value, and one past the bound of a key with a check, is the
    # one problem of its config, and it names the key
    values = [" ".join(["nan"] * count)] + ([PAST_THE_BOUND[key]] if checked else [])
    for value in values:
        line = "%s = %s\n" % (key, value)
        if not prefix:
            text = line + "[wave]\nvelocity = 0.1 0 0\n"
        elif key == "velocity":
            text = "[wave]\n" + line
        else:
            text = "[wave]\nvelocity = 0.1 0 0\n" + line
        assert console_main(["guidance", "--config", write_cfg(tmp_path, text)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: %s%s: " % (prefix, key)) and err.count("\n") == 1


def test_repeated_keys_exit_2(tmp_path, capsys):
    # the same key twice in one section, not in two
    text = (
        "mass = 2\ntolerance = 1e-6\nmass = 1\n"
        "[wave]\nvelocity = 0 0 0\namplitude = 2\nvelocity = 0.1 0 0\n"
        "[wave]\nvelocity = 0 0 0\n"
    )
    assert console_main(["guidance", "--config", write_cfg(tmp_path, text)]) == 2
    assert capsys.readouterr().err == (
        "config error: line 3: key 'mass' repeats line 1\n"
        "config error: line 7: wave key 'velocity' repeats line 5\n"
    )


def test_array_defaults_are_copied():
    # no two configs or waves share the array of a default, nor the table's
    text = "[wave]\nvelocity = 0 0 0\n[wave]\nvelocity = 0 0 0\n"
    first, second = parse_config(text), parse_config(text)
    arrays = [first.point, second.point, cli.GLOBAL_KEYS["point"][1], cli.WAVE_KEYS["spin"][1]]
    arrays += [wave["spin"] for wave in first.waves + second.waves]
    assert len({id(array) for array in arrays}) == len(arrays)


def test_gordon_at_a_huge_mass_and_amplitude(tmp_path, capsys):
    # mass |psi| of about 1e180 squares past the floats: dirac_residual takes
    # its norms in units of a power of two near |psi|
    text = AMPLITUDES.replace("mass = 1\n", "mass = 1e150\n") % ("1e30", "1e30")
    argv = ["gordon", "--points", "3", "--format", "records"]
    assert console_main(argv + ["--config", write_cfg(tmp_path, text)]) == 0
    got = records(capsys.readouterr().out)
    assert all(float(got["p%d.dirac" % k]) < 1e-15 for k in range(3))


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_check_is_a_violation(capsys, value):
    # NaN compares false with every tolerance: only a finiteness check fails it
    checked = {"small": 0.0, "broken": value}
    assert cli._finish(list(checked.items()), "records", 1e-6, checked) == 1
    assert "tolerance violation: broken = " in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("polar", "--spinor", "-1,0,0,0,1,0,0,0"),
        ("polar", "--spinor", "-.5,0,0,0,1,0,0,0"),
    ],
)
def test_values_with_a_leading_minus(capsys, command, option, value):
    # "--spinor -1,..." reads like "--spinor=-1,...", not like an unknown option
    argv = [command, "--format", "records"]
    assert console_main(argv + [option + "=" + value]) == 0
    joined = capsys.readouterr().out
    assert console_main(argv + [option, value]) == 0
    assert capsys.readouterr().out == joined


def test_trajectory_negative_step_runs_backwards(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TWO_WAVE)
    argv = ["trajectory", "--config", cfg, "--htau", "-0.1", "--steps", "3", "--format", "records"]
    code = console_main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    taus = [float(line.split()[1]) for line in lines if line.startswith("sample=")]
    assert np.allclose(taus, [0.0, -0.1, -0.2, -0.3])


def test_trajectory_failed_seed_named(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TWO_WAVE)
    seeds = tmp_path / "seeds.txt"
    # a genuinely singular field: two rest waves cancel exactly everywhere
    cancel = """\
mass = 1.0

[wave]
velocity = 0 0 0

[wave]
velocity = 0 0 0
amplitude = -1.0
"""
    cfg2 = write_cfg(tmp_path, cancel, name="cancel.cfg")
    seeds.write_text("0 0 0 0\n")
    code = console_main(["trajectory", "--config", cfg2, "--seeds", str(seeds)])
    captured = capsys.readouterr()
    assert code == 1
    assert "did not complete" in captured.err
    assert "failed" in captured.out


@pytest.mark.parametrize("mode", ["kinematic", "guidance"])
def test_trajectory_failed_seed_names_its_error(tmp_path, mode):
    # two rest waves of opposite amplitude cancel everywhere: the regularity
    # guard stops both velocities at the seed, and stderr names it
    cfg = write_cfg(tmp_path, "mass = 1\n[wave]\nvelocity = 0 0 0\n"
                              "[wave]\nvelocity = 0 0 0\namplitude = -1\n")
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("0 0 0 0\n")
    assert run_quietly(["trajectory", "--seeds", str(seeds), "--mode", mode], cfg) == (
        1, "trajectory 0 did not complete: failed: velocity undefined at the seed point: "
           "SingularSpinor: scalar^2 + pseudoscalar^2 = 0.000e+00 below 1.0e-10 * density^2\n")


def test_guidance_names_a_degenerate_xs(tmp_path):
    # a torsion vector xs s at the point takes its xs to rounding: compact_forms
    # returns the forms, and the inversion fails with the message the forms
    # once raised
    from diracpolar.fieldconn import derivative_jet
    from diracpolar.guidance import compact_forms

    run = parse_config(TWO_WAVE)
    basis = diracpolar.build_chiral_basis()
    jet = derivative_jet(cli.build_field(run, basis), cli.build_background(run), basis, run.point)
    xs = compact_forms(jet, cli.build_background(run)).xs
    torsion = "torsion_coupling = 1\ntorsion_vector = %s\n" % " ".join(
        "%.17g" % w for w in xs * jet.spin)
    text = TWO_WAVE.replace("mass = 1.0\n", "mass = 1.0\n" + torsion)
    xs = compact_forms(jet, cli.build_background(parse_config(text))).xs
    assert abs(xs) < 1e-12
    assert run_quietly(["guidance"], write_cfg(tmp_path, text)) == (
        1, "DegenerateX: effective mass scale %.3e too close to zero\n" % xs)


# Reports of trajectory runs, byte for byte.  Each text is the output of the
# run that follows it; a change to the values, their format or the order of
# the lines shows here.

TABLE_TWO_SEEDS = """\
# trajectory 0 mode=kinematic status=completed
                  seed                     tau                      x0                      x1                      x2                      x3                      u0                      u1                      u2                      u3
                     0                       0                       0                       0                       0                       0        1.02355111462134        0.21261297236651     -0.0479326498288605      0.0124526826205577
                     0                    0.25       0.255895599582087      0.0531958968992515     -0.0119630789722333     0.00310458288654228        1.02361374212085       0.212954336282663     -0.0477721401284434      0.0123841166262625
                     0                     0.5       0.511806901160995        0.10647723515009     -0.0238861490370577     0.00619212634498892        1.02367673082866        0.21329650430716     -0.0476125781059166      0.0123163670175791
# trajectory 1 mode=kinematic status=completed
                  seed                     tau                      x0                      x1                      x2                      x3                      u0                      u1                      u2                      u3
                     1                       0                       0                     0.1                     0.2                    -0.1        1.02312417539027       0.210253498858977     -0.0490789513687895      0.0129538032294971
                     1                    0.25       0.255788554472658       0.152605351007264       0.187751183123584     -0.0967708536048182        1.02318431905075       0.210589435219947     -0.0489117455824638      0.0128795057809158
                     1                     0.5       0.511592188900693       0.205294780874481       0.175544046388735      -0.093560178258772        1.02324481521651       0.210926130758139     -0.0487455096404518      0.0128060345449232
max_unit_violation=4.4408920985006262e-16
"""

WINDOW_RECORDS = """\
# trajectory 0 mode=kinematic status=completed
sample=0 0 0 0 0 0 1.0235511146213394 0.2126129723665095 -0.047932649828860543 0.012452682620557733
sample=0 0.20000000000000001 0.20471522639502202 0.042549888641411869 -0.0095736714728886802 0.0024850359949713037 1.0236011877689071 0.21288599938718039 -0.047804166165089583 0.012397764479900037
sample=0 0.40000000000000002 0.40944049050714104 0.085154434005614718 -0.019121706923878885 0.0049591406334052023 1.0236514919107496 0.21315954017031696 -0.047676289370545126 0.012343368962279604
sample=0 0.60000000000000009 0.61417583860686298 0.12781373919193251 -0.028644227584761643 0.0074224183854939675 1.0237020277663118 0.21343359819069488 -0.047549018032403217 0.012289495530180888
sample=0 0.80000000000000004 0.8189213171103451 0.17052790799852982 -0.038141354409393632 0.0098749736179089033 1.023752796072668 0.21370817696197067 -0.047422350784140969 0.012236143685911537
# trajectory 1 mode=kinematic status=aborted at tau=0.4: OutOfDomain: point outside the windowed region
sample=1 0 0.5 0.10000000000000001 0 0.20000000000000001 1.0238474748074053 0.21421829578894086 -0.047189257884822665 0.012138672046889338
sample=1 0.20000000000000001 0.70477463460820577 0.14287125867848394 -0.0094253464776930113 0.20242253911359498 1.0238989104497034 0.21449437979839842 -0.047064306865996872 0.012086805790344612
sample=1 0.40000000000000002 0.90955957987692582 0.18579778756291385 -0.018825762696804405 0.20483475698557502 1.0239505815482814 0.214770998462542 -0.046939955104831545 0.012035459576719044
# trajectory 2 mode=kinematic status=failed: velocity undefined at the seed point: OutOfDomain: point outside the windowed region
max_unit_violation=7.7715611723760958e-16
"""

WINDOW_ERRORS = """\
trajectory 1 did not complete: aborted at tau=0.4: OutOfDomain: point outside the windowed region
trajectory 2 did not complete: failed: velocity undefined at the seed point: OutOfDomain: point outside the windowed region
"""


def test_trajectory_table_bytes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TWO_WAVE)
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("0 0 0 0\n0 0.1 0.2 -0.1\n")
    argv = ["trajectory", "--config", cfg, "--seeds", str(seeds), "--steps", "2", "--htau", "0.25"]
    assert console_main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == TABLE_TWO_SEEDS
    assert captured.err == ""


def test_trajectory_outcome_bytes(tmp_path, capsys, monkeypatch):
    # a window on the two-wave field: the first arc stays inside it, the
    # second leaves it at its third step and the third starts outside
    field = cli.build_field
    monkeypatch.setattr(
        cli, "build_field",
        lambda cfg, basis: BoxWindow(field(cfg, basis), np.full(4, -1.0), np.full(4, 1.0)),
    )
    cfg = write_cfg(tmp_path, TWO_WAVE)
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("0 0 0 0\n0.5 0.1 0 0.2\n1.5 0 0 0\n")
    argv = ["trajectory", "--config", cfg, "--seeds", str(seeds),
            "--steps", "4", "--htau", "0.2", "--format", "records"]
    assert console_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == WINDOW_RECORDS
    assert captured.err == WINDOW_ERRORS


def test_seeds_file_problems_are_named(tmp_path, capsys):
    # comments and blank lines as in a config; the lines keep their numbers
    cfg = write_cfg(tmp_path, TWO_WAVE)
    seeds = tmp_path / "seeds.txt"
    argv = ["trajectory", "--config", cfg, "--seeds", str(seeds)]
    seeds.write_text("0 0 0\n# a comment\n\nfoo 1 2 3  # the fourth line\n0 0 0 0\n")
    assert console_main(argv) == 2
    assert capsys.readouterr().err == (
        "config error: seeds line 1: expected 4 numbers, got 3\n"
        "config error: seeds line 4: expected numbers, got 'foo 1 2 3'\n"
    )
    seeds.write_text("# no points\n\n")
    assert console_main(argv) == 2
    assert capsys.readouterr().err == "config error: seeds file %s lists no points\n" % seeds
    argv[-1] = str(tmp_path / "missing.txt")
    assert console_main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: cannot read seeds %s: " % argv[-1])


def test_config_errors_are_collected(tmp_path, capsys):
    bad = """\
mas = 1.0
charge = abc
point = 1 2 3
tolerance = -1

[wave]
velocity = 0.1 0.2
spn = 1 0 0
"""
    cfg = write_cfg(tmp_path, bad)
    code = console_main(["polar", "--config", cfg])
    err = capsys.readouterr().err
    assert code == 2
    assert "did you mean 'mass'" in err
    assert "did you mean 'spin'" in err
    assert "expected a number" in err
    assert "expected 4 numbers" in err
    assert "tolerance: expected a number > 0" in err
    # every problem reported in one pass
    assert err.count("config error:") >= 5


def test_missing_config_file(capsys):
    code = console_main(["polar", "--config", "/nonexistent/run.cfg"])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot read config" in err


def test_momentum_key_exits_2(tmp_path, capsys):
    # a wave gives its velocity p / mass, the one way to give a wave
    text = "mass = 1.0\n[wave]\nmomentum = 1.0 0.5 0.0 0.0\n"
    assert console_main(["polar", "--config", write_cfg(tmp_path, text)]) == 2
    assert capsys.readouterr().err == (
        "config error: line 3: unknown wave key 'momentum'\n"
        "config error: wave 1: give a velocity (3 numbers)\n"
    )


def test_velocity_wave_moves_at_its_velocity(tmp_path, capsys):
    # the wave of velocity v has the unit velocity (sqrt(1 + v.v), v) at any mass
    text = "mass = 2.0\n[wave]\nvelocity = 0.5 0 0\n"
    code = console_main(["polar", "--config", write_cfg(tmp_path, text), "--format", "records"])
    got = records(capsys.readouterr().out)
    assert code == 0
    velocity = np.array([float(t) for t in got["velocity"].split()])
    assert np.abs(velocity - [np.sqrt(1.25), 0.5, 0, 0]).max() < 1e-12


# waves at rest and in motion, with phases, amplitudes and rest spins along
# -z, next to -z and off axis
MIXED_WAVES = """\
mass = 1.3

[wave]
velocity = 0.25 -0.1 0.05
spin = 0.2 0.5 1.0
phase = 0.7

[wave]
velocity = 0.38461538461538464 0 0
amplitude = 0.3
phase = -2.5
spin = 0 0 -1

[wave]
velocity = 0 0 0
spin = 1e-9 0 -1
amplitude = 2

[wave]
velocity = -3 1 2
spin = 1 0 0
phase = 3.1
"""


def test_build_field_matches_per_wave_plane_waves(basis):
    from diracpolar.fieldconn import plane_wave

    run = parse_config(MIXED_WAVES)
    fld = cli.build_field(run, basis)
    assert len(fld.components) == len(run.waves)
    for comp, wave in zip(fld.components, run.waves):
        v = wave["velocity"]
        assert np.array_equal(comp.momentum, run.mass * np.append(np.sqrt(1 + v @ v), v))
        alone = plane_wave(comp.momentum, run.mass, wave["spin"], wave["amplitude"], basis)
        want = alone.components[0].amplitude * np.exp(-1j * wave["phase"])
        assert np.abs(comp.amplitude - want).max() <= 1e-15


def test_offshell_waves_are_named_one_by_one(basis):
    # parse_config bounds every velocity, so this config is built by hand:
    # plane_wave names each wave past its boost limit, build_field numbers them
    run = cli.RunConfig()
    wave = {"spin": np.array([0.0, 0.0, 1.0]), "amplitude": 1.0, "phase": 0.0}
    velocities = ([0.1, 0, 0], [0, 2e8, 0], [0, 0, 0], [0, 0, -1e9])
    run.waves = [dict(wave, velocity=np.array(v)) for v in velocities]
    with pytest.raises(ConfigError) as info:
        cli.build_field(run, basis)
    assert info.value.problems == [
        "wave 2: momentum: a component exceeds 1e+08 times the mass",
        "wave 4: momentum: a component exceeds 1e+08 times the mass",
    ]


def test_grid_config_source(tmp_path, capsys, basis):
    from diracpolar.fieldconn import plane_wave, save_grid, to_grid

    fld = plane_wave(np.array([1.0, 0, 0, 0]), 1.0, (0, 0, 1), 1.0, basis)
    h = 1e-3
    origin = np.zeros(4) - 3 * h
    grid = to_grid(fld.evaluate, origin, np.full(4, h), (7, 7, 7, 7))
    path = tmp_path / "field.grid"
    save_grid(str(path), grid)
    text = "mass = 1.0\ngrid = %s\npoint = 0 0 0 0\nstep = %.17g\n" % (path, h)
    cfg = write_cfg(tmp_path, text)
    code = console_main(["gordon", "--config", cfg, "--format", "records"])
    got = records(capsys.readouterr().out)
    assert code == 0
    # stencil-limited: the grid only supports O(h^2) derivatives
    assert float(got["p0.dirac"]) < 1e-6
    # sampled points fall between the nodes, and one failing point aborts the scan
    code = console_main(["gordon", "--config", cfg, "--points", "3", "--format", "records"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("OutOfDomain: ")
    assert captured.out == ""


def test_trajectory_rejects_grid_config(tmp_path, capsys, basis):
    from diracpolar.fieldconn import plane_wave, save_grid, to_grid

    fld = plane_wave(np.array([1.0, 0, 0, 0]), 1.0, (0, 0, 1), 1.0, basis)
    path = tmp_path / "field.grid"
    save_grid(str(path), to_grid(fld.evaluate, np.zeros(4), 1e-3, (3, 3, 3, 3)))
    cfg = write_cfg(tmp_path, "mass = 1.0\ngrid = %s\n" % path)
    for mode in ("kinematic", "guidance"):
        code = console_main(["trajectory", "--config", cfg, "--mode", mode, "--steps", "2"])
        captured = capsys.readouterr()
        assert code == 2
        assert "config error: grid" in captured.err
        assert captured.out == ""


def test_grid_file_must_exist(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "mass = 1.0\ngrid = /nonexistent/field.grid\n")
    code = console_main(["polar", "--config", cfg])
    err = capsys.readouterr().err
    assert code == 2
    assert "file not found" in err


COLD_START = """\
import sys

import diracpolar
from diracpolar.cli import console_main

config = sys.argv[1]
runs = [["gordon", "--points", "2", "--seed", "3"]] + [
    ["trajectory", "--steps", "2", "--mode", mode] for mode in ("kinematic", "guidance")
]
for argv in runs:
    assert console_main(argv + ["--config", config, "--format", "records"]) == 0, argv
assert "scipy" not in sys.modules
assert console_main(["identities", "--random", "4"]) == 0
assert "scipy.linalg" in sys.modules
"""


def test_cold_start_leaves_scipy_out(tmp_path):
    # a fresh interpreter: this process may have imported scipy already
    src = os.path.dirname(os.path.dirname(diracpolar.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-c", COLD_START, write_cfg(tmp_path, TWO_WAVE)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        console_main(["gordon"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        console_main(["not-a-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv, line, err",
    [
        (["trajectory", "--steps", "2"], "tau_max = 1", "unknown key 'tau_max'"),
        (["trajectory", "--steps", "2"], "mode = guidance", "unknown key 'mode'"),
        (["gordon", "--points", "3"], "seed = 3", "unknown key 'seed'"),
        (["guidance", "--at", "0,0,0,0"], "", "unrecognized arguments: --at 0,0,0,0"),
    ],
    ids=["tau_max", "mode", "seed", "guidance-at"],
)
def test_removed_routes_exit_2(tmp_path, capsys, argv, line, err):
    # --steps, --mode, --seed and the config's point set these values
    argv = argv + ["--config", write_cfg(tmp_path, line + "\n" + TWO_WAVE)]
    try:
        code = console_main(argv)
    except SystemExit as exc:    # argparse rejects an unknown option
        code = exc.code
    assert code == 2
    assert err in capsys.readouterr().err


def test_parse_config_requires_field():
    with pytest.raises(ConfigError) as exc:
        parse_config("mass = 2.0\n")
    assert any("no field" in p for p in exc.value.problems)


def test_parse_config_reads_background():
    text = (
        "mass = 2.0\ncharge = 0.5\ntorsion_coupling = 0.4\n"
        "em_potential = 0.1 0 0 0\ntorsion_vector = 0 0.1 -0.05 0.2\n"
        "[wave]\nvelocity = 0.1 0 0\n"
    )
    cfg = parse_config(text)
    assert cfg.mass == 2.0
    assert cfg.charge == 0.5
    assert cfg.torsion_coupling == 0.4
    bg = cli.build_background(cfg)
    assert np.allclose(bg.em_potential.value(np.zeros(4)), [0.1, 0, 0, 0])
    assert np.allclose(bg.torsion_vector.value(np.zeros(4)), [0, 0.1, -0.05, 0.2])
    assert cfg.waves[0]["spin"] @ cfg.waves[0]["spin"] == 1.0
