import io

import numpy as np
import pytest

from diracpolar import cli
from diracpolar.cli import console_main, parse_config
from diracpolar.errors import ConfigError

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


def per_row_emit(rows, fmt, out):
    """The emitter that printed one row at a time, kept as the byte reference."""
    if fmt == "records":
        for name, value in rows:
            print("%s=%s" % (name, cli._fmt(value)), file=out)
    else:
        width = max((len(name) for name, _ in rows), default=0)
        for name, value in rows:
            print("%-*s  %s" % (width, name, cli._fmt(value)), file=out)


@pytest.mark.parametrize("fmt", ["table", "records"])
def test_emit_matches_per_row_printing(basis, fmt):
    run = parse_config(TWO_WAVE)
    points = run.point + np.random.default_rng(7).uniform(-1.0, 1.0, size=(20, 4))
    rows = cli._gordon_point(
        cli.build_field(run, basis), cli.build_background(run), basis, points, run.step
    )
    assert len(rows) == 20 * (1 + len(GORDON_LABELS))
    want, got = io.StringIO(), io.StringIO()
    per_row_emit(rows, fmt, want)
    cli.emit(rows, fmt, got)
    assert got.getvalue() == want.getvalue()


def test_parser_is_reused_without_leaking_options(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, TWO_WAVE)
    plain = ["gordon", "--config", cfg, "--format", "records"]
    assert console_main(plain) == 0
    first = capsys.readouterr().out

    def rebuilt():
        raise AssertionError("parser built a second time")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    # a coarser stencil moves the finite-difference residuals
    assert console_main(plain + ["--h", "2e-3"]) == 0
    assert capsys.readouterr().out != first
    assert console_main(plain) == 0
    assert capsys.readouterr().out == first
    with pytest.raises(SystemExit) as exc:
        console_main(["gordon", "--config", cfg, "--points", "many"])
    assert exc.value.code == 2
    assert console_main(plain) == 0
    assert capsys.readouterr().out == first


def test_gordon_tolerance_violation(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TWO_WAVE.replace("tolerance = 1e-6", "tolerance = 1e-13"))
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


def test_guidance_at_override(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TWO_WAVE)
    code = console_main(
        ["guidance", "--config", cfg, "--at", "0.2,0,0.1,-0.3", "--format", "records"]
    )
    got = records(capsys.readouterr().out)
    assert code == 0
    point = np.array([float(t) for t in got["point"].split()])
    assert np.allclose(point, [0.2, 0, 0.1, -0.3])


def test_trajectory_completes(tmp_path, capsys):
    # globals live above the wave sections
    text = "tau_max = 1.0\ntau_step = 0.25\nmode = guidance\n" + TWO_WAVE
    cfg = write_cfg(tmp_path, text)
    code = console_main(["trajectory", "--config", cfg, "--format", "records"])
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
        np.loadtxt(str(seeds)), tau_max=7 * 0.1, h_tau=0.1, h_field=run.step,
    )
    assert sorted(rows) == [0, 1, 2]
    for index, arc in enumerate(arcs):
        # 17 significant digits: every float reads back to the same double
        assert np.array_equal(np.array(rows[index]), np.column_stack([arc.tau, arc.x, arc.u]))


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


def test_config_errors_are_collected(tmp_path, capsys):
    bad = """\
mas = 1.0
charge = abc
point = 1 2 3
mode = sideways

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
    assert "mode: must be one of" in err
    # every problem reported in one pass
    assert err.count("config error:") >= 5


def test_missing_config_file(capsys):
    code = console_main(["polar", "--config", "/nonexistent/run.cfg"])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot read config" in err


def test_offshell_momentum_is_config_error(tmp_path, capsys):
    text = "mass = 1.0\n[wave]\nmomentum = 1.0 0.5 0.0 0.0\n"
    cfg = write_cfg(tmp_path, text)
    code = console_main(["polar", "--config", cfg])
    err = capsys.readouterr().err
    assert code == 2
    assert "wave 1" in err


def test_explicit_momentum_wave(tmp_path, capsys):
    # on-shell momentum given directly instead of a velocity
    p = np.array([np.sqrt(1.0 + 0.25), 0.5, 0.0, 0.0])
    text = "mass = 1.0\n[wave]\nmomentum = %.17g %.17g %.17g %.17g\n" % tuple(p)
    cfg = write_cfg(tmp_path, text)
    code = console_main(["polar", "--config", cfg, "--format", "records"])
    got = records(capsys.readouterr().out)
    assert code == 0
    velocity = np.array([float(t) for t in got["velocity"].split()])
    assert np.abs(velocity - p).max() < 1e-12


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


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        console_main(["gordon"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        console_main(["not-a-command"])
    assert exc.value.code == 2


def test_parse_config_requires_field():
    with pytest.raises(ConfigError) as exc:
        parse_config("mass = 2.0\n")
    assert any("no field" in p for p in exc.value.problems)


def test_parse_config_reads_background():
    text = (
        "mass = 2.0\ncharge = 0.5\ntorsion_coupling = 0.4\n"
        "em_potential = 0.1 0 0 0\ntorsion_vector = 0 0.1 -0.05 0.2\n"
        "seed = 11\n"
        "[wave]\nvelocity = 0.1 0 0\n"
    )
    cfg = parse_config(text)
    assert cfg.mass == 2.0
    assert cfg.charge == 0.5
    assert cfg.torsion_coupling == 0.4
    assert cfg.seed == 11
    assert np.allclose(cfg.em_potential.value(np.zeros(4)), [0.1, 0, 0, 0])
    assert np.allclose(cfg.torsion_vector.value(np.zeros(4)), [0, 0.1, -0.05, 0.2])
    assert cfg.waves[0]["spin"] @ cfg.waves[0]["spin"] == 1.0
