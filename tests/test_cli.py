import numpy as np
import pytest

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
