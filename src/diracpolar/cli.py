"""Command line interface.

Subcommands:

  identities   check the matrix algebra and the Lorentz conjugation law
  polar        decompose a spinor (from a field config or given directly)
  gordon       evaluate the density balance equations and the polar groups
  guidance     momentum/velocity maps at a point, both directions
  trajectory   integrate integral curves of the velocity field

Exit status: 0 when every checked residual stays under the tolerance, 1 on a
tolerance violation or a run that stops early (the worst offender is named),
2 for usage or configuration problems.

Field setup comes from a plain-text config: global "key = value" lines first,
then one "[wave]" section per plane-wave component, or a "grid" key naming a
saved grid file.  Unknown keys are rejected with a spelling suggestion, and
every problem in the file is reported in one pass, not just the first.
"""
from __future__ import annotations

import argparse
import difflib
import functools
import os
import sys

import numpy as np

from .algebra import ETA, build_chiral_basis, lorentz_exp, verify_basis
from .bilinears import check_fierz, check_spinor_constraints, compute_bilinears
from .errors import ConfigError, DiracPolarError, OffShell, SingularSpinor
from .fieldconn import (
    Background,
    ConstantVector,
    PlaneWaveComponent,
    PlaneWaveField,
    load_grid,
    plane_wave,
    polar_jet,
    sample_field,
    superpose,
    verify_polar_derivative,
    verify_transport,
)
from .gordon import dirac_residual, residual_bilinear_gordon, residual_polar_groups
from .guidance import (
    compact_forms,
    momentum_from_velocity,
    momentum_long_form,
    velocity_from_momentum,
)
from .polar import polar_decompose, polar_reconstruct
from .trajectories import MODES, batch_integrate

G = "%.17g"


def _fmt(value):
    if isinstance(value, (list, tuple, np.ndarray)):
        return " ".join(G % v for v in np.asarray(value, dtype=float))
    return G % value


def emit(rows, fmt, out=None):
    """Write (name, value) pairs, value a scalar or a vector, one line each:
    name=value for records, an aligned table otherwise."""
    if fmt == "records":
        line = "%s=%s\n"
    else:
        line = "%%-%ds  %%s\n" % max((len(name) for name, _ in rows), default=0)
    text = "".join(line % (name, _fmt(value)) for name, value in rows)
    (out or sys.stdout).write(text)


GLOBAL_KEYS = {
    "mass",
    "charge",
    "torsion_coupling",
    "em_potential",
    "torsion_vector",
    "grid",
    "point",
    "step",
    "tolerance",
    "seed",
    "tau_max",
    "tau_step",
    "mode",
}

WAVE_KEYS = {"momentum", "velocity", "spin", "amplitude", "phase"}


class RunConfig:
    def __init__(self):
        self.mass = 1.0
        self.charge = 0.0
        self.torsion_coupling = 0.0
        self.em_potential = None
        self.torsion_vector = None
        self.grid = None
        self.point = np.zeros(4)
        self.step = 1e-3
        self.tolerance = 1e-6
        self.seed = 0
        self.tau_max = 10.0
        self.tau_step = 0.05
        self.mode = "kinematic"
        self.waves = []


def _floats(text, count, key, problems):
    parts = text.replace(",", " ").split()
    try:
        vals = [float(t) for t in parts]
    except ValueError:
        problems.append("%s: expected numbers, got %r" % (key, text))
        return None
    if len(vals) != count:
        problems.append("%s: expected %d numbers, got %d" % (key, count, len(vals)))
        return None
    return np.array(vals)


def _suggest(key, pool):
    close = difflib.get_close_matches(key, sorted(pool), n=1)
    return " (did you mean %r?)" % close[0] if close else ""


def parse_config(text) -> RunConfig:
    cfg = RunConfig()
    problems = []
    section = None    # None for globals, else dict of current wave
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if line != "[wave]":
                problems.append("line %d: unknown section %s" % (lineno, line))
                section = {}
                continue
            section = {}
            cfg.waves.append(section)
            continue
        if "=" not in line:
            problems.append("line %d: expected key = value, got %r" % (lineno, line))
            continue
        key, value = (t.strip() for t in line.split("=", 1))
        if section is None:
            if key not in GLOBAL_KEYS:
                problems.append(
                    "line %d: unknown key %r%s" % (lineno, key, _suggest(key, GLOBAL_KEYS))
                )
                continue
            _apply_global(cfg, key, value, problems)
        else:
            if key not in WAVE_KEYS:
                problems.append(
                    "line %d: unknown wave key %r%s" % (lineno, key, _suggest(key, WAVE_KEYS))
                )
                continue
            section[key] = value

    for i, wave in enumerate(cfg.waves, start=1):
        _check_wave(wave, i, problems)
    if cfg.grid is not None and cfg.waves:
        problems.append("give either [wave] sections or a grid file, not both")
    if cfg.grid is None and not cfg.waves:
        problems.append("config defines no field: add [wave] sections or a grid key")
    if cfg.grid is not None and not os.path.isfile(cfg.grid):
        problems.append("grid: file not found: %s" % cfg.grid)
    if cfg.mode not in MODES:
        problems.append("mode: must be one of %s" % (MODES,))
    if problems:
        raise ConfigError(problems)
    return cfg


def _apply_global(cfg, key, value, problems):
    if key in ("em_potential", "torsion_vector", "point"):
        vec = _floats(value, 4, key, problems)
        if vec is None:
            return
        if key == "point":
            cfg.point = vec
        else:
            setattr(cfg, key, ConstantVector(vec))
        return
    if key == "mode":
        cfg.mode = value
        return
    if key == "grid":
        cfg.grid = value
        return
    if key == "seed":
        try:
            cfg.seed = int(value)
        except ValueError:
            problems.append("seed: expected an integer, got %r" % value)
        return
    try:
        setattr(cfg, key, float(value))
    except ValueError:
        problems.append("%s: expected a number, got %r" % (key, value))


def _check_wave(wave, index, problems):
    has_p = "momentum" in wave
    has_v = "velocity" in wave
    if has_p == has_v:
        problems.append(
            "wave %d: give exactly one of momentum (4 numbers) or velocity (3 numbers)"
            % index
        )
    probe = []
    if has_p:
        wave["momentum"] = _floats(wave["momentum"], 4, "wave %d momentum" % index, probe)
    if has_v:
        wave["velocity"] = _floats(wave["velocity"], 3, "wave %d velocity" % index, probe)
    if "spin" in wave:
        wave["spin"] = _floats(wave["spin"], 3, "wave %d spin" % index, probe)
    else:
        wave["spin"] = np.array([0.0, 0.0, 1.0])
    for key, default in (("amplitude", 1.0), ("phase", 0.0)):
        if key in wave:
            try:
                wave[key] = float(wave[key])
            except ValueError:
                probe.append("wave %d %s: expected a number" % (index, key))
        else:
            wave[key] = default
    problems.extend(probe)


def build_background(cfg: RunConfig) -> Background:
    return Background(
        mass=cfg.mass,
        charge=cfg.charge,
        torsion_coupling=cfg.torsion_coupling,
        em_potential=cfg.em_potential,
        torsion_vector=cfg.torsion_vector,
    )


def build_field(cfg: RunConfig, basis):
    if cfg.grid is not None:
        try:
            return load_grid(cfg.grid)
        except (OSError, ValueError) as exc:
            raise ConfigError(["grid: %s" % exc])
    parts = []
    problems = []
    for index, wave in enumerate(cfg.waves, start=1):
        if wave.get("momentum") is not None:
            p = wave["momentum"]
        else:
            v3 = wave["velocity"]
            p = cfg.mass * np.concatenate([[np.sqrt(1 + v3 @ v3)], v3])
        try:
            fld = plane_wave(p, cfg.mass, wave["spin"], wave["amplitude"], basis)
        except OffShell as exc:
            problems.append("wave %d: %s" % (index, exc))
            continue
        comp = fld.components[0]
        parts.append(
            PlaneWaveField(
                [PlaneWaveComponent(comp.momentum, comp.amplitude * np.exp(-1j * wave["phase"]))]
            )
        )
    if problems:
        raise ConfigError(problems)
    return superpose(*parts)


def _load_config(path):
    try:
        with open(path) as fh:
            return parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(["cannot read config %s: %s" % (path, exc)])


def _finish(rows, fmt, tolerance, checked):
    """Print rows, then fail if the worst of the checked residuals, a dict of
    names to values, breaks tolerance."""
    emit(rows, fmt)
    if not checked:
        return 0
    name = max(checked, key=checked.get)
    if checked[name] >= tolerance:
        print(
            "tolerance violation: %s = %s (tolerance %s)"
            % (name, G % checked[name], G % tolerance),
            file=sys.stderr,
        )
        return 1
    return 0


CONVENTIONS = """\
conventions sheet v1
metric: diag(+1, -1, -1, -1)
epsilon: lowered epsilon_0123 = +1, raised epsilon^0123 = -1
gamma^0: off-diagonal identity blocks [[0, I], [I, 0]]
gamma^k: [[0, sigma_k], [-sigma_k, 0]] for the three Pauli matrices
chiral involution: i gamma^0 gamma^1 gamma^2 gamma^3 = diag(-1, -1, +1, +1)
rest seed spinor: (1, 0, 1, 0)
sigma_ab: (gamma_a gamma_b - gamma_b gamma_a) / 4
tensor density: m_ab = 2i adj(psi) sigma_ab psi
pseudoscalar density: i adj(psi) pi psi
chiral rotation: exp(-i angle pi/2) = cos(angle/2) - i sin(angle/2) pi
polar form: psi = density exp(-i chiral pi/2) l_spin^-1 seed exp(-i phase)
boost parameters: lam^{0k} = arcsinh(|v|) v_k / |v|
rotation parameters: lam^{jk} = -angle eps3_{jkl} n_l
momentum covector: p_mu = d_mu phase + trace_part_mu - charge a_mu
frame transport: d_mu s_i = r_{ji mu} s^j
wave phase: amplitude exp(-i p.x) with p.x = eta_{mu nu} p^mu x^nu
"""


def cmd_identities(args) -> int:
    if args.conventions:
        print(CONVENTIONS, end="")
        return 0
    if args.random < 0:
        raise ConfigError(["--random: expected a count >= 0, got %d" % args.random])
    basis = build_chiral_basis()
    checks = verify_basis(basis)
    rng = np.random.default_rng(args.seed)
    lam = rng.standard_normal((args.random, 4, 4)) * 0.7
    pair = lorentz_exp(lam - np.swapaxes(lam, -1, -2), basis)
    # spin_rep^-1 gamma^a spin_rep against vec_rep^a_b gamma^b, axes (draw, a, i, j)
    lhs = np.linalg.inv(pair.spin_rep)[:, None] @ basis.gamma @ pair.spin_rep[:, None]
    rhs = np.einsum("nab,bij->naij", pair.vec_rep, basis.gamma)
    checks["lorentz_conjugation"] = np.abs(lhs - rhs).max(initial=0.0)

    parts = rng.standard_normal((args.random, 2, 4))
    psi = parts[:, 0] + 1j * parts[:, 1]
    checks["density_interdependence"] = _worst(check_fierz(compute_bilinears(psi, basis), basis))
    checks["spinor_constraints"] = _worst(check_spinor_constraints(psi, basis))
    return _finish(checks.items(), args.format, args.tolerance, checks)


def _worst(checks):
    """Largest of a check's residuals over every draw, 0 when there are none."""
    return np.max(list(checks.values()), initial=0.0)


def _parse_spinor(text):
    parts = text.replace(",", " ").split()
    try:
        vals = [float(t) for t in parts]
    except ValueError:
        raise ConfigError(["spinor: expected numbers, got %r" % text])
    if len(vals) != 8:
        raise ConfigError(
            ["spinor: expected 8 numbers re0,im0,...,re3,im3, got %d" % len(vals)]
        )
    vals = np.array(vals)
    return vals[0::2] + 1j * vals[1::2]


def cmd_polar(args) -> int:
    basis = build_chiral_basis()
    tolerance = 1e-6
    if args.spinor is not None:
        psi = _parse_spinor(args.spinor)
    elif args.config is not None:
        cfg = _load_config(args.config)
        tolerance = cfg.tolerance
        psi = build_field(cfg, basis).evaluate(cfg.point)
    else:
        raise ConfigError(["polar needs --config or --spinor"])
    try:
        pd = polar_decompose(psi, basis)
    except SingularSpinor as exc:
        # the input itself is unusable, so this is a configuration problem
        raise ConfigError(["SingularSpinor: %s" % exc])
    back = polar_reconstruct(pd, basis)
    round_trip = float(np.abs(back - psi).max() / np.linalg.norm(psi))
    rows = [
        ("density", pd.density),
        ("chiral_angle", pd.chiral_angle),
        ("velocity", pd.velocity),
        ("spin", pd.spin),
        ("residual_phase", pd.residual_phase),
        ("fit_residual", pd.fit_residual),
        ("round_trip_residual", round_trip),
    ]
    return _finish(rows, args.format, tolerance, {"round_trip_residual": round_trip})


def _gordon_point(fld, bg, basis, points, h):
    """Every residual at every point of a stack (n, 4), as the (label, value)
    rows of the report in point order: pK.point first, then its residuals.

    Each check runs once over the whole stack, so a failing point aborts the
    scan.
    """
    sample = sample_field(fld, bg, points)
    columns = {"dirac": dirac_residual(fld, bg, basis, points, sample)}
    columns.update(residual_bilinear_gordon(fld, bg, basis, points, sample))
    jet = polar_jet(fld, bg, basis, points, h)
    for name, value in residual_polar_groups(jet, bg, basis).items():
        columns["group_" + name] = value
    derivative = verify_polar_derivative(jet, fld, bg, basis, sample)
    columns["polar_derivative"] = derivative.max(axis=-1)
    transport = verify_transport(jet, basis)
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


def cmd_gordon(args) -> int:
    cfg = _load_config(args.config)
    basis = build_chiral_basis()
    fld = build_field(cfg, basis)
    bg = build_background(cfg)
    h = args.h if args.h is not None else cfg.step
    if args.points <= 1:
        points = cfg.point[None, :]
    else:
        rng = np.random.default_rng(args.seed if args.seed is not None else cfg.seed)
        points = cfg.point + rng.uniform(-1.0, 1.0, size=(args.points, 4))
    rows = _gordon_point(fld, bg, basis, points, h)
    checked = {name: value for name, value in rows if not name.endswith(".point")}
    return _finish(rows, args.format, cfg.tolerance, checked)


def cmd_guidance(args) -> int:
    cfg = _load_config(args.config)
    basis = build_chiral_basis()
    fld = build_field(cfg, basis)
    bg = build_background(cfg)
    x = cfg.point
    if args.at is not None:
        probe = []
        x = _floats(args.at, 4, "--at", probe)
        if probe:
            raise ConfigError(probe)
    jet = polar_jet(fld, bg, basis, x, cfg.step)
    forms = compact_forms(jet, bg)
    p_compact = momentum_from_velocity(jet.pd.velocity, jet.pd.spin, forms, basis)
    p_long = momentum_long_form(jet.pd.velocity, jet.pd.spin, forms, basis)
    p_conn = ETA @ jet.tc.p
    u_back = velocity_from_momentum(p_conn, jet.pd.spin, forms, basis)
    checked = {
        "momentum_form_gap": float(np.abs(p_compact - p_long).max()),
        "momentum_consistency": float(np.abs(p_compact - p_conn).max()),
        "velocity_round_trip": float(np.abs(u_back - jet.pd.velocity).max()),
    }
    rows = [
        ("point", x),
        ("effective_mass_scale", forms.xs),
        ("zeta", forms.z / forms.xs),
        ("y_potential", forms.y),
        ("z_potential", forms.z),
        ("momentum", p_compact),
        ("momentum_from_connection", p_conn),
        ("velocity", jet.pd.velocity),
        ("velocity_recovered", u_back),
    ] + list(checked.items())
    return _finish(rows, args.format, cfg.tolerance, checked)


def _emit_trajectory(tr, index, fmt, out):
    print("# trajectory %d mode=%s status=%s" % (index, tr.mode, tr.status), file=out)
    if fmt == "records":
        # one format string for the whole row: the same text as _fmt per value
        line = "sample=%d" % index + (" " + G) * 9 + "\n"
        rows = np.column_stack([tr.tau, tr.x, tr.u]).tolist()
        out.write("".join(line % tuple(row) for row in rows))
    else:
        header = ("seed", "tau", "x0", "x1", "x2", "x3", "u0", "u1", "u2", "u3")
        print("  ".join("%22s" % h for h in header), file=out)
        for k in range(len(tr.tau)):
            cells = [float(index), tr.tau[k], *tr.x[k], *tr.u[k]]
            print("  ".join("%22.15g" % c for c in cells), file=out)


def _read_seeds(path):
    seeds = []
    problems = []
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(["cannot read seeds %s: %s" % (path, exc)])
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        vec = _floats(line, 4, "seeds line %d" % lineno, problems)
        if vec is not None:
            seeds.append(vec)
    if not seeds:
        problems.append("seeds file %s lists no points" % path)
    if problems:
        raise ConfigError(problems)
    return seeds


def cmd_trajectory(args) -> int:
    cfg = _load_config(args.config)
    if cfg.grid is not None:
        # grid fields answer only at their nodes, and the first RK4 stage
        # always leaves the node it starts from
        raise ConfigError(["grid: trajectory needs a [wave] field, not a grid file"])
    basis = build_chiral_basis()
    fld = build_field(cfg, basis)
    bg = build_background(cfg)
    mode = args.mode if args.mode is not None else cfg.mode
    h_tau = args.htau if args.htau is not None else cfg.tau_step
    tau_max = args.steps * h_tau if args.steps is not None else cfg.tau_max
    seeds = _read_seeds(args.seeds) if args.seeds is not None else [cfg.point]
    results = batch_integrate(
        fld, bg, basis, seeds, tau_max=tau_max, h_tau=h_tau, mode=mode, h_field=cfg.step
    )
    sink = open(args.out, "w") if args.out is not None else None
    try:
        out = sink or sys.stdout
        worst = 0.0
        failures = []
        for index, tr in enumerate(results):
            _emit_trajectory(tr, index, args.format, out)
            worst = max(worst, tr.diagnostics.get("max_unit_violation", 0.0))
            if not tr.completed:
                failures.append((index, tr.status))
        print("max_unit_violation=%s" % (G % worst), file=out)
    finally:
        if sink is not None:
            sink.close()
    if failures:
        for index, status in failures:
            print("trajectory %d did not complete: %s" % (index, status), file=sys.stderr)
        return 1
    if worst >= cfg.tolerance:
        print(
            "tolerance violation: max_unit_violation = %s (tolerance %s)"
            % (G % worst, G % cfg.tolerance),
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="diracpolar",
        description="polar-variable toolkit for relativistic spinor fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("identities", help="check the matrix algebra layer")
    p_id.add_argument(
        "--conventions", action="store_true", help="print the convention sheet and exit"
    )
    p_id.add_argument("--random", type=int, default=100, metavar="N", help="number of random draws")
    p_id.add_argument("--seed", type=int, default=0, metavar="S")
    p_id.add_argument("--tolerance", type=float, default=1e-10)
    p_id.add_argument("--format", choices=("table", "records"), default="table")
    p_id.set_defaults(func=cmd_identities)

    p_pol = sub.add_parser("polar", help="polar decomposition of a spinor")
    p_pol.add_argument("--config", help="field config; decomposes at its point")
    p_pol.add_argument(
        "--spinor", metavar="RE0,IM0,...,RE3,IM3", help="decompose this spinor instead"
    )
    p_pol.add_argument("--format", choices=("table", "records"), default="table")
    p_pol.set_defaults(func=cmd_polar)

    p_gor = sub.add_parser("gordon", help="density balance and polar group residuals")
    p_gor.add_argument("--config", required=True)
    p_gor.add_argument("--points", type=int, default=1, metavar="N", help="sample N points")
    p_gor.add_argument("--seed", type=int, default=None, metavar="S")
    p_gor.add_argument("--h", type=float, default=None, help="stencil step override")
    p_gor.add_argument("--format", choices=("table", "records"), default="table")
    p_gor.set_defaults(func=cmd_gordon)

    p_gui = sub.add_parser("guidance", help="momentum and velocity maps at a point")
    p_gui.add_argument("--config", required=True)
    p_gui.add_argument("--at", metavar="X0,X1,X2,X3", help="evaluation point override")
    p_gui.add_argument("--format", choices=("table", "records"), default="table")
    p_gui.set_defaults(func=cmd_guidance)

    p_tra = sub.add_parser("trajectory", help="integrate integral curves")
    p_tra.add_argument("--config", required=True)
    p_tra.add_argument("--seeds", metavar="FILE", help="file of start points, 4 numbers per line")
    p_tra.add_argument("--mode", choices=MODES, default=None)
    p_tra.add_argument("--steps", type=int, default=None, metavar="N")
    p_tra.add_argument("--htau", type=float, default=None, metavar="H")
    p_tra.add_argument("--out", metavar="FILE", help="write the table here instead of stdout")
    p_tra.add_argument("--format", choices=("table", "records"), default="table")
    p_tra.set_defaults(func=cmd_trajectory)
    return parser


@functools.lru_cache(maxsize=1)
def _parser():
    """The parser, built once per process: building it costs about ten
    parses.  parse_args fills a new namespace on every call, so one call's
    options never reach the next."""
    return build_parser()


def console_main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print("config error: %s" % problem, file=sys.stderr)
        return 2
    except DiracPolarError as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1


def main():
    sys.exit(console_main())


if __name__ == "__main__":
    main()
