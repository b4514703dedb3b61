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
saved grid file.  Unknown keys (with a spelling suggestion) and keys given
twice in a section are rejected, every problem in one pass, not just the first.
"""
from __future__ import annotations

import argparse
import copy
import difflib
import functools
import math
import os
import re
import sys

import numpy as np

from .algebra import ETA, build_chiral_basis, lorentz_exp, verify_basis
from .bilinears import check_fierz, check_spinor_constraints, compute_bilinears
from .errors import ConfigError, DiracPolarError, OffShell, SingularSpinor
from .fieldconn import (
    BOOST_MAX,
    Background,
    ConstantVector,
    derivative_jet,
    load_grid,
    plane_wave,
    sample_field,
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


def _template(names, sizes, fmt, width, prefix="", shown=0):
    """One format string for a report: a line per name, behind prefix, then
    its sizes[i] values as G; "name=values" for records, the name padded to
    width for a table.  prefix is format text that prints shown characters,
    such as the "p%d." of a point index."""
    if fmt == "records":
        pads = ["="] * len(names)
    else:
        pads = [" " * (width + 2 - shown - len(name)) for name in names]
    return "".join(
        prefix + name.replace("%", "%%") + pad + " ".join([G] * size) + "\n"
        for name, pad, size in zip(names, pads, sizes)
    )


def emit(rows, fmt, out=None, points=None):
    """Write (name, value) pairs, value a scalar or a vector, one line each:
    name=value for records, an aligned table otherwise.

    With points=n every value is a stack (n, ...), and the lines repeat for
    each point k with the names behind "pk.", all points one table."""
    names = [name for name, _ in rows]
    n = points or 1
    values = [np.asarray(value, dtype=float).reshape(n, -1) for _, value in rows]
    sizes = [v.shape[1] for v in values]
    width = max(map(len, names), default=0)
    if points is None:
        template = _template(names, sizes, fmt, width)
    else:
        # a block of lines per point, its index in the %d slots; in a table
        # the points with as many digits share the padding of one block
        width += len("p%d." % (n - 1))
        template = "".join(
            _template(names, sizes, fmt, width, "p%d.", digits + 2)
            * (min(n, 10**digits) - (10 ** (digits - 1) if digits > 1 else 0))
            for digits in range(1, len(str(n - 1)) + 1)
        )
        index = np.arange(n, dtype=float)[:, None]
        values = [part for value in values for part in (index, value)]
    cells = np.concatenate([np.empty((n, 0)), *values], axis=1)
    (out or sys.stdout).write(template % tuple(cells.ravel().tolist()))


# the mass range: the smallest normal float, below which the momenta mass * (p0,
# v) keep few bits, and the largest mass whose square is a finite float
MASS_MIN = float(np.finfo(float).tiny)
MASS_MAX = float(np.sqrt(np.finfo(float).max))
# the range of a nonzero |amplitude|: the densities' products take its fourth
# power, which leaves the normal floats below 1.2e-77 and overflows on a wave
# boosted to BOOST_MAX from 1e73 on; each end keeps a factor 1000 or more
AMPLITUDE_MIN, AMPLITUDE_MAX = 1e-70, 1e70
# the proper time of an arc when no --steps gives its length
TAU_MAX = 10.0

# Every config key: how many numbers it takes (0 for text), its default, and
# its check, which takes the value and its text and returns their problem or
# None.  A global key sets the RunConfig attribute of its name, but step, the
# stencil step of an earlier guidance jet, parses and sets nothing.
GLOBAL_KEYS = {
    "mass": (1, 1.0, lambda mass, text: None if MASS_MIN <= mass <= MASS_MAX else (
        "expected a number in [%.17g, %.17g], got %r" % (MASS_MIN, MASS_MAX, text))),
    "charge": (1, 0.0, None),
    "torsion_coupling": (1, 0.0, None),
    "em_potential": (4, None, None),
    "torsion_vector": (4, None, None),
    "grid": (0, None, None),
    "point": (4, np.zeros(4), None),
    "tolerance": (1, 1e-6, lambda tolerance, text: None if tolerance > 0 else (
        "expected a number > 0, got %r" % text)),
    "tau_step": (1, 0.05, None),
    "step": (0, None, None),
}
# A wave's velocity v gives it the momentum mass * (sqrt(1 + v.v), v), which
# plane_wave bounds by BOOST_MAX times the mass; the components go first, so
# that no square overflows.  Every wave gives its velocity.
WAVE_KEYS = {
    "velocity": (3, None, lambda v, text: (
        "a component exceeds %.0e" % BOOST_MAX if np.abs(v).max() > BOOST_MAX
        else "p0 / mass = sqrt(1 + v.v) exceeds %.0e, got %r" % (BOOST_MAX, text)
        if np.sqrt(1 + v @ v) > BOOST_MAX else None)),
    "spin": (3, np.array([0.0, 0.0, 1.0]), None),
    "amplitude": (1, 1.0, lambda amplitude, text: (
        None if not amplitude or AMPLITUDE_MIN <= abs(amplitude) <= AMPLITUDE_MAX
        else "expected 0 or a magnitude in [%.0e, %.0e], got %r"
        % (AMPLITUDE_MIN, AMPLITUDE_MAX, amplitude))),
    "phase": (1, 0.0, None),
}


def _defaults(keys):
    """Each key of a table at its default, arrays copied, so that no two
    configs or waves share one."""
    return {key: copy.copy(default) for key, (_, default, _) in keys.items()}


class RunConfig:
    """A parsed config: an attribute per global key but step, at its default
    until a line sets it, and a dict of the wave keys per [wave]."""

    def __init__(self):
        vars(self).update(_defaults(GLOBAL_KEYS))
        del self.step
        self.waves = []


def _floats(text, count, key, problems):
    """The count finite numbers text holds, one as a float and more as an
    array, or None once problems names key."""
    one = count == 1
    parts = [text] if one else text.replace(",", " ").split()
    try:
        values = [float(part) for part in parts]
    except ValueError:
        problems.append("%s: expected %s, got %r" % (key, "a number" if one else "numbers", text))
        return None
    if len(values) != count:
        problems.append("%s: expected %d numbers, got %d" % (key, count, len(values)))
        return None
    if not all(map(math.isfinite, values)):
        what = "a finite number" if one else "finite numbers"
        problems.append("%s: expected %s, got %r" % (key, what, text))
        return None
    return values[0] if one else np.array(values)


def _value(keys, key, text, name, problems):
    """The value of key in the table keys, given as text, or None once
    problems names it as name."""
    count, _, check = keys[key]
    if not count:
        return text
    value = _floats(text, count, name, problems)
    problem = value is not None and check is not None and check(value, text)
    if problem:
        problems.append("%s: %s" % (name, problem))
        return None
    return value


def _suggest(key, pool):
    close = difflib.get_close_matches(key, sorted(pool), n=1)
    return " (did you mean %r?)" % close[0] if close else ""


def _lines(text):
    """(number, text) of every line of text that holds more than a comment;
    a comment runs from "#" to the end of its line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _read(path, what):
    """The text of the file at path, or a ConfigError naming it as what."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(["cannot read %s %s: %s" % (what, path, exc)])


def parse_config(text) -> RunConfig:
    cfg = RunConfig()
    problems = []
    # the section of the line: its table, what its keys are called, the dict
    # its values go to (None in an unknown section), how a problem names a
    # key, and the line of each key given, kept for every wave
    keys, kind, values, name, given = GLOBAL_KEYS, "key", vars(cfg), "%s", {}
    waves_given = []
    for lineno, line in _lines(text):
        if line.startswith("["):
            keys, kind, values, given = WAVE_KEYS, "wave key", None, {}
            if line == "[wave]":
                values = _defaults(WAVE_KEYS)
                cfg.waves.append(values)
                waves_given.append(given)
                name = "wave %d %%s" % len(cfg.waves)
            else:
                problems.append("line %d: unknown section %s" % (lineno, line))
            continue
        key, equals, value = line.partition("=")
        if not equals:
            problems.append("line %d: expected key = value, got %r" % (lineno, line))
            continue
        key, value = key.strip(), value.strip()
        if key not in keys:
            problems.append("line %d: unknown %s %r%s" % (lineno, kind, key, _suggest(key, keys)))
            continue
        if key in given:
            problems.append("line %d: %s %r repeats line %d" % (lineno, kind, key, given[key]))
        given[key] = lineno
        if values is not None and key in values:
            values[key] = _value(keys, key, value, name % key, problems)

    for index, wave_given in enumerate(waves_given, start=1):
        if "velocity" not in wave_given:
            problems.append("wave %d: give a velocity (3 numbers)" % index)
    if cfg.grid is not None and cfg.waves:
        problems.append("give either [wave] sections or a grid file, not both")
    if cfg.grid is None and not cfg.waves:
        problems.append("config defines no field: add [wave] sections or a grid key")
    if cfg.grid is not None and not os.path.isfile(cfg.grid):
        problems.append("grid: file not found: %s" % cfg.grid)
    if problems:
        raise ConfigError(problems)
    return cfg


def build_background(cfg: RunConfig) -> Background:
    return Background(
        mass=cfg.mass,
        charge=cfg.charge,
        torsion_coupling=cfg.torsion_coupling,
        em_potential=None if cfg.em_potential is None else ConstantVector(cfg.em_potential),
        torsion_vector=None if cfg.torsion_vector is None else ConstantVector(cfg.torsion_vector),
    )


def build_field(cfg: RunConfig, basis):
    if cfg.grid is not None:
        try:
            return load_grid(cfg.grid)
        except (OSError, ValueError) as exc:
            raise ConfigError(["grid: %s" % exc])
    # one row per wave
    v, spins = (np.array([w[key] for w in cfg.waves]) for key in ("velocity", "spin"))
    amplitudes, phases = np.array([(w["amplitude"], w["phase"]) for w in cfg.waves]).T
    momenta = cfg.mass * np.concatenate([np.sqrt(1 + np.vecdot(v, v))[:, None], v], axis=1)
    try:
        return plane_wave(momenta, cfg.mass, spins, amplitudes * np.exp(-1j * phases), basis)
    except OffShell as exc:
        raise ConfigError(["wave %d: %s" % (row + 1, text) for row, text in exc.rows.items()])


def _load_config(path):
    return parse_config(_read(path, "config"))


def _finish(rows, fmt, tolerance, checked):
    """Print rows, then fail if the worst of the checked residuals, a dict of
    names to values, breaks tolerance."""
    emit(rows, fmt)
    names = list(checked)
    return _check(np.fromiter(checked.values(), float, len(checked)), names.__getitem__, tolerance)


def _check(values, name, tolerance):
    """0, or 1 once stderr names the worst of values (flat floats) as name(i)
    when it breaks tolerance.  A value that is not finite fails first: NaN
    would pass every comparison.  Ties go to the first in order."""
    if not values.size:
        return 0
    broken = ~np.isfinite(values)
    worst = broken.argmax() if broken.any() else values.argmax()
    if broken[worst] or values[worst] >= tolerance:
        print(
            "tolerance violation: %s = %s (tolerance %s)"
            % (name(worst), G % values[worst], G % tolerance),
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


def _require_at_least(value, minimum, option):
    """Raise ConfigError unless the integer value of option is >= minimum."""
    if value < minimum:
        raise ConfigError(["%s: expected an integer >= %d, got %d" % (option, minimum, value)])


def _draw(count, option, draw):
    """draw(), or a ConfigError naming option's count when numpy cannot
    allocate the arrays it draws."""
    try:
        return draw()
    except (MemoryError, ValueError) as exc:
        # numpy raises ValueError for a shape past its own size limit
        raise ConfigError(["%s: cannot allocate %d draws (%s)" % (option, count, exc)]) from exc


def cmd_identities(args) -> int:
    if args.conventions:
        print(CONVENTIONS, end="")
        return 0
    _require_at_least(args.random, 0, "--random")
    _require_at_least(args.seed, 0, "--seed")
    if not args.tolerance > 0:
        raise ConfigError(["--tolerance: expected a number > 0, got %s" % args.tolerance])
    basis = build_chiral_basis()
    checks = verify_basis(basis)
    rng = np.random.default_rng(args.seed)
    # both draws before any work, in the order that fixes each seed's values
    lam = _draw(args.random, "--random", lambda: rng.standard_normal((args.random, 4, 4))) * 0.7
    parts = _draw(args.random, "--random", lambda: rng.standard_normal((args.random, 2, 4)))
    pair = lorentz_exp(lam - np.swapaxes(lam, -1, -2), basis)
    # spin_rep^-1 gamma^a spin_rep against vec_rep^a_b gamma^b, axes (draw, a, i, j)
    lhs = np.linalg.inv(pair.spin_rep)[:, None] @ basis.gamma @ pair.spin_rep[:, None]
    rhs = np.einsum("nab,bij->naij", pair.vec_rep, basis.gamma)
    checks["lorentz_conjugation"] = np.abs(lhs - rhs).max(initial=0.0)

    psi = parts[:, 0] + 1j * parts[:, 1]
    checks["density_interdependence"] = _worst(check_fierz(compute_bilinears(psi, basis)))
    checks["spinor_constraints"] = _worst(check_spinor_constraints(psi, basis))
    return _finish(checks.items(), args.format, args.tolerance, checks)


def _worst(checks):
    """Largest of a check's residuals over every draw, 0 when there are none."""
    return np.max(list(checks.values()), initial=0.0)


def cmd_polar(args) -> int:
    basis = build_chiral_basis()
    tolerance = 1e-6
    if args.spinor is not None:
        problems = []
        parts = _floats(args.spinor, 8, "spinor", problems)
        if problems:
            raise ConfigError(problems)
        psi = parts[0::2] + 1j * parts[1::2]
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


def _gordon_point(fld, bg, basis, points):
    """Every residual at every point of a stack (n, 4): the c residual labels,
    and one array (n, 4 + c) of each point followed by its residuals.

    Each check runs once over the whole stack, so a failing point aborts the
    scan.  The balance checks and the exact jet share one field sample.  Every
    residual scales with the mass, so each is reported per unit mass.
    """
    sample = sample_field(fld, bg, points)
    columns = {"dirac": dirac_residual(fld, bg, basis, points, sample)}
    columns.update(residual_bilinear_gordon(fld, bg, basis, points, sample))
    jet = derivative_jet(fld, bg, basis, points, sample)
    for name, value in residual_polar_groups(jet, bg).items():
        columns["group_" + name] = value
    derivative = verify_polar_derivative(jet, fld, bg, basis, sample)
    columns["polar_derivative"] = derivative.max(axis=-1)
    transport = verify_transport(jet)
    columns["transport"] = np.maximum(
        transport["velocity_transport"], transport["spin_transport"]
    )
    residuals = np.array(list(columns.values())).T / bg.mass
    return list(columns), np.concatenate([points, residuals], axis=1)


def cmd_gordon(args) -> int:
    _require_at_least(args.points, 1, "--points")
    _require_at_least(args.seed, 0, "--seed")
    cfg = _load_config(args.config)
    basis = build_chiral_basis()
    fld = build_field(cfg, basis)
    bg = build_background(cfg)
    if args.points == 1:
        points = cfg.point[None, :]
    else:
        rng = np.random.default_rng(args.seed)
        points = cfg.point + _draw(
            args.points, "--points", lambda: rng.uniform(-1.0, 1.0, size=(args.points, 4))
        )
    labels, table = _gordon_point(fld, bg, basis, points)
    c = len(labels)
    emit([("point", table[:, :4]), *zip(labels, table[:, 4:].T)], args.format, points=len(table))
    return _check(
        table[:, 4:].ravel(), lambda i: "p%d.%s" % (i // c, labels[i % c]), cfg.tolerance
    )


def cmd_guidance(args) -> int:
    cfg = _load_config(args.config)
    basis = build_chiral_basis()
    fld = build_field(cfg, basis)
    bg = build_background(cfg)
    x = cfg.point
    jet = derivative_jet(fld, bg, basis, x)
    forms = compact_forms(jet, bg)
    p_compact = momentum_from_velocity(jet.velocity, jet.spin, forms)
    p_long = momentum_long_form(jet.velocity, jet.spin, forms)
    p_conn = ETA @ jet.p
    u_back = velocity_from_momentum(p_conn, jet.spin, forms)
    # the momenta scale with the mass: their gaps count in units of max(mass, |p|)
    size = max(cfg.mass, float(np.abs(p_conn).max()))
    checked = {
        "momentum_form_gap": float(np.abs(p_compact - p_long).max()) / size,
        "momentum_consistency": float(np.abs(p_compact - p_conn).max()) / size,
        "velocity_round_trip": float(np.abs(u_back - jet.velocity).max()),
    }
    rows = [
        ("point", x),
        ("effective_mass_scale", forms.xs),
        ("zeta", forms.z / forms.xs),
        ("y_potential", forms.y),
        ("z_potential", forms.z),
        ("momentum", p_compact),
        ("momentum_from_connection", p_conn),
        ("velocity", jet.velocity),
        ("velocity_recovered", u_back),
    ] + list(checked.items())
    return _finish(rows, args.format, cfg.tolerance, checked)


def _emit_trajectory(tr, index, fmt, out):
    """Write an arc in one format call: a line naming its seed index, mode and
    status, then a line per sample of the index, tau, x and u, behind a line
    of column names in a table.  The index is a float cell, which G and %g
    print as %d does."""
    columns = ("seed", "tau", "x0", "x1", "x2", "x3", "u0", "u1", "u2", "u3")
    if fmt == "records":
        head, line = "", "sample=" + " ".join([G] * len(columns)) + "\n"
    else:
        head = "  ".join("%22s" % name for name in columns) + "\n"
        line = "  ".join(["%22.15g"] * len(columns)) + "\n"
    n = len(tr.tau)
    cells = np.column_stack([np.full(n, index), tr.tau, tr.x, tr.u]).ravel().tolist()
    template = "# trajectory %d mode=%s status=%s\n" + head + line * n
    out.write(template % (index, tr.mode, tr.status, *cells))


def _read_seeds(path):
    seeds = []
    problems = []
    for lineno, line in _lines(_read(path, "seeds")):
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
    h_tau = args.htau if args.htau is not None else cfg.tau_step
    try:
        tau_max = args.steps * h_tau if args.steps is not None else TAU_MAX
    except OverflowError:
        # more steps than a float holds: the count check below rejects it
        tau_max = np.inf
    # a negative step runs backwards --steps steps; without --steps its count
    # TAU_MAX / h_tau is negative, which the count check rejects
    if not (np.isfinite(h_tau) and h_tau != 0.0):
        raise ConfigError(["--htau or tau_step: expected a finite nonzero step, got %s" % h_tau])
    steps = tau_max / h_tau
    if not (np.isfinite(steps) and round(steps) >= 0):
        raise ConfigError(["--steps: %.6g steps, expected a finite count >= 0" % steps])
    basis = build_chiral_basis()
    fld = build_field(cfg, basis)
    bg = build_background(cfg)
    seeds = _read_seeds(args.seeds) if args.seeds is not None else [cfg.point]
    # opened before the integration, so that a bad path costs no arcs
    try:
        sink = open(args.out, "w") if args.out is not None else None
    except OSError as exc:
        raise ConfigError(["cannot write --out %s: %s" % (args.out, exc)])
    try:
        arcs = batch_integrate(fld, bg, basis, seeds, tau_max=tau_max, h_tau=h_tau, mode=args.mode)
        out = sink or sys.stdout
        for index, arc in enumerate(arcs):
            _emit_trajectory(arc, index, args.format, out)
        # an arc that failed at its seed has no samples to check
        violations = [arc.diagnostics.get("max_unit_violation", 0.0) for arc in arcs]
        worst = np.max(violations, initial=0.0)
        emit([("max_unit_violation", worst)], "records", out)
    finally:
        if sink is not None:
            sink.close()
    stopped = [index for index, arc in enumerate(arcs) if not arc.completed]
    for index in stopped:
        print("trajectory %d did not complete: %s" % (index, arcs[index].status), file=sys.stderr)
    if stopped:
        return 1
    return _check(np.array([worst]), ["max_unit_violation"].__getitem__, cfg.tolerance)


class _Parser(argparse.ArgumentParser):
    """Takes "-1,0,0,0,1,0,0,0" for a value, as in "polar --spinor -1,0,0,0,1,0,0,0".
    Plain argparse takes a word that starts with "-" for a value only when the
    whole word is one number, and otherwise for an unknown option; here "-"
    followed by a digit, or by a point and a digit, starts a value.  No option
    of this parser starts that way."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser():
    parser = _Parser(
        prog="diracpolar",
        description="polar-variable toolkit for relativistic spinor fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # long options must be spelled out: with abbreviations a removed option
    # can still parse as a prefix of another, "gordon --h" as --help
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p_id = add("identities", help="check the matrix algebra layer")
    p_id.add_argument(
        "--conventions", action="store_true", help="print the convention sheet and exit"
    )
    p_id.add_argument("--random", type=int, default=100, metavar="N", help="number of random draws")
    p_id.add_argument("--seed", type=int, default=0, metavar="S")
    p_id.add_argument("--tolerance", type=float, default=1e-10)
    p_id.add_argument("--format", choices=("table", "records"), default="table")
    p_id.set_defaults(func=cmd_identities)

    p_pol = add("polar", help="polar decomposition of a spinor")
    p_pol.add_argument("--config", help="field config; decomposes at its point")
    p_pol.add_argument(
        "--spinor", metavar="RE0,IM0,...,RE3,IM3", help="decompose this spinor instead"
    )
    p_pol.add_argument("--format", choices=("table", "records"), default="table")
    p_pol.set_defaults(func=cmd_polar)

    p_gor = add("gordon", help="density balance and polar group residuals")
    p_gor.add_argument("--config", required=True)
    p_gor.add_argument("--points", type=int, default=1, metavar="N", help="sample N points")
    p_gor.add_argument("--seed", type=int, default=0, metavar="S")
    p_gor.add_argument("--format", choices=("table", "records"), default="table")
    p_gor.set_defaults(func=cmd_gordon)

    p_gui = add("guidance", help="momentum and velocity maps at a point")
    p_gui.add_argument("--config", required=True)
    p_gui.add_argument("--format", choices=("table", "records"), default="table")
    p_gui.set_defaults(func=cmd_guidance)

    p_tra = add("trajectory", help="integrate integral curves")
    p_tra.add_argument("--config", required=True)
    p_tra.add_argument("--seeds", metavar="FILE", help="file of start points, 4 numbers per line")
    p_tra.add_argument("--mode", choices=MODES, default="kinematic")
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
