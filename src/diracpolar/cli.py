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
    GriddedField,
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


def _template(names, sizes, fmt, width, shown=0):
    """The format lines of a report: a line per name, then its sizes[i]
    values as G; "name=values" for records, the name padded to width for a
    table, less the shown characters that go in front of each line."""
    if fmt == "records":
        pads = ["="] * len(names)
    else:
        pads = [" " * (width + 2 - shown - len(name)) for name in names]
    return [
        name.replace("%", "%%") + pad + " ".join([G] * size) + "\n"
        for name, pad, size in zip(names, pads, sizes)
    ]


def emit(rows, fmt, out=None, points=None):
    """Write (name, value) pairs, value a scalar or a vector, one line each:
    name=value for records, an aligned table otherwise.

    With points, a table (n, k), the rows are (name, size) pairs with sizes
    adding up to k: the lines repeat for each row K of the table, with the
    names behind "pK." and that row's values, all points one table."""
    if points is None:
        names = [name for name, _ in rows]
        values = [np.asarray(value, dtype=float).ravel() for _, value in rows]
        width = max(map(len, names), default=0)
        template = "".join(_template(names, [v.size for v in values], fmt, width))
        cells = np.concatenate([np.empty(0), *values]).tolist()
    else:
        names, sizes = zip(*rows)
        n = len(points)
        width = max(map(len, names)) + len("p%d." % (n - 1))
        # a block of lines per count of index digits, which in a table share
        # their padding; each point joins its block's lines with its "pK."
        blocks = [["", *_template(names, sizes, fmt, width, digits + 2)]
                  for digits in range(1, len(str(n - 1)) + 1)]
        template = "".join(("p%d." % k).join(blocks[len(str(k)) - 1]) for k in range(n))
        cells = points.ravel().tolist()
    (out or sys.stdout).write(template % tuple(cells))


# the mass range: the smallest normal float, below which the points and proper
# times mapped to units of the mass keep few bits, and the largest mass whose square is finite
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
# A wave's velocity v gives it the momentum (sqrt(1 + v.v), v) in units of the
# mass, which plane_wave bounds by BOOST_MAX; the components go first, so
# that no square overflows.  Every wave gives its velocity.
WAVE_KEYS = {
    "velocity": (3, None, lambda v, text: (
        "a component exceeds %.0e" % BOOST_MAX if np.abs(v).max() > BOOST_MAX
        else "p0 / mass = sqrt(1 + v.v) exceeds %.0e, got %r" % (BOOST_MAX, text)
        if np.sqrt(1 + v @ v) > BOOST_MAX else None)),
    "spin": (3, np.array([0.0, 0.0, 1.0]), lambda spin, text: None if spin.any() else (
        "expected a nonzero direction, got %r" % text)),
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


def _in_mass_units(op, mass, *named):
    """op(value, mass) of each (name, value) of named, None for None: the value
    in units of the mass, np.multiply for a length and np.divide for a
    momentum.  A finite value can leave the finite floats there, and a
    ConfigError names each one that does."""
    with np.errstate(over="ignore"):
        mapped = [None if value is None else op(value, mass) for _, value in named]
    problems = ["%s: not finite in units of the mass (mass = %.17g)" % (name, mass)
                for (name, _), value in zip(named, mapped)
                if value is not None and not np.isfinite(value).all()]
    if problems:
        raise ConfigError(problems)
    return mapped


def build_background(cfg: RunConfig) -> Background:
    """cfg's background in units of the mass (build_field): q a and g w, momenta,
    each the coupling times its potential over the mass, None where either is 0
    or absent.  A ConfigError names both keys of a product that is not finite."""
    keys = ("charge", "em_potential"), ("torsion_coupling", "torsion_vector")
    potentials = _in_mass_units(np.divide, cfg.mass, *((a, getattr(cfg, a)) for _, a in keys))
    with np.errstate(over="ignore"):
        coupled = [getattr(cfg, q) * a if getattr(cfg, q) and a is not None else None
                   for (q, _), a in zip(keys, potentials)]
    problems = ["%s * %s: not finite in units of the mass (mass = %.17g)" % (*pair, cfg.mass)
                for pair, qa in zip(keys, coupled) if qa is not None and not np.isfinite(qa).all()]
    if problems:
        raise ConfigError(problems)
    return Background(1.0, *(None if qa is None else ConstantVector(qa) for qa in coupled))


def build_field(cfg: RunConfig, basis):
    """cfg's field in units of the mass, the units every command computes in.
    As psi_m(x) = psi_1(m x), a length there is m times cfg's, a grid's origin
    and spacing too, and a wave of velocity v has the momentum (sqrt(1 + v.v),
    v); each command maps its own points, times and momenta in and out (README)."""
    if cfg.grid is not None:
        try:
            fld = load_grid(cfg.grid)
            origin, spacing = _in_mass_units(np.multiply, cfg.mass, ("grid: origin", fld.origin),
                                             ("grid: spacing", fld.spacing))
            # checked again, as a spacing can underflow to 0
            fld = GriddedField(origin, spacing, fld.data)
            # a wave config's bounds: its amplitudes, and d_mu psi ~ max|psi| / spacing
            amplitude, steep = np.abs(fld.data).max(), AMPLITUDE_MAX * BOOST_MAX * spacing.min()
            if amplitude and not AMPLITUDE_MIN <= amplitude <= min(AMPLITUDE_MAX, steep):
                raise ValueError("largest |psi| component %.3e, expected 0 or in [%.0e, %.3e]"
                                 % (amplitude, AMPLITUDE_MIN, min(AMPLITUDE_MAX, steep)))
            return fld
        except (OSError, ValueError) as exc:
            raise ConfigError(["grid: %s" % exc])
    # one row per wave
    v, spins = (np.array([w[key] for w in cfg.waves]) for key in ("velocity", "spin"))
    amplitudes, phases = np.array([(w["amplitude"], w["phase"]) for w in cfg.waves]).T
    momenta = np.concatenate([np.sqrt(1 + np.vecdot(v, v))[:, None], v], axis=1)
    try:
        return plane_wave(momenta, 1.0, spins, amplitudes * np.exp(-1j * phases), basis)
    except OffShell as exc:
        raise ConfigError(["wave %d: %s" % (row + 1, text) for row, text in exc.rows.items()])


def _setup(path):
    """(cfg, basis, field, background) of the config file at path, each built
    and checked, in units of the mass; every config command starts here."""
    cfg = parse_config(_read(path, "config"))
    basis = build_chiral_basis()
    return cfg, basis, build_field(cfg, basis), build_background(cfg)


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
    if args.config is not None:
        cfg, basis, fld, _ = _setup(args.config)
        (point,) = _in_mass_units(np.multiply, cfg.mass, ("point", cfg.point))
        psi, tolerance = fld.evaluate(point), cfg.tolerance
    else:
        problems = []
        parts = _floats(args.spinor, 8, "spinor", problems)
        if problems:
            raise ConfigError(problems)
        psi, tolerance = parts[0::2] + 1j * parts[1::2], 1e-6
        basis = build_chiral_basis()
    try:
        pd = polar_decompose(psi, basis)
    except SingularSpinor as exc:
        # the input itself is unusable, so this is a configuration problem
        raise ConfigError(["SingularSpinor: %s" % exc])
    back = polar_reconstruct(pd, basis)
    round_trip = float(np.abs(back - psi).max() / np.linalg.norm(psi))
    names = ("density", "chiral_angle", "velocity", "spin", "residual_phase", "fit_residual")
    rows = [(name, getattr(pd, name)) for name in names] + [("round_trip_residual", round_trip)]
    return _finish(rows, args.format, tolerance, {"round_trip_residual": round_trip})


def _gordon_point(fld, bg, basis, points):
    """Every residual at every point of a stack (n, 4): the c residual labels,
    and one array (n, 4 + c) of each point followed by its residuals.

    Each check runs once over the whole stack, so a failing point aborts the
    scan.  The balance checks and the exact jet share one field sample.  The
    jet goes first: its regularity guard fires before the balance checks
    divide by the densities.  In units of the mass (build_field) every
    residual is per unit mass.
    """
    sample = sample_field(fld, bg, points)
    jet = derivative_jet(fld, bg, basis, points, sample)
    columns = {"dirac": dirac_residual(fld, bg, basis, points, sample)}
    columns.update(residual_bilinear_gordon(fld, bg, basis, points, sample))
    columns.update(("group_" + name, v) for name, v in residual_polar_groups(jet, bg).items())
    columns["polar_derivative"] = verify_polar_derivative(jet, fld, bg, basis, sample).max(axis=-1)
    # the worse of the velocity's and the spin's transport
    columns["transport"] = np.maximum(*verify_transport(jet).values())
    return list(columns), np.concatenate([points, np.array(list(columns.values())).T], axis=1)


def cmd_gordon(args) -> int:
    _require_at_least(args.points, 1, "--points")
    _require_at_least(args.seed, 0, "--seed")
    cfg, basis, fld, bg = _setup(args.config)
    if args.points == 1:
        points = cfg.point[None, :]
    else:
        rng = np.random.default_rng(args.seed)
        points = cfg.point + _draw(
            args.points, "--points", lambda: rng.uniform(-1.0, 1.0, size=(args.points, 4))
        )
    (mapped,) = _in_mass_units(np.multiply, cfg.mass, ("point", points))
    labels, table = _gordon_point(fld, bg, basis, mapped)
    table[:, :4] = points    # each point as drawn, not mapped back
    c = len(labels)
    emit([("point", 4), *((label, 1) for label in labels)], args.format, points=table)
    return _check(
        table[:, 4:].ravel(), lambda i: "p%d.%s" % (i // c, labels[i % c]), cfg.tolerance
    )


def cmd_guidance(args) -> int:
    cfg, basis, fld, bg = _setup(args.config)
    m = cfg.mass
    (point,) = _in_mass_units(np.multiply, m, ("point", cfg.point))
    jet = derivative_jet(fld, bg, basis, point)
    forms = compact_forms(jet, bg)
    p_compact = momentum_from_velocity(jet.velocity, jet.spin, forms)
    p_long = momentum_long_form(jet.velocity, jet.spin, forms)
    p_conn = ETA @ jet.p
    u_back = velocity_from_momentum(p_conn, jet.spin, forms)
    # the momenta's gaps count in units of the mass, or of |p| when larger
    size = max(1.0, float(np.abs(p_conn).max()))
    checked = {
        "momentum_form_gap": float(np.abs(p_compact - p_long).max()) / size,
        "momentum_consistency": float(np.abs(p_compact - p_conn).max()) / size,
        "velocity_round_trip": float(np.abs(u_back - jet.velocity).max()),
    }
    rows = [
        ("point", cfg.point),
        ("effective_mass_scale", m * forms.xs),
        ("zeta", forms.z / forms.xs),
        ("y_potential", m * forms.y),
        ("z_potential", m * forms.z),
        ("momentum", m * p_compact),
        ("momentum_from_connection", m * p_conn),
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
    """(name, point) of every point of the seeds file at path, each named by
    its line, "seeds line N"."""
    seeds = []
    problems = []
    for lineno, line in _lines(_read(path, "seeds")):
        name = "seeds line %d" % lineno
        vec = _floats(line, 4, name, problems)
        if vec is not None:
            seeds.append((name, vec))
    if not seeds:
        problems.append("seeds file %s lists no points" % path)
    if problems:
        raise ConfigError(problems)
    return seeds


def cmd_trajectory(args) -> int:
    cfg, basis, fld, bg = _setup(args.config)
    if cfg.grid is not None:
        # grid fields answer only at their nodes, and the first RK4 stage
        # always leaves the node it starts from
        raise ConfigError(["grid: trajectory needs a [wave] field, not a grid file"])
    # the step and the arc's proper time in units of the mass, m
    m = cfg.mass
    h_tau = m * cfg.tau_step
    try:
        tau_max = args.steps * h_tau if args.steps is not None else m * TAU_MAX
    except OverflowError:
        # more steps than a float holds: the count check below rejects it
        tau_max = np.inf
    # a negative step runs backwards --steps steps; without --steps its count
    # TAU_MAX / h_tau is negative, which the count check rejects
    if not (np.isfinite(h_tau) and h_tau != 0.0):
        raise ConfigError(["tau_step: expected a finite nonzero mass * step, got %s" % h_tau])
    steps = tau_max / h_tau
    if not (np.isfinite(steps) and round(steps) >= 0):
        raise ConfigError(["--steps: %.6g steps, expected a finite count >= 0" % steps])
    named = _read_seeds(args.seeds) if args.seeds is not None else [("point", cfg.point)]
    seeds = np.array(_in_mass_units(np.multiply, m, *named))
    # opened before the integration, so that a bad path costs no arcs
    try:
        sink = open(args.out, "w") if args.out is not None else None
    except OSError as exc:
        raise ConfigError(["cannot write --out %s: %s" % (args.out, exc)])
    try:
        arcs = batch_integrate(fld, bg, basis, seeds, tau_max=tau_max, h_tau=h_tau, mode=args.mode)
        out = sink or sys.stdout
        for index, arc in enumerate(arcs):
            arc.tau, arc.x = arc.tau / m, arc.x / m
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
    source = p_pol.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="field config; decomposes at its point")
    source.add_argument(
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
