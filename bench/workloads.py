"""Workloads of the diracpolar benchmark.

Every input the program sees (config files and start-point files) is made
here from the workload seed and the operation index, so the same seed gives
the same inputs.  An operation is one ``diracpolar`` CLI invocation; each
comes with the correctness gates its output must pass.
"""
from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from diracpolar import cli

TOLERANCE = 1e-6
# criterion 8 bound on the gap between guidance and kinematic streamlines
MODE_GAP = 1e-5

# (spatial proper velocity, rest-frame spin, amplitude); the first two are the
# two-wave exact solution of acceptance criterion 5
WAVES = [
    ((0.25, -0.1, 0.05), (0.1, 0.2, 1.0), 1.0),
    ((0.1, 0.15, -0.08), (-0.1, 0.1, 1.0), 0.3),
    ((-0.2, 0.05, 0.15), (0.3, -0.2, 1.0), 0.2),
    ((0.05, -0.25, -0.1), (0.0, 0.4, 1.0), 0.15),
]


def config_text(n_waves, phases=None) -> str:
    """Config of the first n_waves free waves; phases default to zero."""
    phases = np.zeros(n_waves) if phases is None else phases
    lines = ["mass = 1.0", "tolerance = %.17g" % TOLERANCE, "tau_step = 0.05", "step = 1e-3"]
    for (velocity, spin, amplitude), phase in zip(WAVES[:n_waves], phases):
        lines += [
            "[wave]",
            "velocity = %s" % " ".join("%.17g" % v for v in velocity),
            "spin = %s" % " ".join("%.17g" % s for s in spin),
            "amplitude = %.17g" % amplitude,
            "phase = %.17g" % phase,
        ]
    return "\n".join(lines) + "\n"


def run_cli(argv):
    """One in-process CLI invocation: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        # looked up on every call so that a tracer's wrapper is used
        code = cli.console_main(argv)
    return code, out.getvalue(), err.getvalue()


@dataclass
class Op:
    """One CLI invocation, the work it does, and how to check its output."""

    argv: list
    work: int                       # RK4 steps or gordon points requested
    check: Callable                 # (exit code, output text) -> list of failures
    out_path: str | None = None     # output file, when the CLI writes one

    def output(self, stdout):
        """The records the operation produced, from stdout or its output file."""
        if self.out_path is None:
            return stdout
        with open(self.out_path) as fh:
            text = fh.read()
        os.remove(self.out_path)
        return text


def parse_arcs(text):
    """Trajectory records -> ({index: (status, rows)}, max_unit_violation)."""
    arcs = {}
    worst = None
    for line in text.splitlines():
        if line.startswith("# trajectory "):
            index = int(line.split()[2])
            arcs[index] = (line.split("status=", 1)[1], [])
        elif line.startswith("sample="):
            head, *values = line.split()
            arcs[int(head[len("sample="):])][1].append([float(v) for v in values])
        elif line.startswith("max_unit_violation="):
            worst = float(line.split("=", 1)[1])
    return {k: (status, np.array(rows)) for k, (status, rows) in arcs.items()}, worst


def check_arcs(code, text, starts, steps, reference=None):
    """Gates of one trajectory batch; reference holds the kinematic arcs."""
    if code != 0:
        return ["exit code %d" % code]
    arcs, worst = parse_arcs(text)
    failures = []
    if sorted(arcs) != list(range(len(starts))):
        return ["expected %d arcs, got %d" % (len(starts), len(arcs))]
    for k, x0 in enumerate(starts):
        status, rows = arcs[k]
        if status != "completed":
            failures.append("arc %d status %s" % (k, status))
            continue
        if rows.shape != (steps + 1, 9) or not np.array_equal(rows[0, 1:5], x0):
            failures.append("arc %d: wrong samples or start point" % k)
            continue
        if reference is not None:
            gap = np.abs(rows[:, 1:5] - reference[k][1][:, 1:5]).max()
            if not gap < MODE_GAP:
                failures.append("arc %d: guidance-kinematic gap %.3e" % (k, gap))
    if worst is None or not worst < TOLERANCE:
        failures.append("max_unit_violation %s" % worst)
    return failures


def check_gordon(code, text, n_points):
    """Gates of one gordon scan: every pN residual below the tolerance."""
    if code != 0:
        return ["exit code %d" % code]
    labels = {}
    failures = []
    for line in text.splitlines():
        key, value = line.split("=", 1)
        point, label = key.split(".", 1)
        if label == "point":
            labels.setdefault(point, [])
            continue
        labels.setdefault(point, []).append(label)
        residual = float(value)
        if not residual < TOLERANCE:
            failures.append("%s = %s" % (key, value))
    if sorted(labels) != sorted("p%d" % k for k in range(n_points)):
        failures.append("expected %d points, got %d" % (n_points, len(labels)))
    elif not labels["p0"] or any(v != labels["p0"] for v in labels.values()):
        failures.append("points report different residuals")
    return failures


class Workload:
    """Inputs and operations of one workload, made in workdir from seed."""

    name = ""
    why = ""
    work_unit = ""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def _path(self, name):
        return os.path.join(self.workdir, name)

    def _write(self, name, text):
        path = self._path(name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def _rng(self, k):
        """Generator of operation k's inputs."""
        return np.random.default_rng([self.seed, k])

    def setup_config(self) -> str:
        """Config whose set-up the fresh-interpreter probe times."""
        raise NotImplementedError

    def op(self, k) -> Op:
        raise NotImplementedError


class _Arcs(Workload):
    mode = ""
    n_waves = 0
    arcs_per_op = 0
    steps = 0
    spread = 0.0
    work_unit = "rk4_steps"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.config = self._write("field.cfg", config_text(self.n_waves, self._phases()))

    def _phases(self):
        return None

    def setup_config(self):
        return self.config

    def _start_points(self, k):
        starts = self._rng(k).uniform(-self.spread, self.spread, size=(self.arcs_per_op, 4))
        # 17 significant digits, so the CLI reads back exactly these points
        text = "".join(" ".join("%.17g" % v for v in row) + "\n" for row in starts)
        return starts, self._write("starts-%d.txt" % k, text)

    def _argv(self, seeds_path, mode):
        return [
            "trajectory", "--config", self.config, "--seeds", seeds_path,
            "--mode", mode, "--steps", str(self.steps), "--format", "records",
        ]


class GuidanceArcs(_Arcs):
    name = "guidance-arcs"
    why = "guidance-mode streamlines: the polar_jet, polar_decompose and expm hot path"
    mode = "guidance"
    n_waves = 2
    arcs_per_op = 2
    steps = 8
    spread = 0.5

    def op(self, k):
        starts, seeds_path = self._start_points(k)
        # the kinematic arc from the same start points, made before the timed call
        code, text, _ = run_cli(self._argv(seeds_path, "kinematic"))
        reference = parse_arcs(text)[0] if code == 0 else None

        def check(code, text):
            if reference is None:
                return ["kinematic reference run failed"]
            return check_arcs(code, text, starts, self.steps, reference)

        return Op(self._argv(seeds_path, self.mode), self.arcs_per_op * self.steps, check)


class KinematicArcs(_Arcs):
    name = "kinematic-arcs"
    why = "kinematic streamlines in a four-wave field: bilinears and RK4, no polar layer"
    mode = "kinematic"
    n_waves = 4
    arcs_per_op = 4
    steps = 150
    spread = 1.0

    def _phases(self):
        return np.random.default_rng(self.seed).uniform(0.0, 2 * np.pi, size=self.n_waves)

    def op(self, k):
        starts, seeds_path = self._start_points(k)
        out_path = self._path("arcs-%d.txt" % k)
        argv = self._argv(seeds_path, self.mode) + ["--out", out_path]
        return Op(
            argv,
            self.arcs_per_op * self.steps,
            lambda code, text: check_arcs(code, text, starts, self.steps),
            out_path=out_path,
        )


class GordonScan(Workload):
    name = "gordon-scan"
    why = "all balance equations at sampled points: jets, product rule and polar groups"
    work_unit = "points"
    points = 20
    # three scans of the two-wave field for each scan of the four-wave one,
    # so the median sits inside one cluster of operation times
    wave_cycle = (2, 2, 2, 4)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        phases = np.random.default_rng(self.seed).uniform(0.0, 2 * np.pi, size=(2, len(WAVES)))
        self.configs = {
            n: self._write("field-%d.cfg" % n, config_text(n, row))
            for n, row in zip((2, 4), phases)
        }

    def setup_config(self):
        return self.configs[4]

    def op(self, k):
        config = self.configs[self.wave_cycle[k % len(self.wave_cycle)]]
        point_seed = int(self._rng(k).integers(2**31))
        argv = [
            "gordon", "--config", config, "--points", str(self.points),
            "--seed", str(point_seed), "--format", "records",
        ]
        return Op(argv, self.points, lambda code, text: check_gordon(code, text, self.points))


WORKLOADS = {w.name: w for w in (GuidanceArcs, KinematicArcs, GordonScan)}
