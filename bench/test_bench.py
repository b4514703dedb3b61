"""Tests of the benchmark's own machinery: the tracer and the gates.

Run from the repository root with ``python -m pytest bench``.
"""
import os
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from diracpolar import cli, fieldconn, polar, trajectories  # noqa: E402
from diracpolar.algebra import build_chiral_basis  # noqa: E402
from diracpolar.fieldconn import Background  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import VELOCITY_EVAL, Tracer  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_output_is_byte_identical(name, tmp_path):
    workload = workloads.WORKLOADS[name](5, str(tmp_path))
    op = workload.op(0)
    _, plain, failures = run.run_op(op)
    assert not failures
    with Tracer() as tracer:
        _, traced, failures = run.run_op(op)
    assert not failures
    assert traced == plain
    assert tracer.count("cli.console_main") == 1


@pytest.mark.parametrize("mode", trajectories.MODES)
def test_traced_velocity_evals_match_diagnostics(mode):
    basis = build_chiral_basis()
    cfg = cli.parse_config(workloads.config_text(2))
    fld = cli.build_field(cfg, basis)
    with Tracer() as tracer:
        arc = trajectories.integrate(
            fld, Background(mass=1.0), basis, [0.0, 0.05, -0.1, 0.15], tau_max=0.2, mode=mode
        )
    assert arc.completed
    assert tracer.count(VELOCITY_EVAL) == arc.diagnostics["velocity_evals"]


def test_restore_puts_back_every_binding(tmp_path):
    workload = workloads.GordonScan(5, str(tmp_path))
    with Tracer() as tracer:
        bindings = tracer.bindings()
        run.run_op(workload.op(0))
        wrapped = {(ns.__name__, attr) for ns, attr, _ in bindings}
        assert all(vars(ns)[attr] is not original for ns, attr, original in bindings)
    for module in ("diracpolar.polar", "diracpolar.fieldconn", "diracpolar.cli"):
        assert (module, "polar_decompose") in wrapped
        assert (module, "lorentz_exp") in wrapped
    assert ("diracpolar.algebra", "expm") in wrapped
    assert ("PlaneWaveField", "evaluate") in wrapped
    assert all(vars(ns)[attr] is original for ns, attr, original in bindings)
    assert polar.polar_decompose is fieldconn.polar_decompose is cli.polar_decompose
    assert tracer.bindings() == []


def test_self_time_and_ancestry_from_span_tree():
    tracer = Tracer()
    tracer.labels = ["op", "layer"]
    for name, parent, start, end in ((0, -1, 0.0, 10.0), (1, 0, 1.0, 2.0), (1, 0, 3.0, 5.0),
                                     (1, -1, 11.0, 12.0)):
        tracer.name.append(name)
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
    stats = tracer.layer_stats()
    assert stats["op"] == (1, 7.0, 10.0)
    assert stats["layer"] == (3, 4.0, 4.0)
    assert tracer.count_under("layer", "op") == 2


def test_tail_has_ten_samples_beyond_it():
    q, value = run.tail(list(np.arange(100.0)))
    assert (q, value) == (90.0, 89.0)


def test_gates_reject_bad_output():
    starts = np.zeros((1, 4))
    good = (
        "# trajectory 0 mode=kinematic status=completed\n"
        "sample=0 0 0 0 0 0 1 0 0 0\n"
        "sample=0 0.05 0.05 0 0 0 1 0 0 0\n"
        "max_unit_violation=0\n"
    )
    assert workloads.check_arcs(0, good, starts, 1) == []
    assert workloads.check_arcs(1, good, starts, 1)
    assert workloads.check_arcs(0, good.replace("=completed", "=aborted at tau=0"), starts, 1)
    assert workloads.check_arcs(0, good.replace("violation=0", "violation=1e-3"), starts, 1)
    far = {0: ("completed", np.zeros((2, 9)) + 1e-3)}
    assert workloads.check_arcs(0, good, starts, 1, reference=far)

    scan = "p0.point=0 0 0 0\np0.dirac=1e-12\np0.group_a1=1e-9\n"
    assert workloads.check_gordon(0, scan, 1) == []
    assert workloads.check_gordon(0, scan.replace("1e-9", "2e-6"), 1)
    assert workloads.check_gordon(0, scan, 2)
