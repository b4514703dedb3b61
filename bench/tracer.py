"""Outside-in tracer for the diracpolar layers.

``Tracer.install`` replaces each traced function at every ``diracpolar``
module namespace that binds it (a method on its class) with a wrapper that
records one span per call: label, start, end and parent span.  Spans stay in
memory as flat arrays.  Call counts, self time and ratios are computed from
the span tree after the run, ``write`` saves the spans, and ``restore`` puts
every original binding back.  The program itself is not changed.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

PACKAGE = "diracpolar"

# (module, attribute) of every reported layer function; its label is
# "module.attribute".  algebra.expm is scipy.linalg.expm as bound there.
LAYERS = [
    ("algebra", "lorentz_exp"),
    ("algebra", "expm"),
    ("algebra", "rot_z_to_params"),
    ("bilinears", "compute_bilinears"),
    ("bilinears", "require_regular"),
    ("polar", "polar_decompose"),
    ("fieldconn", "polar_jet"),
    ("fieldconn", "PlaneWaveField.evaluate"),
    ("fieldconn", "PlaneWaveField.partial"),
    ("fieldconn", "covariant_derivative"),
    ("fieldconn", "verify_polar_derivative"),
    ("fieldconn", "verify_transport"),
    ("gordon", "residual_bilinear_gordon"),
    ("gordon", "residual_polar_groups"),
    ("gordon", "dirac_residual"),
    ("guidance", "compact_forms"),
    ("guidance", "velocity_from_momentum"),
    ("trajectories", "batch_integrate"),
    ("trajectories", "integrate"),
    ("cli", "parse_config"),
    ("cli", "build_field"),
    ("cli", "emit"),
    ("cli", "_emit_trajectory"),
]

# Spans that are not layers: one per CLI invocation, so all spans of an
# operation share a root, and the bases of the per-point and per-evaluation
# ratios.  A velocity evaluation is a call of the closure that
# trajectories.velocity_field returns.
OPERATION = "cli.console_main"
POINT = "cli._gordon_point"
VELOCITY_EVAL = "trajectories.velocity_eval"

# ratio name -> (label of the spans counted, label of the span they must sit
# under, whose count is the base)
RATIOS = {
    "fieldconn.polar_jet.per_point": ("fieldconn.polar_jet", POINT),
    "fieldconn.covariant_derivative.per_point": ("fieldconn.covariant_derivative", POINT),
    "polar.polar_decompose.per_velocity_eval": ("polar.polar_decompose", VELOCITY_EVAL),
    "algebra.expm.per_velocity_eval": ("algebra.expm", VELOCITY_EVAL),
}


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    def __init__(self):
        self.labels = []
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._saved = []     # (namespace, attribute, original), in install order

    # -- installing and removing the wrappers ------------------------------

    def install(self):
        for module, attr in LAYERS:
            self._wrap(module, attr, lambda fn, label=module + "." + attr: self._span(label, fn))
        self._wrap("cli", "console_main", lambda fn: self._span(OPERATION, fn))
        self._wrap("cli", "_gordon_point", lambda fn: self._span(POINT, fn))
        self._wrap("trajectories", "velocity_field", self._velocity_factory)
        return self

    def restore(self):
        for namespace, attr, original in reversed(self._saved):
            setattr(namespace, attr, original)
        self._saved.clear()

    def bindings(self):
        """(namespace, attribute, original) of every wrapped binding."""
        return list(self._saved)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    def _wrap(self, module, attr, make):
        owner = importlib.import_module("%s.%s" % (PACKAGE, module))
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            self._replace(cls, method, make(vars(cls)[method]))
            return
        original = getattr(owner, attr)
        wrapper = make(original)
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, wrapper)

    def _replace(self, namespace, attr, wrapper):
        self._saved.append((namespace, attr, vars(namespace)[attr]))
        setattr(namespace, attr, wrapper)

    def _label_id(self, label):
        if label not in self.labels:
            self.labels.append(label)
        return self.labels.index(label)

    def _span(self, label, fn):
        label_id = self._label_id(label)
        name, parent, start, end = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(name)
            name.append(label_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        return wrapper

    def _velocity_factory(self, factory):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return self._span(VELOCITY_EVAL, factory(*args, **kwargs))

        return wrapper

    # -- reading the span tree ---------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        duration = np.frombuffer(self.end).copy() - np.frombuffer(self.start).copy()
        return name, parent, duration

    def count(self, label) -> int:
        if label not in self.labels:
            return 0
        return int(np.count_nonzero(self._arrays()[0] == self.labels.index(label)))

    def layer_stats(self):
        """label -> (calls, self seconds, total seconds).  Self time is a span's
        duration less the time its child spans cover; no traced function calls
        itself, so total time is the sum of span durations."""
        name, parent, duration = self._arrays()
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child], minlength=len(name))
        self_time = duration - covered
        n = len(self.labels)
        calls = np.bincount(name, minlength=n)
        own = np.bincount(name, weights=self_time, minlength=n)
        total = np.bincount(name, weights=duration, minlength=n)
        return {
            label: (int(calls[i]), float(own[i]), float(total[i]))
            for i, label in enumerate(self.labels)
        }

    def count_under(self, label, ancestor) -> int:
        """Spans of label that have a span of ancestor above them."""
        if label not in self.labels or ancestor not in self.labels:
            return 0
        target = self.labels.index(label)
        above = self.labels.index(ancestor)
        name = self.name.tolist()
        inside = [False] * len(name)
        hits = 0
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0:
                inside[i] = inside[p] or name[p] == above
            if inside[i] and name[i] == target:
                hits += 1
        return hits

    def write(self, path):
        name, parent, _ = self._arrays()
        np.savez(
            path,
            labels=np.array(self.labels),
            name=name,
            parent=parent,
            start=np.frombuffer(self.start).copy(),
            end=np.frombuffer(self.end).copy(),
        )
