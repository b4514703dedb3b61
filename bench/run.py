"""Benchmark of the diracpolar command line tool.

Usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process drives ``diracpolar.cli.console_main`` as a closed
loop: an operation is one CLI invocation, and the next one starts only after
the previous one has finished and its output has passed its correctness
gates.  ``--trace 0`` measures for S seconds and prints the end-to-end
metrics.  ``--trace 1`` runs the operations untraced for S/2 seconds, replays
the same operations under the outside-in tracer, requires byte-identical
output, and prints the per-layer metrics.  The last line of stdout is one
JSON object; the exit code is 0 only when every operation passed.
"""
import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import namedtuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

# The load is one process working on 4x4 matrices, so extra BLAS threads
# would add scheduling noise and nothing else.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 10
WARMUP_OPS = 2
# the tail is the highest percentile with this many samples beyond it
TAIL_BEYOND = 10
MAX_REPORTED_FAILURES = 20


def pin_blas_threads():
    for variable in BLAS_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)


def import_program():
    """Import diracpolar from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    import diracpolar

    if not os.path.abspath(diracpolar.__file__).startswith(SRC + os.sep):
        raise ImportError("diracpolar imported from %s, not %s" % (diracpolar.__file__, SRC))


def environment(seed):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "blas_threads": BLAS_THREADS,
    }


def setup_seconds(config):
    """Set-up time in one fresh interpreter (see setup_probe.py)."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), config],
        capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
    )
    return float(done.stdout.split()[-1])


class Reference:
    """A fixed computation, timed right before and right after every
    operation.

    A CPU shared with other tenants runs at changing speed: on a 2-vCPU
    container a fixed kernel alternated between speeds up to about 2x apart,
    and the share of time spent at each changed from run to run.  An
    operation's wall time divided by the reference time around it depends
    much less on that speed, so the end-to-end metrics are given in these
    reference units.  The computation has the program's mix of work (small
    scipy and numpy calls, Python arithmetic and number formatting) but does
    not call the program, so a change to the program never changes it.
    """

    REPEATS = 12

    def __init__(self):
        import numpy as np
        from scipy.linalg import expm

        rng = np.random.default_rng(0)
        self.np, self.expm = np, expm
        self.matrix = 0.3 * rng.standard_normal((4, 4))
        self.tensor = rng.standard_normal((4, 4, 4)) + 0j
        self.vector = rng.standard_normal(4) + 0j

    def __call__(self):
        np = self.np
        start = time.perf_counter()
        total = 0.0
        for _ in range(self.REPEATS):
            e = self.expm(self.matrix)
            total += np.linalg.inv(e)[0, 0]
            total += np.einsum("i,aij,j->a", self.vector, self.tensor, self.vector).real.sum()
            total += len(" ".join("%.17g" % x for x in e.ravel()))
            total += sum(0.5 * k for k in range(40))
        return time.perf_counter() - start


def run_op(op):
    """Run and check one operation: (seconds, output text, failures)."""
    from workloads import run_cli

    start = time.perf_counter()
    try:
        code, stdout, _ = run_cli(op.argv)
    except Exception:   # an operation that raises fails; the loop goes on
        return time.perf_counter() - start, None, ["raised: " + traceback.format_exc()]
    seconds = time.perf_counter() - start
    try:
        text = op.output(stdout)
        return seconds, text, op.check(code, text)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return seconds, None, ["unreadable output: %r" % exc]


Sample = namedtuple("Sample", "op seconds reference_s text ok")


class Loop:
    """Closed-loop record of the operations run so far."""

    def __init__(self, workload):
        self.workload = workload
        self.reference = Reference()
        self.next_op = 0
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def fresh(self):
        op = self.workload.op(self.next_op)
        self.next_op += 1
        return op

    def run(self, op, keep_output=False):
        """Run, check and time one operation, between two reference timings."""
        before = self.reference()
        seconds, text, failures = run_op(op)
        after = self.reference()
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.append("%s: %s" % (" ".join(op.argv), "; ".join(failures)))
        # outputs are kept only for the traced replay, so that peak memory
        # does not grow with the number of operations
        return Sample(op, seconds, (before + after) / 2, text if keep_output else None, not failures)

    def until(self, seconds, keep_output=False):
        """Fresh operations, at least one, until `seconds` have passed."""
        done = []
        deadline = time.perf_counter() + seconds
        while not done or time.perf_counter() < deadline:
            done.append(self.run(self.fresh(), keep_output))
        return done


def tail(times):
    """(percentile, value) of the highest percentile that has TAIL_BEYOND
    samples beyond it: the sample with exactly that many above it."""
    ranked = sorted(times)
    if len(ranked) <= TAIL_BEYOND:
        return 100.0, ranked[-1]
    return 100.0 * (1 - TAIL_BEYOND / len(ranked)), ranked[-TAIL_BEYOND - 1]


def end_to_end(workload, loop, runs, setup_s):
    seconds = [sample.seconds for sample in runs]
    units = [sample.seconds / sample.reference_s for sample in runs]
    work = sum(sample.op.work for sample in runs if sample.ok)
    q, ref_tail = tail(units)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_ref_p50": (statistics.median(units), "ref"),
        "op_ref_tail": (ref_tail, "ref"),
        "work_per_ref": (work / sum(units), "1/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    throughput = "rk4_steps_per_s" if workload.work_unit == "rk4_steps" else "points_per_s"
    count = "of %d timed operations" % len(runs)
    wall = [
        ("op_s_p50", statistics.median(seconds), "s", "median " + count),
        ("op_s_tail", tail(seconds)[1], "s", "p%.1f %s" % (q, count)),
        (throughput, work / sum(seconds), "1/s", "%s of passed operations" % workload.work_unit),
        ("failed_frac", loop.failed / loop.attempted, "1",
         "%d of %d operations" % (loop.failed, loop.attempted)),
        ("reference_s", statistics.median(sample.reference_s for sample in runs), "s",
         "median time of one reference unit"),
    ]
    notes = {
        "setup_s": "median of %d fresh interpreters" % SETUP_PROBES,
        "op_ref_p50": "median %s, in reference units" % count,
        "op_ref_tail": "p%.1f %s, in reference units" % (q, count),
        "work_per_ref": "%s of passed operations per reference unit" % workload.work_unit,
    }
    print("%-16s %14s  %-5s" % ("metric", "value", "unit"))
    for name, (value, unit) in metrics.items():
        print("%-16s %14.6g  %-5s %s" % (name, value, unit, notes.get(name, "")))
    for name, value, unit, note in wall:
        print("%-16s %14.6g  %-5s %s (wall clock, not in the JSON)" % (name, value, unit, note))
    return metrics


def per_layer(loop, runs):
    """Replay `runs` under the tracer; per-layer metrics from its spans."""
    from tracer import LAYERS, POINT, RATIOS, VELOCITY_EVAL, Tracer

    replays = []
    with Tracer() as tracer:
        for sample in runs:
            replay = loop.run(sample.op, keep_output=True)
            replays.append(replay)
            if replay.ok and replay.text != sample.text:
                loop.failed += 1
                loop.messages.append("%s: traced output differs" % " ".join(sample.op.argv))
    stats = tracer.layer_stats()
    metrics = {}
    for module, attr in LAYERS:
        label = module + "." + attr
        calls, self_s, total_s = stats.get(label, (0, 0.0, 0.0))
        metrics[label + ".calls"] = (calls, "count")
        metrics[label + ".self_s"] = (self_s, "s")
        metrics[label + ".us_per_call"] = (1e6 * total_s / calls if calls else 0.0, "us")

    def per(count, base):
        return count / base if base else 0.0

    def in_units(samples):
        return sum(sample.seconds / sample.reference_s for sample in samples)

    bases = {POINT: tracer.count(POINT), VELOCITY_EVAL: tracer.count(VELOCITY_EVAL)}
    for name, (label, base) in RATIOS.items():
        metrics[name] = (per(tracer.count_under(label, base), bases[base]), "ratio")
    steps = sum(sample.op.work for sample in runs if sample.op.argv[0] == "trajectory")
    metrics["trajectories.velocity_evals_per_step"] = (per(bases[VELOCITY_EVAL], steps), "ratio")
    metrics["trace.overhead_frac"] = (in_units(replays) / in_units(runs) - 1.0, "ratio")

    print("%-48s %14s  %s" % ("layer metric", "value", "unit"))
    for name, (value, unit) in metrics.items():
        print("%-48s %14.6g  %s" % (name, value, unit))
    return metrics, tracer


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    # numpy, diracpolar and the modules beside this one that use them are
    # imported only after the BLAS threads are pinned and src/ is on the path
    pin_blas_threads()
    try:
        import_program()
    except ImportError as exc:
        print("cannot import the program: %s" % exc, file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    args = parse_args(argv)
    tag = "%s-seed%d" % (args.workload, args.seed)
    workdir = os.path.join(WORK, "%s-%d" % (tag, os.getpid()))
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        loop = Loop(workload)
        env = environment(args.seed)
        print("%s seed=%d trace=%d env=%s" % (args.workload, args.seed, args.trace, json.dumps(env)))
        for _ in range(WARMUP_OPS):
            loop.run(loop.fresh())
        if args.trace == 0:
            # The set-up probes are spread over the run, so that they meet
            # the CPU at the same mix of speeds as the operations do.  An
            # untimed operation after each probe warms the caches again.
            runs, setups = [], []
            for _ in range(SETUP_PROBES):
                runs += loop.until(args.seconds / SETUP_PROBES)
                setups.append(setup_seconds(workload.setup_config()))
                loop.run(loop.fresh())
            metrics = end_to_end(workload, loop, runs, statistics.median(setups))
        else:
            runs = loop.until(args.seconds / 2.0, keep_output=True)
            metrics, tracer = per_layer(loop, runs)
            tracer.write(os.path.join(WORK, "spans-%s.npz" % tag))
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)

    for message in loop.messages[:MAX_REPORTED_FAILURES]:
        print("FAILED %s" % message, file=sys.stderr)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(WORK, "result-%s-trace%d.json" % (tag, args.trace)), "w") as fh:
        json.dump(dict(result, environment=env, workload=args.workload), fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
