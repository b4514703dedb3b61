"""Set-up time of one diracpolar run, in a fresh interpreter.

Usage: python3 bench/setup_probe.py CONFIG

Times importing diracpolar, building the basis, parsing CONFIG and building
its field, which is everything a CLI invocation does before its first timed
operation, and prints the seconds taken.
"""
import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from diracpolar.algebra import build_chiral_basis  # noqa: E402
from diracpolar.cli import build_field, parse_config  # noqa: E402


def main(path):
    basis = build_chiral_basis()
    with open(path) as fh:
        cfg = parse_config(fh.read())
    build_field(cfg, basis)
    print("%.9f" % (time.perf_counter() - START))


if __name__ == "__main__":
    main(sys.argv[1])
