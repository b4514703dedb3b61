import os

# The suite works on 4x4 matrices, where extra BLAS threads only add
# wake-up stalls: on a shared machine that had sat idle, criterion 1's
# hundred small inversions took about a second with default threading and
# milliseconds with one thread.  This must run before numpy is imported.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

import numpy as np
import pytest

from diracpolar.algebra import ETA, build_chiral_basis


@pytest.fixture(scope="session")
def basis():
    return build_chiral_basis()


def random_antisymmetric(rng, scale=1.0):
    a = rng.standard_normal((4, 4)) * scale
    return a - a.T


def torsion_wave(p_space, mass, coupling, w, basis, amplitude=1.0, branch=-1):
    """Exact plane-wave solution with a constant axial torsion background.

    Solves the stationary eigenproblem p0 psi0 = g0 (p.g + coupling w.g pi
    + mass) psi0 and returns the positive-energy wave, its full momentum and
    the energy.  branch picks among the two positive eigenvalues.
    """
    from diracpolar.fieldconn import PlaneWaveComponent, PlaneWaveField

    p_space = np.asarray(p_space, dtype=float)
    w = np.asarray(w, dtype=float)
    h = np.einsum("k,kij->ij", p_space, basis.gamma[1:])
    h = h + coupling * np.einsum("a,aij,jk->ik", ETA @ w, basis.gamma, basis.pi)
    h = basis.gamma[0] @ (h + mass * basis.identity)
    vals, vecs = np.linalg.eigh(h)
    positive = [k for k in range(4) if vals[k] > 0]
    k = positive[branch]
    energy = vals[k]
    psi0 = amplitude * vecs[:, k]
    p4 = np.concatenate([[energy], p_space])
    return PlaneWaveField([PlaneWaveComponent(p4, psi0)]), p4
