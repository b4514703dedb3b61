"""Every guard names its failing rows the same way: one error whose rows map
the flat index of each failing row to the message that row raises when it is
checked alone, and whose own text is the first of those messages."""
import numpy as np
import pytest

from diracpolar.bilinears import require_regular
from diracpolar.errors import (
    DegenerateInversion,
    DegenerateX,
    DiracPolarError,
    OffShell,
    OutOfDomain,
    SingularSpinor,
    raise_rows,
)
from diracpolar.fieldconn import BOOST_MAX, plane_wave, require_on_shell, to_grid
from diracpolar.guidance import CompactForms, velocity_from_momentum

from conftest import BoxWindow


def densities(scalar):
    """Density values of unit U^0 and the given scalars, pseudoscalar 0."""
    values = np.zeros(np.shape(scalar) + (10,))
    values[..., 0], values[..., 2] = scalar, 1.0
    return values


def inversion(xs, z0):
    """velocity_from_momentum of rows with xs, z = (z0, -1, 0, 0) and s = e_3:
    z0 = 0 zeroes the inversion denominator."""
    n = np.shape(xs)
    z = np.zeros(n + (4,))
    z[..., 0], z[..., 1] = z0, -1.0
    forms = CompactForms(y=np.zeros(n + (4,)), z=z, xs=np.asarray(xs), mass_cos=1.0)
    s = np.broadcast_to([0.0, 0.0, 0.0, 1.0], n + (4,))
    p = np.broadcast_to([1.0, 0.0, 0.0, 0.0], n + (4,))
    return velocity_from_momentum(p, s, forms)


def grid(basis):
    fld = plane_wave([1.0, 0.0, 0.0, 0.0], 1.0, [0.0, 0.0, 1.0], 1.0, basis)
    return to_grid(fld.evaluate, np.zeros(4), 0.1, (4, 4, 4, 4))


def box(basis):
    fld = plane_wave([1.0, 0.0, 0.0, 0.0], 1.0, [0.0, 0.0, 1.0], 1.0, basis)
    return BoxWindow(fld, np.full(4, -1.0), np.full(4, 1.0))


# name: (kind, check of a batch, the batch (2, 3, ...), flat indices of the
# failing rows); most batches pick their rows from a few distinct ones
ON_NODE = 0.1 * np.array([1.0, 1.0, 2.0, 1.0])
CASES = {
    "require_regular": (
        SingularSpinor, lambda basis, b: require_regular(densities(b)),
        np.array([[1.0, 1e-6, 1.0], [0.0, 1.0, 2e-6]]), [1, 3, 5],
    ),
    "xs_guard": (
        DegenerateX, lambda basis, b: inversion(b, 0.5),
        np.array([[1.0, 1e-13, -1.0], [2.0, -3e-13, 0.5]]), [1, 4],
    ),
    "inversion_guard": (
        DegenerateInversion, lambda basis, b: inversion(np.ones(b.shape), b),
        np.array([[0.5, 0.0, 0.5], [0.0, 0.2, 0.3]]), [1, 3],
    ),
    "require_on_shell": (
        OffShell, lambda basis, b: require_on_shell(b, 1.0),
        np.array([[[1.0, 0, 0, 0], [1.0, 0.5, 0, 0], [2.0, 0, 0, 3**0.5]],
                  [[-1.0, 0, 0, 0], [1.25, 0.75, 0, 0], [1.0, 0, 1e-3, 0]]]), [1, 3, 5],
    ),
    "plane_wave_boost": (
        OffShell, lambda basis, b: plane_wave(b, 1.0, [0.0, 0.0, 1.0], 1.0, basis),
        np.array([[1.0, 0, 0, 0], [2 * BOOST_MAX, 0, 0, 2 * BOOST_MAX]])[[[0, 1, 0], [0, 0, 1]]],
        [1, 5],
    ),
    "grid_off_node": (
        OutOfDomain, lambda basis, b: grid(basis).evaluate(b),
        ON_NODE + np.array([[0, 0, 0, 0], [0.05, 0, 0, 0], [0, 0, 0, 0]])[[[0, 1, 2], [1, 0, 0]]],
        [1, 3],
    ),
    "grid_outside": (
        OutOfDomain, lambda basis, b: grid(basis).evaluate(b),
        # the last two rows' node indices pass every integer, the last one
        # every float
        ON_NODE + np.array([[0, 0, 0, 0], [0, 0.3, 0, 0], [-0.2, 0, 0, 0], [1e19, 0, 0, 0],
                            [0, 0, -1e308, 0]])[[[0, 1, 4], [2, 0, 3]]],
        [1, 2, 3, 5],
    ),
    "grid_stencil": (
        OutOfDomain, lambda basis, b: grid(basis).partial(b),
        ON_NODE + np.array([[0, 0, 0, 0], [0, 0, 0.1, 0], [-0.1, 0, 0, 0]])[[[0, 1, 0], [0, 2, 0]]],
        [1, 4],
    ),
    "box_window": (
        OutOfDomain, lambda basis, b: box(basis).block(b),
        np.array([[0.0, 0, 0, 0], [0, 0, 1.5, 0], [0, -2.0, 0, 0]])[[[0, 0, 1], [2, 0, 0]]],
        [2, 3],
    ),
}


def alone(basis, check, row):
    """The error a row raises when it is checked as a batch of one, or None."""
    try:
        check(basis, row[None])
    except DiracPolarError as exc:
        return exc
    return None


@pytest.mark.parametrize("name", CASES)
def test_batch_names_the_rows_that_fail_alone(basis, name):
    kind, check, batch, failing = CASES[name]
    with pytest.raises(kind) as info:
        check(basis, batch)
    flat = batch.reshape((6,) + batch.shape[2:])
    lone = [alone(basis, check, row) for row in flat]
    assert [i for i, exc in enumerate(lone) if exc is not None] == failing
    assert info.value.rows == {i: str(lone[i]) for i in failing}
    assert all(type(lone[i]) is kind and lone[i].rows == {0: str(lone[i])} for i in failing)
    # the error's text is the first failing row's: a batch of one keeps its text
    assert str(info.value) == str(lone[failing[0]])
    # no row fails twice, and the rest of the batch passes once they are gone
    check(basis, np.delete(flat, failing, axis=0))


def test_raise_rows_on_a_single_point():
    raise_rows(np.False_, SingularSpinor, "never")
    with pytest.raises(SingularSpinor) as info:
        raise_rows(np.True_, SingularSpinor, "value %.1f, bound %g", np.float64(2.5), 1e-10)
    assert str(info.value) == "value 2.5, bound 1e-10"
    assert info.value.rows == {0: "value 2.5, bound 1e-10"}


def test_errors_without_rows_name_none():
    assert DiracPolarError("plain").rows == {}
    assert str(DiracPolarError("plain")) == "plain"
