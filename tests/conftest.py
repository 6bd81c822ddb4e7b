from fractions import Fraction

import pytest

from carnotpoly import build_free
from carnotpoly.algebra import GradedLieAlgebra
from carnotpoly.extremal import build_family
from carnotpoly.group import left_invariant_fields
from carnotpoly.prolongation import prolong

# the elementary-matrix g_0 basis of free(2,4): maps sending (X_1, X_2) to
# (0, X_1), (0, X_2), (X_1, 0), (X_2, 0), in ascending index order -3..0
ELEMENTARY_G0 = [
    [[0, 1], [0, 0]],
    [[0, 0], [0, 1]],
    [[1, 0], [0, 0]],
    [[0, 0], [1, 0]],
]


def dense_rref(rows, ncols):
    """Reference for ``linalg.rref``: column-by-column dense elimination
    on Fraction rows."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    lead = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(lead, len(m)) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[lead], m[pivot_row] = m[pivot_row], m[lead]
        pv = m[lead][col]
        m[lead] = [x / pv for x in m[lead]]
        for i in range(len(m)):
            if i != lead and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[lead])]
        pivots.append(col)
        lead += 1
        if lead == len(m):
            break
    return m[:lead], pivots


def reference_field_sum(fields, size):
    """Reference for ``poly.compile_field_sum``: every field evaluated in
    full by ``PolyVectorField.compiled``, then ``h_j * value`` added
    coordinate by coordinate over j ascending, zero controls skipped."""
    compiled = [field.compiled() for field in fields]

    def run(h, point):
        out = [0.0] * size
        for j, field in enumerate(compiled):
            hj = h[j]
            if not hj:
                continue
            fj = field(point)
            for l in range(size):
                out[l] += hj * fj[l]
        return out

    return run


def heisenberg_algebra():
    return GradedLieAlgebra({1: 1, 2: 1, 3: 2}, {(2, 1): {3: Fraction(1)}})


@pytest.fixture(scope="session")
def heisenberg():
    return heisenberg_algebra()


@pytest.fixture(scope="session")
def free24():
    return build_free(2, 4)[0]


@pytest.fixture(scope="session")
def free24_words():
    return build_free(2, 4)[1]


@pytest.fixture(scope="session")
def free23():
    return build_free(2, 3)[0]


@pytest.fixture(scope="session")
def free34():
    return build_free(3, 4)[0]


@pytest.fixture(scope="session")
def free24_prolonged(free24):
    return prolong(free24, 3, basis_overrides={0: ELEMENTARY_G0})


@pytest.fixture(scope="session")
def free24_family(free24_prolonged):
    return build_family(free24_prolonged)


@pytest.fixture(scope="session")
def free24_fields(free24):
    return left_invariant_fields(free24)


@pytest.fixture(scope="session")
def free34_prolonged(free34):
    return prolong(free34, 2)


@pytest.fixture(scope="session")
def heis_family(heisenberg):
    return build_family(heisenberg)
