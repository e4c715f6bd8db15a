import random
from fractions import Fraction

import pytest

import rref_oracle as oracle
from djem.linalg import as_rational, cokernel_basis, kernel
from ladder_blocks import line_answer


def M(rows):
    """Dense rows and their column count, the form the oracle takes."""
    return rows, len(rows[0]) if rows else 0


def zero(rows, cols):
    return [[0] * cols for _ in range(rows)], cols


def identity(n):
    return [[int(r == c) for c in range(n)] for r in range(n)], n


def test_kernel_of_empty_matrix_is_zero_space():
    k = oracle.kernel(*zero(0, 0))
    assert k.ambient_dim == 0
    assert k.dim == 0
    assert line_answer(zero(0, 0)) == (0, 0)


def test_kernel_of_zero_map_is_full_line():
    assert oracle.kernel(*M([[0]])) == oracle.full(1)
    assert kernel(0) == cokernel_basis(0) == 1


def test_kernel_two_by_three():
    k = oracle.kernel(*M([[1, 0, 1], [0, 1, 1]]))
    assert k == oracle.from_vectors(3, [(-1, -1, 1)])
    assert k.dim == 1


def test_cokernel_of_identity_is_zero():
    assert oracle.cokernel_basis(*identity(2)) == oracle.zero(2)


def test_cokernel_of_column_embedding():
    assert oracle.cokernel_basis(*M([[1], [0]])) == oracle.from_vectors(2, [(0, 1)])


def test_cokernel_of_zero_matrix_is_everything():
    assert oracle.cokernel_basis(*zero(3, 3)) == oracle.full(3)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_rank_identity(n):
    assert oracle.rank(*identity(n)) == n


def test_rank_zero_matrix():
    assert oracle.rank(*zero(3, 4)) == 0


def test_rank_proportional_rows():
    assert oracle.rank(*M([[1, 2], [2, 4]])) == 1


def _random_matrix(rng, rows, cols):
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.6 else 0
             for _ in range(cols)] for _ in range(rows)], cols


# Every block of a ladder has at most one row and one column: djem answers
# it by the line map's coefficient, and the oracle by elimination.


@pytest.mark.parametrize("m", [zero(0, 0), zero(0, 1), zero(1, 0), M([[0]]), M([[1]]),
                               M([[-3]]), M([[Fraction(-2, 7)]])])
def test_line_block_shortcuts_equal_rref(m):
    assert line_answer(m) == (oracle.kernel(*m).dim, oracle.cokernel_basis(*m).dim)


def test_rank_nullity_and_exact_kernel_on_random_matrices():
    rng = random.Random(20250711)
    for _ in range(120):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        m = _random_matrix(rng, rows, cols)
        r = oracle.rank(*m)
        ker = oracle.kernel(*m)
        cok = oracle.cokernel_basis(*m)
        assert r + ker.dim == cols
        assert cok.dim == rows - r
        for v in ker.basis:
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in m[0])


def test_canonical_form_is_idempotent():
    rng = random.Random(7)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        for space in (oracle.kernel(*m), oracle.cokernel_basis(*m)):
            assert oracle.canonicalized(space) == space


def test_subspace_contains():
    s = oracle.from_vectors(3, [(1, 0, 1), (0, 1, 1)])
    assert oracle.contains(s, (1, 1, 2))
    assert not oracle.contains(s, (0, 0, 1))


def test_no_zero_entries_stored_and_bounds_checked():
    # The canonical basis keeps no zero vector, and a row of the wrong
    # length is refused.
    assert oracle.from_vectors(2, [(0, 0), (0, 3)]) == oracle.Space(2, ((0, 1),))
    with pytest.raises(ValueError):
        oracle.kernel([[1, 0]], 1)
    with pytest.raises(ValueError):
        oracle.from_vectors(1, [(1, 0)])


def test_floats_rejected():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        oracle.kernel([[1.5]], 1)
