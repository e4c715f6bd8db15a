import random
from fractions import Fraction

import pytest

import rref_oracle as oracle
from djem.linalg import SparseMatrix, Subspace, as_rational, cokernel_basis, kernel


def M(rows):
    return SparseMatrix(len(rows), len(rows[0]) if rows else 0,
                        {(r, c): v for r, row in enumerate(rows) for c, v in enumerate(row)})


def identity(n):
    return SparseMatrix(n, n, {(i, i): 1 for i in range(n)})


def test_kernel_of_empty_matrix_is_zero_space():
    k = kernel(SparseMatrix.zero(0, 0))
    assert k.ambient_dim == 0
    assert k.dim == 0


def test_kernel_of_zero_map_is_full_line():
    assert kernel(M([[0]])) == oracle.full(1)


# Blocks larger than 1x1 never occur in a ladder; djem refuses them and the
# RREF oracle answers them.


@pytest.mark.parametrize("m", [SparseMatrix.zero(2, 2), identity(2),
                               SparseMatrix.zero(1, 2), SparseMatrix.zero(2, 0)])
def test_larger_blocks_raise_value_error(m):
    for op in (kernel, cokernel_basis):
        with pytest.raises(ValueError, match="at most one row and one column"):
            op(m)


def test_kernel_two_by_three():
    k = oracle.kernel(M([[1, 0, 1], [0, 1, 1]]))
    assert k == oracle.from_vectors(3, [(-1, -1, 1)])
    assert k.dim == 1


def test_cokernel_of_identity_is_zero():
    assert oracle.cokernel_basis(identity(2)) == Subspace.zero(2)


def test_cokernel_of_column_embedding():
    assert oracle.cokernel_basis(M([[1], [0]])) == oracle.from_vectors(2, [(0, 1)])


def test_cokernel_of_zero_matrix_is_everything():
    assert oracle.cokernel_basis(SparseMatrix.zero(3, 3)) == oracle.full(3)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_rank_identity(n):
    assert oracle.rank(identity(n)) == n


def test_rank_zero_matrix():
    assert oracle.rank(SparseMatrix.zero(3, 4)) == 0


def test_rank_proportional_rows():
    assert oracle.rank(M([[1, 2], [2, 4]])) == 1


def _random_matrix(rng, rows, cols):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < 0.6:
                entries[(r, c)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return SparseMatrix(rows, cols, entries)


@pytest.mark.parametrize("m", [SparseMatrix.zero(0, 0), SparseMatrix.zero(0, 1),
                               SparseMatrix.zero(1, 0), M([[0]]), M([[1]]), M([[-3]]),
                               M([[Fraction(-2, 7)]])])
def test_line_block_shortcuts_equal_rref(m):
    assert kernel(m) == oracle.kernel(m)
    assert cokernel_basis(m) == oracle.cokernel_basis(m)


def test_rank_nullity_and_exact_kernel_on_random_matrices():
    rng = random.Random(20250711)
    for _ in range(120):
        rows, cols = rng.randint(0, 6), rng.randint(0, 6)
        m = _random_matrix(rng, rows, cols)
        r = oracle.rank(m)
        ker = oracle.kernel(m)
        cok = oracle.cokernel_basis(m)
        assert r + ker.dim == cols
        assert cok.dim == rows - r
        for v in ker.basis:
            assert all(sum(x * v[c] for (i, c), x in m.items() if i == row) == 0
                       for row in range(rows))


def test_canonical_form_is_idempotent():
    rng = random.Random(7)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        for space in (oracle.kernel(m), oracle.cokernel_basis(m)):
            assert oracle.canonicalized(space) == space


def test_subspace_contains():
    s = oracle.from_vectors(3, [(1, 0, 1), (0, 1, 1)])
    assert oracle.contains(s, (1, 1, 2))
    assert not oracle.contains(s, (0, 0, 1))


def test_no_zero_entries_stored_and_bounds_checked():
    m = SparseMatrix(2, 2, {(0, 0): Fraction(0), (1, 1): 3})
    assert m.items() == [((1, 1), Fraction(3))]
    with pytest.raises(ValueError):
        SparseMatrix(1, 1, {(1, 0): 1})


def test_floats_rejected():
    with pytest.raises(TypeError):
        as_rational(0.5)
    with pytest.raises(TypeError):
        SparseMatrix(1, 1, {(0, 0): 1.5})
