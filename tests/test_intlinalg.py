"""Exact linear algebra kernel: Hermite normal form, lattices, rational solving."""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from nvalued.intlinalg import (
    INFINITE,
    InfiniteIndexError,
    adjugate,
    coset_reduce,
    coset_representatives,
    eliminate,
    hermite_normal_form,
    integer_rows,
    is_infinite,
    lattice_contains,
    lattice_from_generators,
    lattice_index,
    left_kernel,
    mat_mul,
    rational_det,
)

from conftest import hnf_with_transform

small_entries = st.integers(min_value=-9, max_value=9)


def solve_rational(mat, rhs):
    """The exact solution of ``A x = b`` from :func:`eliminate` with ``b``
    carried as an extra column; None when det(A) = 0."""
    n = len(mat)
    rows, _ = integer_rows([[*row, Fraction(b)] for row, b in zip(mat, rhs)])
    a, _, det = eliminate(rows, n)
    if det == 0:
        return None
    return tuple(Fraction(row[n], row[i]) for i, row in enumerate(a))


def int_det(mat):
    return rational_det(mat)


def is_unimodular(u):
    return abs(int_det(u)) == 1


def in_row_hnf(h):
    rows = [r for r in h if any(r)]
    pivots = []
    for r in rows:
        j = next(k for k, x in enumerate(r) if x != 0)
        if r[j] <= 0:
            return False
        pivots.append(j)
    if pivots != sorted(pivots) or len(set(pivots)) != len(pivots):
        return False
    for idx, r in enumerate(rows):
        j = pivots[idx]
        for above in rows[:idx]:
            if not (0 <= above[j] < r[j]):
                return False
    # zero rows must sit at the bottom
    seen_zero = False
    for r in h:
        if not any(r):
            seen_zero = True
        elif seen_zero:
            return False
    return True


class TestHermite:
    def test_identity_fixed(self):
        m = [[1, 0], [0, 1]]
        h, u = hnf_with_transform(m)
        assert h == [[1, 0], [0, 1]] == hermite_normal_form(m)
        assert is_unimodular(u)

    def test_row_swap_normalization(self):
        assert hermite_normal_form([[0, 2], [1, 0]]) == [[1, 0], [0, 2]]

    def test_dependent_rows(self):
        m = [[2, 4], [4, 8]]
        h, u = hnf_with_transform(m)
        assert h == [[2, 4], [0, 0]] == hermite_normal_form(m)
        assert mat_mul(u, m) == h
        assert is_unimodular(u)

    @settings(max_examples=200, database=None, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda r: st.integers(1, 4).flatmap(
                lambda c: st.lists(
                    st.lists(small_entries, min_size=c, max_size=c),
                    min_size=r,
                    max_size=r,
                )
            )
        )
    )
    def test_hnf_contract(self, m):
        h, u = hnf_with_transform(m)
        assert h == hermite_normal_form(m)
        assert mat_mul(u, m) == h
        assert is_unimodular(u)
        assert in_row_hnf(h)
        # idempotence on the canonical form
        h2 = hermite_normal_form([r for r in h if any(r)] or [[0] * len(m[0])])
        assert [r for r in h2 if any(r)] == [r for r in h if any(r)]

    def test_generator_order_insensitive(self):
        rng = random.Random(5)
        for _ in range(50):
            q = rng.randint(1, 3)
            vecs = [
                tuple(rng.randint(-6, 6) for _ in range(q))
                for _ in range(rng.randint(1, 4))
            ]
            base = lattice_from_generators(vecs, q)
            rng.shuffle(vecs)
            assert lattice_from_generators(vecs, q) == base


class TestSublattice:
    def test_generators_with_redundancy(self):
        lat = lattice_from_generators([(1, 0), (0, 2), (1, 2)], 2)
        assert lat.basis == ((1, 0), (0, 2))
        for gen in [(1, 0), (0, 2), (1, 2)]:
            assert lattice_contains(lat, gen)

    def test_empty(self):
        lat = lattice_from_generators([], 2)
        assert lat.rank == 0
        assert is_infinite(lattice_index(lat))

    def test_single_generator(self):
        lat = lattice_from_generators([(2, 0)], 2)
        assert lat.rank == 1
        assert lat.basis == ((2, 0),)

    def test_index_values(self):
        assert lattice_index(lattice_from_generators([(1, 0), (0, 2)], 2)) == 2
        assert lattice_index(lattice_from_generators([(2, 0), (0, 2)], 2)) == 4
        assert lattice_index(lattice_from_generators([(3,)], 1)) == 3
        assert is_infinite(lattice_index(lattice_from_generators([], 1)))

    def test_membership(self):
        lat = lattice_from_generators([(1, 0), (0, 2)], 2)
        assert lattice_contains(lat, (5, 4))
        assert not lattice_contains(lat, (0, 1))
        ragged = lattice_from_generators([(2, 4)], 2)
        # (1, 2) = (2, 4) / 2 has a non-integer coefficient
        assert not lattice_contains(ragged, (1, 2))

    def test_coset_representatives(self):
        lat = lattice_from_generators([(1, 0), (0, 2)], 2)
        assert coset_representatives(lat) == [(0, 0), (0, 1)]
        lat = lattice_from_generators([(2, 0), (0, 2)], 2)
        assert coset_representatives(lat) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        lat = lattice_from_generators([(1, 0), (0, 1)], 2)
        assert coset_representatives(lat) == [(0, 0)]

    def test_representatives_cover_and_separate(self):
        rng = random.Random(21)
        for _ in range(40):
            q = rng.randint(1, 3)
            vecs = [
                tuple(rng.randint(-5, 5) for _ in range(q)) for _ in range(q + 1)
            ]
            lat = lattice_from_generators(vecs, q)
            idx = lattice_index(lat)
            if is_infinite(idx) or idx > 100:
                continue
            reps = coset_representatives(lat)
            assert len(reps) == idx
            for r, s in combinations(reps, 2):
                assert not lattice_contains(lat, tuple(a - b for a, b in zip(r, s)))
            for r in reps:
                for g in lat.basis:
                    shifted = tuple(a + b for a, b in zip(r, g))
                    assert coset_reduce(lat, shifted) == r

    def test_index_equals_boxcount(self):
        # brute-force cross-check: distinct residues of the HNF fundamental
        # box, identified pairwise by lattice_contains alone
        rng = random.Random(22)
        checked = 0
        while checked < 25:
            q = rng.randint(1, 3)
            vecs = [tuple(rng.randint(-4, 4) for _ in range(q)) for _ in range(q + 1)]
            lat = lattice_from_generators(vecs, q)
            idx = lattice_index(lat)
            if is_infinite(idx) or not (0 < idx <= 100):
                continue
            diag = [lat.basis[i][i] for i in range(q)]
            residues = []
            for v in product(*(range(d) for d in diag)):
                if not any(
                    lattice_contains(lat, tuple(a - b for a, b in zip(v, w)))
                    for w in residues
                ):
                    residues.append(v)
            assert len(residues) == idx
            checked += 1


class TestSolve:
    """Exact solving by the elimination kernel with a carried column."""

    def test_diag_half_two(self):
        x = solve_rational([[Fraction(1, 2), 0], [0, 2]], [0, 1])
        assert x == (Fraction(0), Fraction(1, 2))

    def test_identity(self):
        v = (Fraction(3, 7), Fraction(-2))
        assert solve_rational([[1, 0], [0, 1]], v) == v

    def test_scale_two(self):
        x = solve_rational([[2, 0], [0, 2]], [1, Fraction(1, 2)])
        assert x == (Fraction(1, 2), Fraction(1, 4))

    def test_exactness(self):
        rng = random.Random(31)
        for _ in range(60):
            q = rng.randint(1, 4)
            a = [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(q)] for _ in range(q)]
            if rational_det(a) == 0:
                continue
            b = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(q)]
            x = solve_rational(a, b)
            for r in range(q):
                assert sum(a[r][c] * x[c] for c in range(q)) == b[r]

    def test_singular(self):
        assert solve_rational([[1, 1], [1, 1]], [0, 1]) is None


class TestEliminationKernel:
    """The fraction-free kernel against sympy on seeded random rational
    matrices with q <= 6, many of them rank-deficient."""

    @staticmethod
    def _random_matrix(rng, rows, cols):
        density = rng.random()
        mat = [
            [
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)) * (rng.random() < density)
                for _ in range(cols)
            ]
            for _ in range(rows)
        ]
        if rows > 2 and rng.random() < 0.4:
            mat[-1] = [2 * a - b for a, b in zip(mat[0], mat[1])]
        return mat

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(41)
        for _ in range(150):
            q = rng.randint(1, 6)
            a = self._random_matrix(rng, q, q)
            s = sympy.Matrix(a)
            det = s.det()
            assert rational_det(a) == Fraction(int(det.p), int(det.q)), a
            if det != 0:
                b = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(q)]
                want = s.LUsolve(sympy.Matrix(b))
                assert solve_rational(a, b) == tuple(Fraction(int(x.p), int(x.q)) for x in want)
            ints = [[x.numerator for x in row] for row in a]
            d, adj = adjugate(ints)
            assert d == sympy.Matrix(ints).det()
            if d == 0:
                assert adj is None
            else:
                assert sympy.Matrix(adj) == sympy.Matrix(ints).adjugate()
            rect = self._random_matrix(rng, rng.randint(1, 6), q)
            kernel = left_kernel(rect)
            assert len(kernel) == len(rect) - sympy.Matrix(rect).rank()
            if kernel:
                assert sympy.Matrix(kernel).rank() == len(kernel)
                zero = sympy.zeros(len(kernel), q)
                assert sympy.Matrix(kernel) * sympy.Matrix(rect) == zero

    def test_reduced_rows(self):
        # pivot rows share one pivot value, rows past the rank vanish
        a, pivots, det = eliminate([[0, 2, 4], [0, 1, 2], [3, 0, 1]])
        assert pivots == [0, 1] and det == 0
        p = a[0][0]
        assert a[1][1] == p and a[0][1] == a[1][0] == 0
        assert a[2] == [0, 0, 0]
        assert eliminate([[0, 1], [1, 0]])[2] == -1
        assert eliminate([[2, 1, 7], [1, 1, 4]], 2)[1] == [0, 1]


def test_infinite_symbol():
    assert INFINITE + 3 == INFINITE
    assert 3 + INFINITE == INFINITE
    assert INFINITE == INFINITE
    assert INFINITE != 7
    assert INFINITE > 10**100
    assert not INFINITE < 5
    with pytest.raises(InfiniteIndexError):
        coset_representatives(lattice_from_generators([(1, 0)], 2))
