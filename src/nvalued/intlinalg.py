"""Exact integer and rational linear algebra.

Everything here runs on Python's arbitrary-precision integers and
``fractions.Fraction``; there is no floating point anywhere.  The module
provides the row-style Hermite normal form, a canonical representation
of sublattices of Z^q, coset enumeration inside a fundamental box, and
one elimination kernel.

Conventions
-----------
* Integer matrices are lists (or tuples) of rows of ints.
* Hermite normal form is *row-style*: pivots positive, entries above
  each pivot reduced into ``[0, pivot)``, zero rows at the bottom.  Equal
  row spans produce identical H, which is what makes lattice equality a
  plain tuple comparison; the unimodular row operations are not kept.
* A :class:`Sublattice` always stores its basis in HNF with zero rows
  stripped, so it is the canonical form of the subgroup it spans.  Its
  index is the product of the HNF diagonal.
* Every determinant, solution, adjugate and kernel comes from
  :func:`eliminate`, a fraction-free Gauss-Jordan elimination over
  ``int``; the engine hands it integer matrices only.  The rational entry
  points :func:`rational_det` and :func:`left_kernel` first scale each
  row to integers (:func:`integer_rows`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm, prod


class InfiniteIndexError(ValueError):
    """Coset enumeration was requested for a lattice of deficient rank."""


class _Infinite:
    """Symbolic infinity for lattice indices and Reidemeister counts.

    Deliberately not a float: it absorbs addition with ints, compares
    bigger than every int, and serializes as the string "infinite".
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "infinite"

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("nvalued-infinite")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True


INFINITE = _Infinite()


def is_infinite(value) -> bool:
    return value is INFINITE


# ---------------------------------------------------------------------------
# integer vector/matrix helpers


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_neg(u):
    return tuple(-a for a in u)


def frac_identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


# ---------------------------------------------------------------------------
# Hermite normal form


def hermite_normal_form(mat):
    """Row-style HNF H of an integer matrix M.

    H is M after unimodular row operations: pivot entries are positive,
    entries above a pivot lie in ``[0, pivot)``, and zero rows sink to the
    bottom.  H is the unique such form of the row span.
    """
    m = [list(map(int, row)) for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        # gcd elimination below row r in column c
        while True:
            pivots = [i for i in range(r, rows) if m[i][c] != 0]
            if not pivots:
                break
            best = min(pivots, key=lambda i: (abs(m[i][c]), i))
            if best != r:
                m[r], m[best] = m[best], m[r]
            done = True
            for i in range(r + 1, rows):
                if m[i][c] != 0:
                    q = m[i][c] // m[r][c]
                    for j in range(cols):
                        m[i][j] -= q * m[r][j]
                    if m[i][c] != 0:
                        done = False
            if done:
                break
        if r < rows and m[r][c] != 0:
            if m[r][c] < 0:
                m[r] = [-x for x in m[r]]
            for i in range(r):
                q = m[i][c] // m[r][c]
                if q:
                    for j in range(cols):
                        m[i][j] -= q * m[r][j]
            r += 1
            if r == rows:
                break
    return m


# ---------------------------------------------------------------------------
# sublattices of Z^q


@dataclass(frozen=True)
class Sublattice:
    """A subgroup of Z^q in canonical row-HNF basis (zero rows stripped).

    Two sublattices are equal as subgroups iff their dataclass fields
    compare equal.
    """

    ambient_dim: int
    basis: tuple

    @property
    def rank(self) -> int:
        return len(self.basis)

    def __repr__(self):
        rows = ", ".join(str(list(r)) for r in self.basis)
        return f"Sublattice(dim={self.ambient_dim}, basis=[{rows}])"


def lattice_from_generators(vectors, ambient_dim) -> Sublattice:
    """Canonicalize the subgroup of Z^q generated by ``vectors``."""
    vectors = [tuple(map(int, v)) for v in vectors]
    for v in vectors:
        if len(v) != ambient_dim:
            raise ValueError(f"generator {v} does not have length {ambient_dim}")
    if not vectors:
        return Sublattice(ambient_dim, ())
    rows = tuple(tuple(r) for r in hermite_normal_form(vectors) if any(r))
    return Sublattice(ambient_dim, rows)


def lattice_index(lat: Sublattice):
    """Group index [Z^q : L]; INFINITE when the rank is deficient."""
    if lat.rank < lat.ambient_dim:
        return INFINITE
    return prod(hnf_diagonal(lat))


def lattice_contains(lat: Sublattice, v) -> bool:
    """Exact membership test by triangular reduction against the HNF basis."""
    if len(v) != lat.ambient_dim:
        raise ValueError("vector has wrong length")
    w = list(map(int, v))
    for row in lat.basis:
        j = next(k for k, x in enumerate(row) if x != 0)
        if w[j] % row[j] != 0:
            return False
        q = w[j] // row[j]
        if q:
            for k in range(j, lat.ambient_dim):
                w[k] -= q * row[k]
    return all(x == 0 for x in w)


def hnf_diagonal(lat: Sublattice):
    """The diagonal (d_1, ..., d_q) of a full-rank lattice's HNF basis."""
    if lat.rank < lat.ambient_dim:
        raise InfiniteIndexError(f"lattice has rank {lat.rank} < {lat.ambient_dim}")
    # full-rank row HNF of a square basis is upper triangular
    return [lat.basis[i][i] for i in range(lat.ambient_dim)]


def coset_representatives(lat: Sublattice):
    """All cosets of Z^q / L, as the lex-ordered integer points of the
    fundamental box [0, d_1) x ... x [0, d_q) of the HNF diagonal."""
    diag = hnf_diagonal(lat)
    return [tuple(p) for p in product(*(range(d) for d in diag))]


def coset_reduce(lat: Sublattice, v):
    """Canonical representative of the coset v + L.

    Works for any rank: greedy floor reduction of each pivot coordinate
    against the HNF basis is a complete invariant of the coset.  For
    full-rank lattices the result lies in the fundamental box, matching
    :func:`coset_representatives`.
    """
    w = list(map(int, v))
    for row in lat.basis:
        j = next(k for k, x in enumerate(row) if x != 0)
        q = w[j] // row[j]
        if q:
            for k in range(j, lat.ambient_dim):
                w[k] -= q * row[k]
    return tuple(w)


# ---------------------------------------------------------------------------
# exact elimination


def integer_rows(mat):
    """Scale each row of a rational matrix to integers by its common denominator.

    Returns ``(rows, scales)`` with ``rows[i] = scales[i] * mat[i]``.
    """
    rows, scales = [], []
    for row in mat:
        d = lcm(1, *(x.denominator for x in row))
        rows.append([x.numerator * (d // x.denominator) for x in row])
        scales.append(d)
    return rows, scales


def eliminate(mat, width=None):
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) over ``int``.

    Pivots are sought in the first ``width`` columns (default: all); later
    columns are carried along, as the right-hand sides of a system.
    Returns ``(rows, pivots, det)``: in ``rows`` the i-th row has the
    common pivot value p in column ``pivots[i]`` and zeros in the other
    pivot columns, and the rows past the rank vanish in the pivot search
    columns.  Every entry is a minor of the input, so each division is
    exact.  ``det`` is the determinant of the pivot columns when there
    is one pivot per row (of the matrix itself when it is square), else 0.
    """
    a = [list(row) for row in mat]
    m = len(a)
    width = (len(a[0]) if m else 0) if width is None else width
    pivots = []
    prev, sign = 1, 1
    for c in range(width):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        top = a[r]
        p = top[c]
        for i in range(m):
            if i != r:
                f = a[i][c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
        prev = p
        pivots.append(c)
    det = sign * prev if len(pivots) == m else 0
    return a, pivots, det


def rational_det(mat) -> Fraction:
    """Exact determinant of a square rational matrix."""
    rows, scales = integer_rows(mat)
    return Fraction(eliminate(rows)[2], prod(scales))


def adjugate(mat):
    """``(det, adj)`` of a square integer matrix, ``adj @ mat = det * E``.

    The adjugate is only formed for nonsingular matrices: a singular one
    gives ``(0, None)``.
    """
    n = len(mat)
    augmented = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(mat)]
    a, _, det = eliminate(augmented, n)
    if det == 0:
        return 0, None
    # the right half is p mat^{-1}, p = +-det the common pivot
    sign = det // a[0][0]
    return det, [[sign * x for x in row[n:]] for row in a]


def left_kernel(mat):
    """Integer rows spanning { y : y @ A = 0 } over Q, for a rational A."""
    # y @ A = 0 iff A^T y = 0, and scaling the rows of A^T keeps that
    t, _ = integer_rows(list(zip(*mat)))
    a, pivots, _ = eliminate(t)
    p = a[0][pivots[0]] if pivots else 1
    basis = []
    for f in range(len(mat)):
        if f not in pivots:
            y = [0] * len(mat)
            y[f] = p
            for row, c in zip(a, pivots):
                y[c] = -row[f]
            basis.append(tuple(y))
    return basis
