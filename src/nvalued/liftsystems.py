"""Affine lift-factor systems modelling n-valued maps of the torus T^q.

A system is a list of n affine self-maps of R^q,

    t |-> M_i t + c_i          (M_i rational q x q, c_i rational),

that projects to a genuine n-valued map of T^q = R^q / Z^q.  Factor i
is kept as the integers D M_i and D c_i over one denominator D for the
whole system, and the model is validated exactly, over ``int``:

* equivariance: for each standard generator e_k of Z^q and each index i
  there must be exactly one index j with M_i = M_j and
  M_i e_k + c_i - c_j in Z^q; these data assemble the homomorphism
  psi: Z^q -> (Z^q)^n x| Sigma_n recorded on generators.  The partner j
  is one dictionary lookup: factors are grouped by linear part and keyed
  by their scaled offsets D c_i reduced mod D;
* commutation: the q generator images must commute;
* no collision: for i != j the affine difference
  (M_i - M_j) t + (c_i - c_j) must avoid Z^q for every real t.  When
  M_i = M_j the difference is the constant c_i - c_j, so the two factors
  collide iff their offsets agree mod Z^q: equal keys in the same
  dictionary, found in the one pass that builds it.  Otherwise a
  collision is a z in Z^q with y . z = y . (c_i - c_j) for every integer
  row y of the left kernel of D (M_i - M_j): a lattice membership test.

A :class:`LiftSystem` is validated once: its ``psi`` property caches the
result of :func:`validate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .intlinalg import lattice_contains, lattice_from_generators, left_kernel
from .semidirect import DimensionMismatchError, Permutation, SemidirectElement

# reports list every factor and every class: a larger n or finite R is refused
LISTING_LIMIT = 10**6


class LiftSystemError(ValueError):
    """Base class for model validation failures."""


class CollisionError(LiftSystemError):
    """Two factor images meet modulo Z^q: the system is not n-valued."""


class NotEquivariantError(LiftSystemError):
    """Some factor has no partner under a deck translation."""


class AmbiguousLiftError(LiftSystemError):
    """Some factor has two partners under a deck translation."""


class NotCommutingError(LiftSystemError):
    """The generator images of psi fail to commute."""


class RowsNotCongruentError(LiftSystemError):
    """Rows of the integer matrix are not pairwise congruent mod n."""


@dataclass(frozen=True)
class AffineLiftFactor:
    """One affine self-map of R^q, t |-> M t + c with M = numer / den and
    c = shift / den: q tuples of q ints and q ints over the denominator
    that every factor of a system shares."""

    numer: tuple
    shift: tuple
    den: int

    @property
    def q(self) -> int:
        return len(self.shift)

    @property
    def linear(self) -> tuple:
        return tuple(tuple(Fraction(x, self.den) for x in row) for row in self.numer)

    @property
    def offset(self) -> tuple:
        return tuple(Fraction(x, self.den) for x in self.shift)

    def fixed_point_system(self):
        """(E - M) t = c times D, as ``(D E - numer, shift)``: so the system
        (E - M) t = c + alpha has the right-hand side shift + D alpha."""
        return [[self.den * (r == c) - x for c, x in enumerate(row)]
                for r, row in enumerate(self.numer)], self.shift


@dataclass(frozen=True)
class LiftSystem:
    factors: tuple  # n AffineLiftFactor, all with equal q

    @property
    def n(self) -> int:
        return len(self.factors)

    @property
    def q(self) -> int:
        return self.factors[0].q

    @cached_property
    def psi(self) -> PsiData:
        """The validated psi of this system, computed by :func:`validate`
        on first use and kept; raises what :func:`validate` raises."""
        return validate(self)


@dataclass(frozen=True)
class PsiData:
    """The homomorphism psi recorded on the standard generators of Z^q.

    ``generator_images[k]`` is psi(e_{k+1}).  Validity guarantees that the
    images commute pairwise, so psi extends to all of Z^q by products of
    powers (see :func:`psi_of`).
    """

    n: int
    q: int
    generator_images: tuple  # q SemidirectElements


def lift_system(factor_data) -> LiftSystem:
    """Build a LiftSystem from (linear, offset) pairs of rationals, over the
    lcm D of all their reduced denominators; no validation."""
    data = [([[Fraction(x) for x in row] for row in lin], [Fraction(x) for x in off])
            for lin, off in factor_data]
    if any(len(lin) != len(off) or any(len(row) != len(off) for row in lin)
           for lin, off in data):
        raise ValueError("linear part must be square and match the offset length")
    if not data:
        raise ValueError("a lift system needs at least one factor")
    q = len(data[0][1])
    if q < 1:
        raise ValueError("the torus dimension q must be at least 1")
    if any(len(off) != q for _, off in data):
        raise ValueError("all factors must share the same ambient dimension")
    den = lcm(*(x.denominator for lin, off in data for row in (*lin, off) for x in row))

    def over_den(row):
        return tuple(x.numerator * (den // x.denominator) for x in row)

    return LiftSystem(tuple(AffineLiftFactor(tuple(map(over_den, lin)), over_den(off), den)
                            for lin, off in data))


def _images_collide(fi: AffineLiftFactor, fj: AffineLiftFactor) -> bool:
    """Exact test: does (M_i - M_j) t + (c_i - c_j) hit Z^q for some real t?"""
    den = fi.den
    diff = [[x - y for x, y in zip(ri, rj)] for ri, rj in zip(fi.numer, fj.numer)]
    e = [x - y for x, y in zip(fi.shift, fj.shift)]
    kernel = left_kernel(diff)
    if not kernel:
        # nonsingular difference: it hits every point of R^q
        return True
    # z in Z^q with y . z = (y . e) / D for every integer kernel row y
    rhs = [sum(y * x for y, x in zip(row, e)) for row in kernel]
    if any(b % den for b in rhs):
        return False
    lattice = lattice_from_generators(zip(*kernel), len(kernel))
    return lattice_contains(lattice, [b // den for b in rhs])


def _first_collision(factors, group, same):
    """The lexicographically first colliding pair (i, j), i < j, or None.

    ``group[i]`` numbers the linear part of factor i, and ``same`` is the
    first colliding pair with equal linear parts (or None).  Pairs whose
    linear parts differ, and that come before ``same``, run the exact
    test of :func:`_images_collide`.
    """
    n = len(factors)
    if len(set(group)) == 1:  # one linear part: no pair needs the exact test
        return same
    stop_i, stop_j = same or (n, n)
    for i in range(min(stop_i + 1, n)):
        for j in range(i + 1, stop_j if i == stop_i else n):
            if group[i] != group[j] and _images_collide(factors[i], factors[j]):
                return i, j
    return same


def validate(sys: LiftSystem) -> PsiData:
    """Check that the system defines an n-valued torus map; derive psi.

    Raises CollisionError / NotEquivariantError / AmbiguousLiftError /
    NotCommutingError as appropriate.  Use ``sys.psi`` to validate a
    system once and keep the result.
    """
    n, q = sys.n, sys.q
    factors = sys.factors
    den = factors[0].den
    groups = {}  # D M -> group number
    group = []  # group number of each factor
    keyed = {}  # (group number, D c mod D) -> factor indices, ascending
    for i, f in enumerate(factors):
        g = groups.setdefault(f.numer, len(groups))
        group.append(g)
        keyed.setdefault((g, tuple(x % den for x in f.shift)), []).append(i)
    # equal linear parts collide iff their offsets agree mod Z^q
    same = min((ix[:2] for ix in keyed.values() if len(ix) > 1), default=None)
    pair = _first_collision(factors, group, same)
    if pair is not None:
        i, j = pair
        raise CollisionError(
            f"factors {i + 1} and {j + 1} meet modulo Z^{q}: "
            "the system does not map into the configuration space"
        )
    images = []
    for k in range(q):
        sigma_inv = [0] * n  # sigma^{-1}(i), 1-based values
        phi = [None] * n
        for i, fi in enumerate(factors):
            image = [row[k] + c for row, c in zip(fi.numer, fi.shift)]  # D (M_i e_k + c_i)
            # partner j: same linear part, M_i e_k + c_i - c_j integral
            matches = keyed.get((group[i], tuple(x % den for x in image)), ())
            if not matches:
                raise NotEquivariantError(
                    f"factor {i + 1} has no deck partner under generator e_{k + 1}"
                )
            if len(matches) > 1:
                raise AmbiguousLiftError(
                    f"factor {i + 1} has several deck partners under generator "
                    f"e_{k + 1}; this implies a collision"
                )
            j = matches[0]
            sigma_inv[i] = j + 1
            phi[i] = tuple((x - c) // den for x, c in zip(image, factors[j].shift))
        if sorted(sigma_inv) != list(range(1, n + 1)):
            raise AmbiguousLiftError(
                f"deck partners under generator e_{k + 1} do not form a permutation"
            )
        perm = Permutation(tuple(sigma_inv)).inverse()
        images.append(SemidirectElement(tuple(phi), perm))
    for a in range(q):
        for b in range(a + 1, q):
            if images[a].compose(images[b]) != images[b].compose(images[a]):
                raise NotCommutingError(
                    f"generator images e_{a + 1} and e_{b + 1} do not commute"
                )
    return PsiData(n, q, tuple(images))


def psi_of(data: PsiData, z) -> SemidirectElement:
    """psi(z) for an arbitrary integer vector z, via commuting powers."""
    if len(z) != data.q:
        raise DimensionMismatchError(f"expected a vector of length {data.q}")
    result = SemidirectElement.identity(data.n, data.q)
    for k, exp in enumerate(z):
        if exp:
            result = result.compose(data.generator_images[k].power(int(exp)))
    return result


# ---------------------------------------------------------------------------
# constructors for the standard map families


def require_congruent_rows(n: int, a):
    """Check 1 <= n <= LISTING_LIMIT and that the rows of the square
    integer matrix ``a`` are pairwise congruent entrywise mod n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > LISTING_LIMIT:
        raise ValueError(f"n = {n} is too many factors to list (limit {LISTING_LIMIT})")
    q = len(a)
    for r in range(q):
        for s in range(r + 1, q):
            if any((a[r][c] - a[s][c]) % n != 0 for c in range(q)):
                raise RowsNotCongruentError(
                    f"rows {r + 1} and {s + 1} are not congruent mod {n}"
                )


def make_linear(n: int, matrix) -> LiftSystem:
    """Linear n-valued torus map: factors t |-> (A t + (i, ..., i)) / n.

    Requires 1 <= n <= LISTING_LIMIT and every pair of rows of the
    integer matrix A to be congruent entrywise mod n.
    """
    a = [list(map(int, row)) for row in matrix]
    q = len(a)
    if any(len(row) != q for row in a):
        raise ValueError("matrix must be square")
    require_congruent_rows(n, a)
    linear = [[Fraction(a[r][c], n) for c in range(q)] for r in range(q)]
    factors = [
        (linear, [Fraction(i, n)] * q)
        for i in range(1, n + 1)
    ]
    sys = lift_system(factors)
    sys.psi  # validate now; the result stays cached on the system
    return sys


def make_circle(n: int, d: int) -> LiftSystem:
    """Circle map taking z to the n-th roots of z^d: factors (d t + j - 1)/n."""
    require_congruent_rows(n, [[d]])  # 1 <= n <= LISTING_LIMIT; one row, nothing to compare
    factors = [
        ([[Fraction(d, n)]], [Fraction(j - 1, n)])
        for j in range(1, n + 1)
    ]
    sys = lift_system(factors)
    sys.psi  # validate now; the result stays cached on the system
    return sys


def make_split(parts) -> LiftSystem:
    """Split n-valued map from integer-linear branches (A_i, b_i).

    Each branch is a single-valued affine torus map t |-> A_i t + b_i with
    A_i integral.  Validation rejects branch collisions, and the derived
    generator permutations are necessarily trivial.
    """
    sys = lift_system([([list(map(int, row)) for row in a], b) for a, b in parts])
    data = sys.psi
    # integral linear parts force sigma = id (a nontrivial partner would be
    # a collision); assert rather than trust
    for img in data.generator_images:
        if not img.perm.is_identity():
            raise AssertionError("split system produced a nontrivial permutation")
    return sys
