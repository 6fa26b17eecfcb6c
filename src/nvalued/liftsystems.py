"""Affine lift-factor systems modelling n-valued maps of the torus T^q.

A system is a list of n affine self-maps of R^q,

    t |-> M_i t + c_i          (M_i rational q x q, c_i rational),

that projects to a genuine n-valued map of T^q = R^q / Z^q.  The model
is validated exactly:

* equivariance: for each standard generator e_k of Z^q and each index i
  there must be exactly one index j with M_i = M_j and
  M_i e_k + c_i - c_j in Z^q; these data assemble the homomorphism
  psi: Z^q -> (Z^q)^n x| Sigma_n recorded on generators.  The partner j
  is one dictionary lookup: factors are grouped by linear part and keyed
  by their offsets reduced mod Z^q;
* commutation: the q generator images must commute;
* no collision: for i != j the affine difference
  (M_i - M_j) t + (c_i - c_j) must avoid Z^q for every real t.  When
  M_i = M_j the difference is the constant c_i - c_j, so the two factors
  collide iff their offsets agree mod Z^q: equal keys in the same
  dictionary, found in the one pass that builds it.  Otherwise it is
  decided exactly over the rationals: writing D = M_i - M_j and
  e = c_i - c_j, a collision exists iff some z in Z^q satisfies
  U z = U e where the integer rows of U span the left kernel of D,
  which is a lattice membership test.

A :class:`LiftSystem` is validated once: its ``psi`` property caches the
result of :func:`validate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .intlinalg import integer_rows, lattice_contains, lattice_from_generators, left_kernel
from .semidirect import DimensionMismatchError, Permutation, SemidirectElement


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
    """One affine self-map of R^q: t |-> linear @ t + offset."""

    linear: tuple  # q tuples of q Fractions
    offset: tuple  # q Fractions

    @property
    def q(self) -> int:
        return len(self.offset)

    def __call__(self, t):
        return tuple(
            sum((self.linear[i][k] * t[k] for k in range(self.q)), Fraction(0))
            + self.offset[i]
            for i in range(self.q)
        )

    def fixed_point_system(self):
        """The system (E - M) t = c with each row scaled to integers.

        Returns ``(matrix, rhs, scales)``: row r is ``scales[r]`` times row r
        of [E - M | c], so (E - M) t = c + alpha has the integer right-hand
        side ``rhs[r] + scales[r] * alpha[r]``.
        """
        q = self.q
        rows, scales = integer_rows(
            [[int(r == c) - self.linear[r][c] for c in range(q)] + [self.offset[r]]
             for r in range(q)]
        )
        return [row[:q] for row in rows], [row[q] for row in rows], scales


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


def _freeze_matrix(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _freeze_vector(vec):
    return tuple(Fraction(x) for x in vec)


def lift_factor(linear, offset) -> AffineLiftFactor:
    linear = _freeze_matrix(linear)
    offset = _freeze_vector(offset)
    q = len(offset)
    if len(linear) != q or any(len(row) != q for row in linear):
        raise ValueError("linear part must be square and match the offset length")
    return AffineLiftFactor(linear, offset)


def lift_system(factor_data) -> LiftSystem:
    """Build a LiftSystem from (linear, offset) pairs; no validation."""
    factors = tuple(lift_factor(lin, off) for lin, off in factor_data)
    if not factors:
        raise ValueError("a lift system needs at least one factor")
    q = factors[0].q
    if q < 1:
        raise ValueError("the torus dimension q must be at least 1")
    if any(f.q != q for f in factors):
        raise ValueError("all factors must share the same ambient dimension")
    return LiftSystem(factors)


def _images_collide(fi: AffineLiftFactor, fj: AffineLiftFactor) -> bool:
    """Exact test: does (M_i - M_j) t + (c_i - c_j) hit Z^q for some real t?"""
    q = fi.q
    diff = [[fi.linear[r][c] - fj.linear[r][c] for c in range(q)] for r in range(q)]
    e = [fi.offset[r] - fj.offset[r] for r in range(q)]
    kernel = left_kernel(diff)
    if not kernel:
        # D nonsingular: D t + e hits every point of R^q
        return True
    # z in Z^q with (row . z) = (row . e) for every integer kernel row
    rhs = [sum((y * x for y, x in zip(row, e)), Fraction(0)) for row in kernel]
    if any(b.denominator != 1 for b in rhs):
        return False
    r = len(kernel)
    columns = [tuple(row[c] for row in kernel) for c in range(q)]
    lattice = lattice_from_generators(columns, r)
    target = tuple(int(b) for b in rhs)
    return lattice_contains(lattice, target)


def _residue_key(vec):
    """The rational vector ``vec`` reduced mod Z^q, as a hashable key."""
    return tuple((x.numerator % x.denominator, x.denominator) for x in vec)


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
    groups = {}  # linear part -> group number
    group = []  # group number of each factor
    keyed = {}  # (group number, offset mod Z^q) -> factor indices, ascending
    for i, f in enumerate(factors):
        g = groups.setdefault(f.linear, len(groups))
        group.append(g)
        keyed.setdefault((g, _residue_key(f.offset)), []).append(i)
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
            shift = [row[k] + c for row, c in zip(fi.linear, fi.offset)]  # M_i e_k + c_i
            # partner j: same linear part, M_i e_k + c_i - c_j integral
            matches = keyed.get((group[i], _residue_key(shift)), ())
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
            # equal residues: the difference is the difference of the floors
            phi[i] = tuple(
                s.numerator // s.denominator - c.numerator // c.denominator
                for s, c in zip(shift, factors[j].offset)
            )
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
    """Check n >= 1 and that the rows of the square integer matrix ``a``
    are pairwise congruent entrywise mod n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    q = len(a)
    for r in range(q):
        for s in range(r + 1, q):
            if any((a[r][c] - a[s][c]) % n != 0 for c in range(q)):
                raise RowsNotCongruentError(
                    f"rows {r + 1} and {s + 1} are not congruent mod {n}"
                )


def make_linear(n: int, matrix) -> LiftSystem:
    """Linear n-valued torus map: factors t |-> (A t + (i, ..., i)) / n.

    Requires n >= 1 and every pair of rows of the integer matrix A to be
    congruent entrywise mod n.
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
    if n < 1:
        raise ValueError("n must be at least 1")
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
    factors = []
    for a, b in parts:
        a = [list(map(int, row)) for row in a]
        factors.append((a, [Fraction(x) for x in b]))
    sys = lift_system(factors)
    data = sys.psi
    # integral linear parts force sigma = id (a nontrivial partner would be
    # a collision); assert rather than trust
    for img in data.generator_images:
        if not img.perm.is_identity():
            raise AssertionError("split system produced a nontrivial permutation")
    return sys
