"""Fixed point classes, indices, and the Nielsen number.

Each Reidemeister class representative (alpha, i) contributes the fixed
point class p Fix(alpha + f_i): solving

    (E - M_i) t = c_i + alpha

exactly and reducing mod 1 gives the class's torus point.  At a
nondegenerate fixed point of an affine map the index is the local degree
sign det(E - M_i).  One adjugate of the integer system D (E - M_i), D the
system's common denominator, solves it for every alpha, so a point is
kept as integer residues over |det(D E - D M_i)| = D^q |det(E - M_i)| and
reduced to lowest terms only when it is written out.

Equivariance gives phi_r(s) = M_r s on the stabilizer S_r of a
sigma-class representative r, so the image lattice is (E - M_r) S_r and
R(f) is finite exactly when det(E - M_r) != 0 at every representative.
Every class of a finite R(f) is therefore a single point of index +-1,
and N(f) = R(f), the sum of the block counts: :func:`nielsen_report`
counts without listing.  It checks each count against the determinant,
[Z^q : L_r] = |class| |det(E - M_r)|, and compares sign det(E - M_j) of
every member j with its representative's.  A listed class takes its
label (alpha, r) from ``ClassBlock.representatives``, so a report lists
each block's cosets once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import lcm

from .intlinalg import adjugate, eliminate, hnf_diagonal, is_infinite
from .liftsystems import LISTING_LIMIT, LiftSystem, require_congruent_rows
from .reidemeister import ReidemeisterReport, SigmaClassReport, reidemeister_number


class InfiniteClassesError(ValueError):
    """Fixed point classes were requested but R(f) is infinite."""


class TooManyClassesError(ValueError):
    """Fixed point classes were requested but R(f) is above LISTING_LIMIT."""


class SingularLinearPartError(ValueError):
    """det(E - M_i) = 0 for a factor: its fixed point set is not isolated."""


class NonIntegralResultError(ArithmeticError):
    """n |det(E - A/n)| failed to be an integer (arithmetic bug guard)."""


@dataclass(frozen=True)
class FixedPointClass:
    """One fixed point class, labelled by its class representative.

    The class's single torus point in [0,1)^q is ``residues`` over
    ``denominator``, integers in [0, denominator) not reduced; ``point``
    gives it as Fractions.  ``index`` is its fixed point index
    sign det(E - M_i), +-1.
    """

    alpha: tuple
    factor_index: int
    residues: tuple
    denominator: int
    index: int

    @property
    def point(self) -> tuple:
        return tuple(Fraction(r, self.denominator) for r in self.residues)


@dataclass(frozen=True)
class NielsenReport:
    nielsen: int
    reidemeister: object
    uniformity_per_sigma_class: bool
    reid_report: ReidemeisterReport
    factor_signs: tuple  # sign det(E - M_j) for factor j = 1..n
    # per block (sign, m, base, cols): class alpha's residues over m are
    # (base + sum_k alpha_k cols[k]) mod m
    _solutions: tuple = field(repr=False, compare=False)

    @cached_property
    def classes(self) -> tuple:
        """The fixed point classes, listed on first read."""
        return _list_classes(self.reid_report, self._solutions)


def fixed_point_classes(sys: LiftSystem, report: ReidemeisterReport = None):
    """Enumerate the fixed point classes of a lift system.

    Requires R(f) finite and at most LISTING_LIMIT.  Returns one
    :class:`FixedPointClass` per Reidemeister class, with pairwise
    distinct points.
    """
    if report is None:
        report = reidemeister_number(sys)
    return nielsen_report(sys, report).classes


def _list_classes(report: ReidemeisterReport, solutions) -> tuple:
    if report.total > LISTING_LIMIT:
        raise TooManyClassesError(
            f"R = {report.total} classes is too many to list (limit {LISTING_LIMIT})"
        )
    common = lcm(*(m for _, m, _, _ in solutions))
    seen = set()
    classes = []
    for block, (sign, m, base, cols) in zip(report.blocks, solutions):
        # the residues of the block's representatives (lex order over the
        # HNF diagonal) coordinate by coordinate, grown one axis at a
        # time: axis k steps each point d_k times along its column
        coords = [[x] for x in base]
        for d, col in zip(hnf_diagonal(block.image_lattice), cols):
            coords = [[(x + t * c) % m for x in xs for t in range(d)]
                      for xs, c in zip(coords, col)]
        # distinct across sigma-classes too: compare over the common denominator
        scale = common // m
        size = len(seen)
        seen.update(zip(*([x * scale for x in xs] for xs in coords)))
        if len(seen) != size + len(block.representatives):
            raise AssertionError(
                f"distinct classes of sigma-class {block.sigma_class.members} "
                "share a torus point"
            )
        classes.extend(FixedPointClass(alpha, i, residues, m, sign)
                       for (alpha, i), residues in zip(block.representatives, zip(*coords)))
    return tuple(classes)


def nielsen_number(sys: LiftSystem) -> NielsenReport:
    """Nielsen number with the full class/uniformity report.

    Fails loudly if index uniformity within sigma-classes is violated (it
    cannot be, for a valid torus lift system).
    """
    return nielsen_report(sys, reidemeister_number(sys))


def nielsen_report(sys: LiftSystem, report: ReidemeisterReport) -> NielsenReport:
    """The Nielsen report of ``report``, counted without listing the
    classes; raises as :func:`nielsen_number` does."""
    if is_infinite(report.total):
        raise InfiniteClassesError("R(f) is infinite: no finite class list or Nielsen count")
    solutions = []
    factor_signs = [0] * sys.n
    q, den = sys.q, sys.factors[0].den
    for block in report.blocks:
        cls = block.sigma_class
        factor = sys.factors[cls.representative - 1]
        mat, offset = factor.fixed_point_system()
        det, adj = adjugate(mat)
        if det == 0:
            raise AssertionError(f"R is finite but det(E - M_{cls.representative}) = 0")
        sign, m = (det > 0) - (det < 0), abs(det)
        # [Z^q : L_r] = |class| |det(E - M_r)|, and m is D^q |det(E - M_r)|
        if block.count * den**q != len(cls.members) * m:
            raise AssertionError(
                f"sigma-class {cls.members} has {block.count} classes, but "
                f"|class| |det(E - M_r)| = {len(cls.members) * m} / {den**q}"
            )
        # t = adj (offset + D alpha) / det mod 1, as residues over m
        base = tuple(sign * sum(x * y for x, y in zip(row, offset)) % m for row in adj)
        cols = tuple(tuple(sign * den * row[k] % m for row in adj) for k in range(q))
        solutions.append((sign, m, base, cols))
        # a valid system gives every member its representative's linear
        # part; any other linear part gets a determinant of its own
        for j in cls.members:
            member = sys.factors[j - 1]
            d = det if member.numer == factor.numer else eliminate(
                member.fixed_point_system()[0])[2]
            factor_signs[j - 1] = (d > 0) - (d < 0)
    nreport = NielsenReport(
        nielsen=sum(block.count for block in report.blocks),
        reidemeister=report.total,
        uniformity_per_sigma_class=True,
        reid_report=report,
        factor_signs=tuple(factor_signs),
        _solutions=tuple(solutions),
    )
    if not index_uniformity(nreport, report.sigma):
        raise AssertionError(
            "index uniformity within a sigma-class failed; "
            "this contradicts the torus cyclic-homotopy argument"
        )
    return nreport


def index_uniformity(report: NielsenReport, sigma: SigmaClassReport) -> bool:
    """True iff every member of each sigma-class has its representative's
    sign det(E - M_j)."""
    signs = report.factor_signs
    return all(
        signs[j - 1] == signs[cls.representative - 1]
        for cls in sigma.classes
        for j in cls.members
    )


def nielsen_linear_formula(n: int, matrix) -> int:
    """Closed form n |det(E - A/n)| for the linear n-valued torus map.

    It is |det(n E - A)| / n^(q-1), provably an integer; a nonzero
    remainder signals an arithmetic bug and raises.
    """
    a = [list(map(int, row)) for row in matrix]
    q = len(a)
    require_congruent_rows(n, a)
    det = eliminate([[n * (r == c) - x for c, x in enumerate(row)] for r, row in enumerate(a)])[2]
    value, rest = divmod(n * abs(det), n**q)
    if rest:
        raise NonIntegralResultError(f"n |det(E - A/n)| = {n * abs(det)}/{n**q} is not integral")
    return value
