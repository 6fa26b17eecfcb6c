"""Fixed point classes, indices, and the Nielsen number.

Each Reidemeister class representative (alpha, i) contributes the fixed
point class p Fix(alpha + f_i): solving

    (E - M_i) t = c_i + alpha

exactly and reducing mod 1 gives the class's torus point.  At a
nondegenerate fixed point of an affine map the index is the local degree
sign det(E - M_i).

Equivariance gives phi_r(s) = M_r s on the stabilizer S_r of a
sigma-class representative r, so the image lattice is (E - M_r) S_r and
R(f) is finite exactly when det(E - M_r) != 0 at every representative.
Every class of a finite R(f) is therefore a single point of index +-1,
and N(f) = R(f).  The indices are uniform within each sigma-class:
:func:`nielsen_report` reads sign det(E - M_j) from every member j's own
linear part and compares it with its representative's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .intlinalg import adjugate, is_infinite, rational_det
from .liftsystems import LiftSystem, require_congruent_rows
from .reidemeister import ReidemeisterReport, SigmaClassReport, reidemeister_number


class InfiniteClassesError(ValueError):
    """Fixed point classes were requested but R(f) is infinite."""


class SingularLinearPartError(ValueError):
    """det(E - M_i) = 0 for a factor: its fixed point set is not isolated."""


class NonIntegralResultError(ArithmeticError):
    """n |det(E - A/n)| failed to be an integer (arithmetic bug guard)."""


@dataclass(frozen=True)
class FixedPointClass:
    """One fixed point class, labelled by its class representative.

    ``point`` is the class's single torus point in [0,1)^q, a tuple of
    Fractions, and ``index`` is its fixed point index sign det(E - M_i),
    +-1.
    """

    alpha: tuple
    factor_index: int
    point: tuple
    index: int


@dataclass(frozen=True)
class NielsenReport:
    classes: tuple
    nielsen: int
    reidemeister: object
    uniformity_per_sigma_class: bool
    reid_report: ReidemeisterReport
    factor_signs: tuple  # sign det(E - M_j) for factor j = 1..n


def fixed_point_classes(sys: LiftSystem, report: ReidemeisterReport = None):
    """Enumerate the fixed point classes of a lift system.

    Requires R(f) finite.  Returns one :class:`FixedPointClass` per
    Reidemeister class, with pairwise distinct points.
    """
    if report is None:
        report = reidemeister_number(sys)
    if is_infinite(report.total):
        raise InfiniteClassesError("R(f) is infinite: no finite class enumeration")
    return _classes_from_report(sys, report)


def _classes_from_report(sys: LiftSystem, report: ReidemeisterReport):
    q = sys.q
    classes = []
    seen_points = set()
    for block in report.blocks:
        i = block.sigma_class.representative
        mat, offset, scales = sys.factors[i - 1].fixed_point_system()
        # one determinant and adjugate per sigma-class: every point is then
        # t = adj (offset + scales * alpha) / det, reduced mod 1
        det, adj = adjugate(mat)
        if det == 0:
            raise AssertionError(f"R is finite but det(E - M_{i}) = 0")
        sign, m = (det > 0) - (det < 0), abs(det)
        for alpha, _ in block.representatives:
            rhs = [offset[r] + scales[r] * alpha[r] for r in range(q)]
            point = tuple(
                Fraction((sign * sum(x * y for x, y in zip(row, rhs))) % m, m)
                for row in adj
            )
            if point in seen_points:
                raise AssertionError(f"distinct classes share the torus point {point}")
            seen_points.add(point)
            classes.append(
                FixedPointClass(alpha=alpha, factor_index=i, point=point, index=sign)
            )
    return classes


def nielsen_number(sys: LiftSystem) -> NielsenReport:
    """Nielsen number with the full class/uniformity report.

    Fails loudly if index uniformity within sigma-classes is violated (it
    cannot be, for a valid torus lift system).
    """
    report = reidemeister_number(sys)
    if is_infinite(report.total):
        raise InfiniteClassesError("R(f) is infinite: the Nielsen count needs R finite")
    return nielsen_report(sys, report, _classes_from_report(sys, report))


def nielsen_report(sys: LiftSystem, report: ReidemeisterReport, classes) -> NielsenReport:
    """The Nielsen report from the fixed point classes already listed for
    ``report``; raises as :func:`nielsen_number` does."""
    # a member with its representative's linear part shares its sign, the
    # index of the representative's classes; any other linear part gets one
    # determinant of its own.  Members are compared, not hashed: Fraction
    # hashes are not cached.
    rep_signs = {c.factor_index: c.index for c in classes}
    other_signs = {}
    factor_signs = [0] * sys.n
    for cls in report.sigma.classes:
        rep = sys.factors[cls.representative - 1].linear
        for j in cls.members:
            linear = sys.factors[j - 1].linear
            if linear == rep:
                factor_signs[j - 1] = rep_signs[cls.representative]
                continue
            if linear not in other_signs:
                det = rational_det(
                    [[int(r == c) - x for c, x in enumerate(row)]
                     for r, row in enumerate(linear)]
                )
                other_signs[linear] = (det > 0) - (det < 0)
            factor_signs[j - 1] = other_signs[linear]
    nreport = NielsenReport(
        classes=tuple(classes),
        nielsen=len(classes),
        reidemeister=report.total,
        uniformity_per_sigma_class=True,
        reid_report=report,
        factor_signs=tuple(factor_signs),
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

    The value is provably an integer; a non-integral result signals an
    arithmetic bug and raises.
    """
    a = [list(map(int, row)) for row in matrix]
    q = len(a)
    require_congruent_rows(n, a)
    e_minus = [
        [Fraction(int(r == c)) - Fraction(a[r][c], n) for c in range(q)] for r in range(q)
    ]
    value = n * abs(rational_det(e_minus))
    if value.denominator != 1:
        raise NonIntegralResultError(f"n |det(E - A/n)| = {value} is not integral")
    return int(value)
