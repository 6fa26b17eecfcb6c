"""Fixed point classes, indices, and the Nielsen number.

Each Reidemeister class representative (alpha, i) contributes the fixed
point class p Fix(alpha + f_i): solving

    (E - M_i) t = c_i + alpha

exactly and reducing mod 1 gives the class's torus point.  At a
nondegenerate fixed point of an affine map the index is the local degree
sign det(E - M_i), so every class of a nonsingular factor is a singleton
of index +-1; the Nielsen number counts the classes of nonzero index.

Degenerate linear parts (det(E - M_i) = 0) are never silently patched:
classes either come out empty (index 0, flagged) when the affine system
is inconsistent, or carry an undefined index otherwise, and the Nielsen
count refuses to proceed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .intlinalg import adjugate, eliminate, is_infinite, rational_det
from .liftsystems import LiftSystem, require_congruent_rows
from .reidemeister import ReidemeisterReport, SigmaClassReport, reidemeister_number


class InfiniteClassesError(ValueError):
    """Fixed point classes were requested but R(f) is infinite."""


class SingularLinearPartError(ValueError):
    """det(E - M_i) = 0 for some class: indices are undefined."""


class UndefinedIndexError(ValueError):
    """An index comparison touched a class with no defined index."""


class NonIntegralResultError(ArithmeticError):
    """n |det(E - A/n)| failed to be an integer (arithmetic bug guard)."""


@dataclass(frozen=True)
class FixedPointClass:
    """One fixed point class, labelled by its class representative.

    ``point`` is the torus point in [0,1)^q for a nonsingular factor,
    None otherwise.  ``index`` is +-1 (nonsingular), 0 (empty class of a
    degenerate factor), or None (undefined: degenerate with solutions).
    """

    alpha: tuple
    factor_index: int
    point: tuple
    index: object
    empty: bool


@dataclass(frozen=True)
class NielsenReport:
    classes: tuple
    nielsen: int
    reidemeister: object
    uniformity_per_sigma_class: bool
    reid_report: ReidemeisterReport


def fixed_point_classes(sys: LiftSystem, report: ReidemeisterReport = None):
    """Enumerate the fixed point classes of a lift system.

    Requires R(f) finite.  Returns one :class:`FixedPointClass` per
    Reidemeister class, with pairwise distinct nonempty points.
    """
    if report is None:
        report = reidemeister_number(sys)
    if is_infinite(report.total):
        raise InfiniteClassesError("R(f) is infinite: no finite class enumeration")
    return _classes_from_report(sys, report)


def _classes_from_report(sys: LiftSystem, report: ReidemeisterReport):
    q = sys.q
    classes = []
    seen_points = {}
    for block in report.blocks:
        i = block.sigma_class.representative
        mat, offset, scales = sys.factors[i - 1].fixed_point_system()
        # one determinant and adjugate per sigma-class: every point is then
        # t = adj (offset + scales * alpha) / det, reduced mod 1
        det, adj = adjugate(mat)
        sign, m = (det > 0) - (det < 0), abs(det)
        for alpha, _ in block.representatives:
            rhs = [offset[r] + scales[r] * alpha[r] for r in range(q)]
            if det != 0:
                point = tuple(
                    Fraction((sign * sum(x * y for x, y in zip(row, rhs))) % m, m)
                    for row in adj
                )
                cls = FixedPointClass(
                    alpha=alpha, factor_index=i, point=point, index=sign, empty=False
                )
                if point in seen_points:
                    raise AssertionError(
                        f"distinct classes share the torus point {point}"
                    )
                seen_points[point] = cls
            else:
                # solvable iff the right-hand side column takes no pivot
                _, pivots, _ = eliminate([row + [b] for row, b in zip(mat, rhs)])
                solvable = q not in pivots
                cls = FixedPointClass(
                    alpha=alpha,
                    factor_index=i,
                    point=None,
                    index=None if solvable else 0,
                    empty=not solvable,
                )
            classes.append(cls)
    return classes


def nielsen_number(sys: LiftSystem) -> NielsenReport:
    """Nielsen number with the full class/uniformity report.

    Raises :class:`SingularLinearPartError` when any class index is
    undefined, and fails loudly if index uniformity within sigma-classes
    is violated (it cannot be, for a valid torus lift system).
    """
    report = reidemeister_number(sys)
    if is_infinite(report.total):
        raise InfiniteClassesError("R(f) is infinite: the Nielsen count needs R finite")
    return nielsen_report(report, _classes_from_report(sys, report))


def nielsen_report(report: ReidemeisterReport, classes) -> NielsenReport:
    """The Nielsen report from the fixed point classes already listed for
    ``report``; raises as :func:`nielsen_number` does."""
    undefined = [c for c in classes if c.index is None]
    if undefined:
        bad = sorted({c.factor_index for c in undefined})
        raise SingularLinearPartError(
            f"det(E - M_i) = 0 for factor(s) {bad}: fixed point indices undefined"
        )
    nielsen = sum(1 for c in classes if c.index != 0)
    uniform = index_uniformity_from_classes(classes, report.sigma)
    if not uniform:
        raise AssertionError(
            "index uniformity within a sigma-class failed; "
            "this contradicts the torus cyclic-homotopy argument"
        )
    return NielsenReport(
        classes=tuple(classes),
        nielsen=nielsen,
        reidemeister=report.total,
        uniformity_per_sigma_class=uniform,
        reid_report=report,
    )


def index_uniformity_from_classes(classes, sigma: SigmaClassReport) -> bool:
    """True iff all classes within each sigma-class share one index."""
    by_rep = {}
    for cls in classes:
        if cls.index is None:
            raise UndefinedIndexError(
                f"class {cls.alpha} of factor {cls.factor_index} has no index"
            )
        by_rep.setdefault(cls.factor_index, set()).add(cls.index)
    for sigma_cls in sigma.classes:
        indices = by_rep.get(sigma_cls.representative, set())
        if len(indices) > 1:
            return False
    return True


def index_uniformity(report: NielsenReport, sigma: SigmaClassReport) -> bool:
    return index_uniformity_from_classes(report.classes, sigma)


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
