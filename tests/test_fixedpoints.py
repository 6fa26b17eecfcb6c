"""Fixed point classes, indices, Nielsen numbers, and the linear formula."""

import dataclasses
import random
from fractions import Fraction

import pytest

from nvalued.fixedpoints import (
    InfiniteClassesError,
    NonIntegralResultError,
    SingularLinearPartError,
    fixed_point_classes,
    index_uniformity,
    nielsen_linear_formula,
    nielsen_number,
    nielsen_report,
)
from nvalued.intlinalg import is_infinite, rational_det
from nvalued.liftsystems import (
    RowsNotCongruentError,
    lift_system,
    make_circle,
    make_linear,
    make_split,
)
from nvalued.reidemeister import reidemeister_number

from conftest import random_linear_system, random_system, torus3_system
from test_acceptance import collected_instances


def frac(s):
    return Fraction(s)


class TestTorus3:
    def test_six_singleton_classes(self):
        report = nielsen_number(torus3_system())
        points = sorted(c.point for c in report.classes)
        assert points == [
            (frac(0), frac(0)),
            (frac(0), frac("1/4")),
            (frac(0), frac("1/2")),
            (frac(0), frac("3/4")),
            (frac("1/2"), frac("1/4")),
            (frac("1/2"), frac("3/4")),
        ]
        assert all(c.index == 1 for c in report.classes)
        assert report.nielsen == 6
        assert report.reidemeister == 6
        assert report.uniformity_per_sigma_class is True


class TestCircles:
    def test_two_valued_degree_zero(self):
        # fixed points of the two constant branches: 0 and 1/2, index +1
        report = nielsen_number(make_circle(2, 0))
        assert sorted(c.point[0] for c in report.classes) == [frac(0), frac("1/2")]
        assert all(c.index == 1 for c in report.classes)

    def test_three_valued_degree_one(self):
        report = nielsen_number(make_circle(3, 1))
        assert report.nielsen == report.reidemeister == 2
        assert all(c.index == 1 for c in report.classes)

    def test_constant_map(self):
        report = nielsen_number(lift_system([([[0, 0], [0, 0]], [0, 0])]))
        assert [c.point for c in report.classes] == [(frac(0), frac(0))]
        assert report.classes[0].index == 1

    def test_nonsingular_finite_r_gives_n_equals_r(self, rng):
        for _ in range(30):
            sys = random_system(rng)
            report = reidemeister_number(sys)
            if is_infinite(report.total):
                continue
            nr = nielsen_number(sys)
            assert nr.nielsen == nr.reidemeister

    def test_infinite_r_refused(self):
        with pytest.raises(InfiniteClassesError):
            nielsen_number(make_circle(3, 3))
        with pytest.raises(InfiniteClassesError):
            fixed_point_classes(make_circle(3, 3))


class TestDegenerate:
    # For a valid system, L_r = (E - M_r)(S_r), so a singular linear part
    # at a sigma-class representative forces R infinite: the finite
    # pipeline never meets det(E - M_r) = 0.

    def test_singular_part_implies_infinite_r(self):
        sys = lift_system([([[1, 0], [0, 0]], [Fraction(1, 2), Fraction(1, 2)])])
        report = reidemeister_number(sys)
        assert is_infinite(report.total)
        with pytest.raises(InfiniteClassesError):
            fixed_point_classes(sys)
        with pytest.raises(InfiniteClassesError):
            nielsen_number(sys)

    def test_finite_r_iff_representatives_nonsingular(self):
        rng = random.Random(0x7E0)
        cases = [(sys, report) for _, sys, report, _ in collected_instances()]
        for _ in range(300):
            sys = random_system(rng)
            cases.append((sys, reidemeister_number(sys)))
        for sys, report in cases:
            dets = []
            for cls in report.sigma.classes:
                rep = sys.factors[cls.representative - 1].linear
                assert all(sys.factors[j - 1].linear == rep for j in cls.members)
                dets.append(
                    rational_det(
                        [[int(r == c) - x for c, x in enumerate(row)]
                         for r, row in enumerate(rep)]
                    )
                )
            assert is_infinite(report.total) == (0 in dets)
            if not is_infinite(report.total):
                classes = fixed_point_classes(sys, report)
                assert nielsen_report(sys, report, classes).nielsen == report.total

    def test_brute_scan_rejects_singular_factor(self):
        from nvalued.oracle import brute_fixed_points

        with pytest.raises(SingularLinearPartError):
            brute_fixed_points(make_circle(3, 3), 2)


class TestLinearFormula:
    def test_circle_consistency(self):
        for n in range(1, 7):
            for d in range(-6, 7):
                if abs(n - d) == 0:
                    assert nielsen_linear_formula(n, [[d]]) == 0
                else:
                    assert nielsen_linear_formula(n, [[d]]) == abs(n - d)

    def test_zero_matrix(self):
        for n in range(1, 6):
            assert nielsen_linear_formula(n, [[0, 0], [0, 0]]) == n

    def test_worked_q2(self):
        # 3 |det(E - A/3)| = 3 * |4/9 - 1/9| = 1
        assert nielsen_linear_formula(3, [[1, 1], [1, 1]]) == 1
        nr = nielsen_number(make_linear(3, [[1, 1], [1, 1]]))
        assert nr.nielsen == nr.reidemeister == 1

    def test_rows_not_congruent(self):
        with pytest.raises(RowsNotCongruentError):
            nielsen_linear_formula(2, [[1, 0], [0, 1]])

    def test_engine_matches_formula(self, rng):
        for _ in range(25):
            n, rows, value = random_linear_system(rng)
            nr = nielsen_number(make_linear(n, rows))
            assert nr.nielsen == nr.reidemeister == value
            assert nr.uniformity_per_sigma_class is True


class TestIndexStructure:
    def test_uniformity_on_torus3(self):
        nr = nielsen_number(torus3_system())
        assert index_uniformity(nr, nr.reid_report.sigma) is True

    def test_linear_uniform_sign(self, rng):
        from nvalued.intlinalg import frac_identity, rational_det

        for _ in range(15):
            n, rows, _ = random_linear_system(rng)
            q = len(rows)
            ident = frac_identity(q)
            m = [
                [ident[r][c] - Fraction(rows[r][c], n) for c in range(q)]
                for r in range(q)
            ]
            det = rational_det(m)
            sign = (det > 0) - (det < 0)
            nr = nielsen_number(make_linear(n, rows))
            assert all(c.index == sign for c in nr.classes)

    def test_member_with_opposite_sign_detected(self):
        # circle(2, 1) has the one sigma-class {1, 2}; planting factor 2's
        # linear part 3/2 flips its sign det(E - M) from +1 to -1
        good = make_circle(2, 1)
        report = reidemeister_number(good)
        assert [c.members for c in report.sigma.classes] == [(1, 2)]
        classes = fixed_point_classes(good, report)
        planted = lift_system(
            [([[Fraction(1, 2)]], [0]), ([[Fraction(3, 2)]], [Fraction(1, 2)])]
        )
        with pytest.raises(AssertionError, match="index uniformity"):
            nielsen_report(planted, report, classes)
        nr = nielsen_report(good, report, classes)
        assert nr.factor_signs == (1, 1)
        assert index_uniformity(nr, report.sigma) is True
        # the planted system's signs: 1 - 1/2 > 0 and 1 - 3/2 < 0
        planted_signs = dataclasses.replace(nr, factor_signs=(1, -1))
        assert index_uniformity(planted_signs, report.sigma) is False

    def test_split_opposite_signs_vacuous(self):
        # branches with opposite det signs (their difference is singular, so
        # the branches never meet): each sigma-class is a singleton, so
        # uniformity holds vacuously while indices differ across classes
        sys = make_split(
            [
                ([[2, 0], [0, 2]], [0, 0]),
                ([[2, 0], [1, 0]], [Fraction(1, 2), 0]),
            ]
        )
        nr = nielsen_number(sys)
        indices = sorted(c.index for c in nr.classes)
        assert indices == [-1, 1]
        assert nr.uniformity_per_sigma_class is True

    def test_points_pairwise_distinct(self, rng):
        for _ in range(30):
            sys = random_system(rng)
            report = reidemeister_number(sys)
            if is_infinite(report.total):
                continue
            classes = fixed_point_classes(sys, report)
            points = [c.point for c in classes]
            assert len(points) == len(set(points))

    def test_n_at_most_r(self, rng):
        for _ in range(30):
            sys = random_system(rng)
            report = reidemeister_number(sys)
            if is_infinite(report.total):
                continue
            nr = nielsen_number(sys)
            assert nr.nielsen <= nr.reidemeister
