"""Fixed point classes, indices, Nielsen numbers, and the linear formula."""

import dataclasses
import random
from fractions import Fraction

import pytest

from nvalued.fixedpoints import (
    InfiniteClassesError,
    NonIntegralResultError,
    SingularLinearPartError,
    TooManyClassesError,
    fixed_point_classes,
    index_uniformity,
    nielsen_linear_formula,
    nielsen_number,
    nielsen_report,
)
from nvalued.intlinalg import (
    Sublattice,
    adjugate,
    is_infinite,
    lattice_index,
    rational_det,
)
from nvalued.liftsystems import (
    RowsNotCongruentError,
    lift_system,
    make_circle,
    make_linear,
    make_split,
)
from nvalued.reidemeister import ClassBlock, reidemeister_number

from conftest import random_linear_system, random_system, shifted_system, torus3_system
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
                assert len(classes) == nielsen_report(sys, report).nielsen == report.total

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
        planted = lift_system(
            [([[Fraction(1, 2)]], [0]), ([[Fraction(3, 2)]], [Fraction(1, 2)])]
        )
        with pytest.raises(AssertionError, match="index uniformity"):
            nielsen_report(planted, report)
        nr = nielsen_report(good, report)
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


class TestResidues:
    """Points are residues over |det| grown one axis at a time; they must
    equal the per-class solve t = adj (offset + D alpha) / det mod 1 of
    the integer system over the common denominator D, in the order of
    the coset representatives."""

    @staticmethod
    def per_class_points(sys, report):
        points = []
        for block in report.blocks:
            i = block.sigma_class.representative
            factor = sys.factors[i - 1]
            mat, offset = factor.fixed_point_system()
            det, adj = adjugate(mat)
            sign, m = (det > 0) - (det < 0), abs(det)
            for alpha, _ in block.representatives:
                rhs = [c + factor.den * a for c, a in zip(offset, alpha)]
                points.append(tuple(
                    Fraction((sign * sum(x * y for x, y in zip(row, rhs))) % m, m)
                    for row in adj
                ))
        return points

    def test_points_match_per_class_solve(self):
        rng = random.Random(0x2E5)
        cases = [(sys, report) for _, sys, report, _ in collected_instances()]
        for _ in range(300):
            sys = random_system(rng)
            cases.append((sys, reidemeister_number(sys)))
            # mixed denominators: the same psi, other fixed points
            shifted = shifted_system(sys)
            assert shifted.psi == sys.psi
            cases.append((shifted, reidemeister_number(shifted)))
        for sys, report in cases:
            if is_infinite(report.total):
                continue
            classes = fixed_point_classes(sys, report)
            assert [c.point for c in classes] == self.per_class_points(sys, report)
            assert [(c.alpha, c.factor_index) for c in classes] == [
                pair for block in report.blocks for pair in block.representatives
            ]
            assert all(0 <= r < c.denominator for c in classes for r in c.residues)

    def test_residue_str_matches_fraction_str(self):
        from nvalued.cli import _residue_str

        for m in range(1, 301):
            for r in range(m):
                assert _residue_str(r, m) == str(Fraction(r, m))
        for m in (10**18 + 9, 2**61 - 1, 3 * 10**18, 17999999999999999994):
            for r in (0, 1, 2, 6, m // 3, m // 2, m - 1):
                assert _residue_str(r, m) == str(Fraction(r, m))


class TestCountWithoutListing:
    def test_nielsen_lists_no_class(self, monkeypatch):
        def refuse(block):
            raise AssertionError("a class was listed")

        monkeypatch.setattr(ClassBlock, "representatives", property(refuse))
        nr = nielsen_number(make_circle(1, -10**5))
        assert nr.nielsen == 100001
        huge = nielsen_number(make_linear(1, [[3 * 10**18, 0], [0, 7]]))
        assert huge.nielsen == huge.reidemeister == 17999999999999999994
        assert huge.factor_signs == (1,)  # det(E - A) = (1 - 3 10^18)(1 - 7) > 0

    def test_huge_r_is_refused_not_listed(self):
        sys = make_linear(1, [[3 * 10**18, 0], [0, 7]])
        with pytest.raises(TooManyClassesError, match="R = 17999999999999999994"):
            nielsen_number(sys).classes
        with pytest.raises(TooManyClassesError, match="R = 17999999999999999994"):
            fixed_point_classes(sys)

    def test_classes_listed_on_read(self):
        nr = nielsen_number(torus3_system())
        assert "classes" not in vars(nr)
        assert len(nr.classes) == nr.nielsen == 6
        assert nr.classes is nr.classes


class TestDeterminantCrossCheck:
    """nielsen_report checks [Z^q : L_r] = |class| |det(E - M_r)| per block."""

    SYSTEMS = (
        torus3_system,
        lambda: make_circle(4, -3),
        lambda: make_linear(2, [[-18, -20], [-8, 24]]),
    )

    @staticmethod
    def planted_reports(report):
        """One report per block and fault: the block's image lattice scaled
        by 2 (its count and R follow it), or its count off by one."""
        for b, block in enumerate(report.blocks):
            lat = block.image_lattice
            doubled = tuple(tuple(2 * x for x in row) for row in lat.basis)
            scaled = Sublattice(lat.ambient_dim, doubled)
            cls = dataclasses.replace(block.sigma_class, image_lattice=scaled)
            for planted in (ClassBlock(cls, lattice_index(scaled)),
                            ClassBlock(block.sigma_class, block.count + 1)):
                blocks = report.blocks[:b] + (planted,) + report.blocks[b + 1:]
                yield dataclasses.replace(
                    report, blocks=blocks, total=sum(x.count for x in blocks)
                )

    def test_planted_faults_raise(self):
        for make in self.SYSTEMS:
            sys = make()
            report = reidemeister_number(sys)
            assert nielsen_report(sys, report).nielsen == report.total
            planted = list(self.planted_reports(report))
            assert len(planted) == 2 * len(report.blocks)
            for bad in planted:
                with pytest.raises(AssertionError, match="classes, but"):
                    nielsen_report(sys, bad)
