"""Brute-force oracle: window partitions, certification, negative controls."""

import dataclasses
import random
from fractions import Fraction
from itertools import product

import pytest

from nvalued.fixedpoints import fixed_point_classes
from nvalued.intlinalg import is_infinite, lattice_from_generators
from nvalued.liftsystems import make_circle, make_linear, make_split, psi_of, validate
from nvalued.oracle import (
    BudgetExceededError,
    OracleConfig,
    brute_classes,
    brute_fixed_points,
    oracle_check,
)
from nvalued.reidemeister import reidemeister_number

from conftest import random_system, torus3_system


def reference_classes(data, box, word):
    """Straight union-find over the window from the equivalence criterion,
    no vectorization, no pruning: the reference the fast sweep must match."""
    n, q = data.n, data.q
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for alpha in product(range(-box, box + 1), repeat=q):
        for i in range(1, n + 1):
            parent[(alpha, i)] = (alpha, i)
    for gamma in product(range(-word, word + 1), repeat=q):
        if not any(gamma):
            continue
        el = psi_of(data, gamma)
        inv = el.inverse()
        for beta in product(range(-box, box + 1), repeat=q):
            for j in range(1, n + 1):
                i = el.perm(j)
                target = tuple(
                    g + b + p for g, b, p in zip(gamma, beta, inv.translations[j - 1])
                )
                if all(-box <= t <= box for t in target):
                    union((beta, j), (target, i))
    groups = {}
    for cell in parent:
        groups.setdefault(find(cell), set()).add(cell)
    return sorted((frozenset(g) for g in groups.values()), key=min)


class TestBruteClasses:
    def test_torus3_window(self):
        data = validate(torus3_system())
        classes = brute_classes(data, OracleConfig(4, 4))
        assert len(classes) == 6

    def test_constant_map_single_class(self):
        sys = make_linear(1, [[0]])
        classes = brute_classes(validate(sys), OracleConfig(4, 4))
        assert len(classes) == 1

    def test_circle_2_6(self):
        # degree theory predicts |2 - 6| = 4 classes
        data = validate(make_circle(2, 6))
        classes = brute_classes(data, OracleConfig(8, 8))
        assert len(classes) == 4

    def test_matches_reference(self, rng):
        for _ in range(12):
            sys = random_system(rng)
            data = validate(sys)
            box = 3 if data.q >= 2 else 5
            fast = brute_classes(data, OracleConfig(box, box))
            slow = reference_classes(data, box, box)
            assert fast == slow

    def test_budget(self):
        data = validate(torus3_system())
        with pytest.raises(BudgetExceededError):
            brute_classes(data, OracleConfig(10, 10, budget=1000))

    def test_window_monotone(self, rng):
        # growing the window never separates cells merged in a smaller one
        for _ in range(6):
            sys = random_system(rng)
            data = validate(sys)
            small = brute_classes(data, OracleConfig(3, 3))
            big = brute_classes(data, OracleConfig(4, 4))
            membership = {}
            for idx, cls in enumerate(big):
                for cell in cls:
                    membership[cell] = idx
            for cls in small:
                owners = {membership[cell] for cell in cls}
                assert len(owners) == 1


class TestOracleCheck:
    def test_torus3(self):
        assert oracle_check(torus3_system(), OracleConfig(6, 6)) is True

    def test_circle_family(self):
        for n in range(1, 5):
            for d in range(-6, 7):
                if d == n:
                    continue
                assert oracle_check(make_circle(n, d), OracleConfig(10, 10))

    def test_infinite_refused(self):
        from nvalued.fixedpoints import InfiniteClassesError

        with pytest.raises(InfiniteClassesError):
            oracle_check(make_circle(2, 2), OracleConfig(4, 4))

    def test_corrupted_lattice_detected(self):
        # negative control: doubling one basis vector of an image lattice
        # must make certification fail
        sys = torus3_system()
        report = reidemeister_number(sys)
        block = report.blocks[0]
        corrupted_lattice = lattice_from_generators(
            [(2, 0), (0, 4)], 2
        )  # honest lattice is [[1,0],[0,2]]
        bad_class = dataclasses.replace(block.sigma_class, image_lattice=corrupted_lattice)
        bad_block = dataclasses.replace(block, sigma_class=bad_class)
        bad_report = dataclasses.replace(
            report, blocks=(bad_block,) + report.blocks[1:]
        )
        assert oracle_check(sys, OracleConfig(6, 6), report=bad_report) is False


class TestBruteFixedPoints:
    def test_torus3_points(self):
        pts = brute_fixed_points(torus3_system(), 3)
        assert pts == sorted(
            [
                (Fraction(0), Fraction(0)),
                (Fraction(0), Fraction(1, 2)),
                (Fraction(0), Fraction(1, 4)),
                (Fraction(0), Fraction(3, 4)),
                (Fraction(1, 2), Fraction(1, 4)),
                (Fraction(1, 2), Fraction(3, 4)),
            ]
        )

    def test_constant_map(self):
        pts = brute_fixed_points(make_linear(1, [[0]]), 4)
        assert pts == [(Fraction(0),)]

    def test_circle_3_1(self):
        pts = brute_fixed_points(make_circle(3, 1), 5)
        assert len(pts) == 2

    def test_agrees_with_engine_classes(self, rng):
        for _ in range(15):
            sys = random_system(rng)
            report = reidemeister_number(sys)
            if is_infinite(report.total):
                continue
            classes = fixed_point_classes(sys, report)
            if any(c.point is None for c in classes):
                continue
            engine_points = sorted(c.point for c in classes)
            assert brute_fixed_points(sys, 6) == engine_points

    def test_invariant_beyond_threshold(self):
        sys = torus3_system()
        assert brute_fixed_points(sys, 3) == brute_fixed_points(sys, 5)


class TestStructuralInvariants:
    def test_oracle_classes_cover_sigma_class_indices(self):
        # every window class touches each index of its sigma-class: no class
        # is confined to a proper subset of the orbit (ample window)
        data = validate(torus3_system())
        report = reidemeister_number(torus3_system())
        orbit_of = {}
        for cls in report.sigma.classes:
            for j in cls.members:
                orbit_of[j] = set(cls.members)
        for window_cls in brute_classes(data, OracleConfig(4, 4)):
            indices = {i for _, i in window_cls}
            orbits_seen = {frozenset(orbit_of[i]) for i in indices}
            assert len(orbits_seen) == 1
            assert indices == set(next(iter(orbits_seen)))

    def test_monotone_in_word_bound_alone(self, rng):
        for _ in range(5):
            data = validate(random_system(rng))
            small = brute_classes(data, OracleConfig(3, 3))
            big = brute_classes(data, OracleConfig(3, 5))
            membership = {}
            for idx, cls in enumerate(big):
                for cell in cls:
                    membership[cell] = idx
            for cls in small:
                assert len({membership[cell] for cell in cls}) == 1
