"""Brute-force oracle: window partitions, certification, negative controls."""

import dataclasses
import random
from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np
import pytest

from nvalued.fixedpoints import SingularLinearPartError, fixed_point_classes
from nvalued.intlinalg import (
    Sublattice,
    adjugate,
    coset_reduce,
    is_infinite,
    lattice_from_generators,
)
from nvalued.liftsystems import make_circle, make_linear, make_split, psi_of, validate
from nvalued.oracle import (
    BudgetExceededError,
    OracleConfig,
    _coverage_bound,
    _find,
    _moves,
    _prune_moves,
    _reduce_box,
    _union,
    brute_classes,
    brute_fixed_points,
    oracle_check,
)
from nvalued.reidemeister import reidemeister_number

from conftest import random_system, shifted_system, torus3_system


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


def window_classes(ids):
    """The class-id array of :func:`brute_classes` as a list of classes,
    each a frozenset of (alpha, i) cells, sorted by minimal member."""
    bound = (ids.shape[1] - 1) // 2
    groups = {}
    for (sheet, *idx), cls in np.ndenumerate(ids):
        alpha = tuple(k - bound for k in idx)
        groups.setdefault(cls, set()).add((alpha, sheet + 1))
    return sorted((frozenset(g) for g in groups.values()), key=min)


def reference_psi_sweep(data, bound):
    """Yield (gamma, translations, sigma_images) over the lex-positive
    half of the word box, composing psi incrementally along the
    lexicographic walk: the scalar sweep the array sweep must match."""
    q, n = data.q, data.n
    gen = [
        (g.translations, g.perm.images, g.perm.inverse().images)
        for g in data.generator_images
    ]

    def raw_compose(a, b):
        a_trans, a_perm, a_inv = a
        b_trans, b_perm, b_inv = b
        trans = tuple(
            tuple(x + y for x, y in zip(a_trans[i], b_trans[a_inv[i] - 1]))
            for i in range(n)
        )
        perm = tuple(a_perm[b_perm[i] - 1] for i in range(n))
        inv = tuple(b_inv[a_inv[i] - 1] for i in range(n))
        return (trans, perm, inv)

    def neg_gen(g):
        trans, perm, inv = g
        neg_trans = tuple(tuple(-x for x in trans[perm[i] - 1]) for i in range(n))
        return (neg_trans, inv, perm)

    identity = (
        tuple([tuple([0] * q)] * n),
        tuple(range(1, n + 1)),
        tuple(range(1, n + 1)),
    )
    lowest = []  # gen_k^(-bound)
    for k in range(q):
        acc = identity
        neg = neg_gen(gen[k])
        for _ in range(bound):
            acc = raw_compose(acc, neg)
        lowest.append(acc)

    def walk(prefix, element, k, positive):
        if k == q:
            if positive:
                yield prefix, element[0], element[1]
            return
        if positive:
            current = raw_compose(element, lowest[k])
            lo = -bound
        else:
            # leading coordinates all zero so far: only values >= 0 can
            # start a lex-positive vector
            current = element
            lo = 0
        for value in range(lo, bound + 1):
            yield from walk(prefix + (value,), current, k + 1, positive or value > 0)
            current = raw_compose(current, gen[k])

    yield from walk((), identity, 0, False)


def reference_moves(data, bound, limit):
    """The set of moves (v, j, i) from the scalar sweep, one gamma at a time."""
    moves = set()
    for gamma, trans, sigma_images in reference_psi_sweep(data, bound):
        for j in range(1, data.n + 1):
            i = sigma_images[j - 1]
            v = tuple(g - a for g, a in zip(gamma, trans[i - 1]))
            if i == j and not any(v):
                continue
            if any(c > limit or c < -limit for c in v):
                continue
            moves.add((v, j, i))
    return moves


def by_l1(moves):
    """``moves`` ordered by (L1 norm of v, v, j, i), the order
    :func:`_prune_moves` requires and :func:`_moves` returns."""
    return sorted(moves, key=lambda m: (sum(map(abs, m[0])), m))


def reference_prune(moves):
    """The move pruning with a separate sign-compatibility predicate."""

    def sign_compatible(u, v):
        return all(0 <= a <= b or b <= a <= 0 for a, b in zip(u, v))

    scan_cap = 64
    move_set = set(moves)
    ordered = by_l1(moves)
    kept = []
    kept_within = {}
    for v, j, i in ordered:
        implied = False
        for u in kept_within.get(j, ())[:scan_cap]:
            if sign_compatible(u, v):
                w = tuple(a - b for a, b in zip(v, u))
                if (w, j, i) in move_set and (any(w) or j != i):
                    implied = True
                    break
        if not implied and i != j:
            for u in kept_within.get(i, ())[:scan_cap]:
                if sign_compatible(u, v):
                    w = tuple(a - b for a, b in zip(v, u))
                    if (w, j, i) in move_set and any(w):
                        implied = True
                        break
        if implied:
            continue
        kept.append((v, j, i))
        if i == j:
            kept_within.setdefault(j, []).append(v)
    return kept


def reference_oracle_check(sys, cfg, report):
    """The per-cell verdict: label every window cell with the engine's
    ``coset_reduce`` and walk the sweep classes one cell at a time."""
    data = report.psi
    classes = window_classes(brute_classes(data, cfg))
    transport = {}
    for block in report.blocks:
        rep_idx = block.sigma_class.representative
        for j, t in block.sigma_class.transversal:
            phi_t = psi_of(data, t).translations[j - 1]
            transport[j] = (block.image_lattice, rep_idx, t, phi_t)

    def label(alpha, i):
        lattice, rep_idx, t, phi_t = transport[i]
        moved = tuple(a - b + c for a, b, c in zip(alpha, t, phi_t))
        return (coset_reduce(lattice, moved), rep_idx)

    label_to_class = {}
    for idx, cls in enumerate(classes):
        cls_labels = set()
        for alpha, i in cls:
            lbl = label(alpha, i)
            cls_labels.add(lbl)
            known = label_to_class.get(lbl)
            if known is None:
                label_to_class[lbl] = idx
            elif known != idx:
                return False
        if len(cls_labels) > 1:
            return False
    if cfg.box_bound >= _coverage_bound(report):
        if len(classes) != report.total:
            return False
    return True


def residue_steps(factor, box_bound):
    """``(m, base, cols)`` of one factor, m = |det(D E - D M)| over the
    system's common denominator D: the fixed points m t mod m over the
    box are base + sum_d k_d cols[d] mod m for k in [0, 2B]^q."""
    q, den = factor.q, factor.den
    mat, offset = factor.fixed_point_system()
    det, adj = adjugate(mat)
    if det == 0:
        raise SingularLinearPartError("degenerate factor")
    sign, m = (det > 0) - (det < 0), abs(det)
    corner = [x - den * box_bound for x in offset]
    base = tuple((sign * sum(x * y for x, y in zip(row, corner))) % m for row in adj)
    cols = [tuple(sign * den * adj[r][d] % m for r in range(q)) for d in range(q)]
    return m, base, cols


def walk_truncates(sys, box_bound):
    """Whether some column's order mod m exceeds the 2B + 1 steps of the
    box, so that the output depends on where the walk stops."""
    steps = [residue_steps(factor, box_bound) for factor in sys.factors]
    return any(m // gcd(m, *col) > 2 * box_bound + 1 for m, _, cols in steps for col in cols)


def reference_fixed_points(sys, box_bound):
    """Fixed points by walking every cell of the box [-B, B]^q: one
    recursive step per cell, adding one adjugate column mod |det|."""
    q = sys.q
    points = set()
    for factor in sys.factors:
        m, base0, cols = residue_steps(factor, box_bound)
        local = set()

        def walk(d, base):
            if d == q:
                local.add(base)
                return
            current = base
            for step in range(2 * box_bound + 1):
                walk(d + 1, current)
                if step < 2 * box_bound:
                    current = tuple((x + y) % m for x, y in zip(current, cols[d]))

        walk(0, base0)
        points.update(tuple(Fraction(x, m) for x in scaled) for scaled in local)
    return sorted(points)


def with_lattice(report, index, lattice):
    """``report`` with the image lattice of block ``index`` replaced."""
    block = report.blocks[index]
    bad_class = dataclasses.replace(block.sigma_class, image_lattice=lattice)
    blocks = list(report.blocks)
    blocks[index] = dataclasses.replace(block, sigma_class=bad_class)
    return dataclasses.replace(report, blocks=tuple(blocks))


class TestBruteClasses:
    def test_torus3_window(self):
        data = validate(torus3_system())
        classes = window_classes(brute_classes(data, OracleConfig(4, 4)))
        assert len(classes) == 6

    def test_constant_map_single_class(self):
        sys = make_linear(1, [[0]])
        classes = window_classes(brute_classes(validate(sys), OracleConfig(4, 4)))
        assert len(classes) == 1

    def test_circle_2_6(self):
        # degree theory predicts |2 - 6| = 4 classes
        data = validate(make_circle(2, 6))
        classes = window_classes(brute_classes(data, OracleConfig(8, 8)))
        assert len(classes) == 4

    def test_matches_reference(self, rng):
        for _ in range(12):
            sys = random_system(rng)
            data = validate(sys)
            box = 3 if data.q >= 2 else 5
            fast = window_classes(brute_classes(data, OracleConfig(box, box)))
            slow = reference_classes(data, box, box)
            assert fast == slow

    def test_no_move_in_window(self):
        # every move of circle(1, 30) leaves a box of bound 1: all cells apart
        data = validate(make_circle(1, 30))
        assert reference_moves(data, 3, 2) == set()
        classes = window_classes(brute_classes(data, OracleConfig(1, 3)))
        assert classes == reference_classes(data, 1, 3)
        assert len(classes) == 3

    def test_budget(self):
        data = validate(torus3_system())
        with pytest.raises(BudgetExceededError):
            brute_classes(data, OracleConfig(10, 10, budget=1000))

    def test_window_monotone(self, rng):
        # growing the window never separates cells merged in a smaller one
        for _ in range(6):
            sys = random_system(rng)
            data = validate(sys)
            small = window_classes(brute_classes(data, OracleConfig(3, 3)))
            big = window_classes(brute_classes(data, OracleConfig(4, 4)))
            membership = {}
            for idx, cls in enumerate(big):
                for cell in cls:
                    membership[cell] = idx
            for cls in small:
                owners = {membership[cell] for cell in cls}
                assert len(owners) == 1


class TestUnion:
    def test_partition_matches_bfs(self):
        rng = random.Random(1306)
        for _ in range(40):
            size = rng.randint(100, 400)
            edges = [
                (rng.randrange(size), rng.randrange(size))
                for _ in range(rng.randint(0, 3 * size // 2))
            ]
            parent = np.arange(size, dtype=np.int64)
            for start in range(0, len(edges), 97):  # batches, as per move
                a, b = np.array(edges[start : start + 97], dtype=np.int64).T
                _union(parent, a, b)
            neighbours = [[] for _ in range(size)]
            for a, b in edges:
                neighbours[a].append(b)
                neighbours[b].append(a)
            # BFS from each unvisited cell in increasing order: every cell
            # is labelled by the smallest cell of its component
            smallest = [-1] * size
            for cell in range(size):
                if smallest[cell] < 0:
                    smallest[cell] = cell
                    queue = [cell]
                    for c in queue:
                        for d in neighbours[c]:
                            if smallest[d] < 0:
                                smallest[d] = cell
                                queue.append(d)
            assert _find(parent, np.arange(size)).tolist() == smallest


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
        corrupted_lattice = lattice_from_generators(
            [(2, 0), (0, 4)], 2
        )  # honest lattice is [[1,0],[0,2]]
        bad_report = with_lattice(report, 0, corrupted_lattice)
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
            engine_points = sorted(c.point for c in classes)
            assert brute_fixed_points(sys, 6) == engine_points

    def test_invariant_beyond_threshold(self):
        sys = torus3_system()
        assert brute_fixed_points(sys, 3) == brute_fixed_points(sys, 5)

    def test_matches_box_walk(self):
        rng = random.Random(1307)
        truncating = 0
        while truncating < 200:
            sys = random_system(rng)
            bound = rng.randint(1, 3)
            # mixed denominators: the same psi, other fixed points; a shift
            # changes neither which factors are singular nor the walk's steps
            shifted = shifted_system(sys)
            assert shifted.psi == sys.psi
            try:
                expected = reference_fixed_points(sys, bound)
            except SingularLinearPartError:
                for singular in (sys, shifted):
                    with pytest.raises(SingularLinearPartError):
                        brute_fixed_points(singular, bound)
                continue
            assert brute_fixed_points(sys, bound) == expected, (sys, bound)
            expected = reference_fixed_points(shifted, bound)
            assert brute_fixed_points(shifted, bound) == expected, (shifted, bound)
            truncating += walk_truncates(sys, bound)


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
        for window_cls in window_classes(brute_classes(data, OracleConfig(4, 4))):
            indices = {i for _, i in window_cls}
            orbits_seen = {frozenset(orbit_of[i]) for i in indices}
            assert len(orbits_seen) == 1
            assert indices == set(next(iter(orbits_seen)))

    def test_monotone_in_word_bound_alone(self, rng):
        for _ in range(5):
            data = validate(random_system(rng))
            small = window_classes(brute_classes(data, OracleConfig(3, 3)))
            big = window_classes(brute_classes(data, OracleConfig(3, 5)))
            membership = {}
            for idx, cls in enumerate(big):
                for cell in cls:
                    membership[cell] = idx
            for cls in small:
                assert len({membership[cell] for cell in cls}) == 1


class TestArraySweep:
    def test_moves_match_scalar_sweep(self):
        rng = random.Random(1301)
        limits = (1, 3, 6, 12)
        for draw in range(300):
            data = validate(random_system(rng))
            word = 1 + draw % 6
            limit = limits[draw % len(limits)]
            moves = _moves(data, word, limit)
            assert len(moves) == len(set(moves))
            assert set(moves) == reference_moves(data, word, limit), (draw, word, limit)

    def test_moves_come_distinct_and_ordered(self):
        rng = random.Random(1308)
        limits = (1, 3, 6, 12)
        for draw in range(300):
            data = validate(random_system(rng))
            word = 1 + draw % 6
            limit = limits[draw % len(limits)]
            moves = _moves(data, word, limit)
            assert moves == by_l1(set(moves)), (draw, word, limit)

    def test_int64_range(self):
        data = validate(make_linear(1, [[2, 10**18], [0, 2]]))
        assert set(_moves(data, 2, 4)) == reference_moves(data, 2, 4)
        with pytest.raises(OverflowError):
            _moves(data, 5, 4)

    def test_pruning_keeps_the_same_moves(self):
        rng = random.Random(1302)
        for draw in range(300):
            data = validate(random_system(rng))
            word = 1 + draw % 6
            moves = by_l1(reference_moves(data, word, 2 * word))
            assert _prune_moves(moves) == reference_prune(moves), draw


class TestVerdictDifferential:
    @staticmethod
    def finite_draws(seed, count):
        rng = random.Random(seed)
        drawn = 0
        while drawn < count:
            sys = random_system(rng)
            report = reidemeister_number(sys)
            if is_infinite(report.total):
                continue
            drawn += 1
            box = 3 if report.psi.q >= 2 else 6
            yield sys, report, OracleConfig(box, box)

    def test_same_verdict_on_engine_reports(self):
        for sys, report, cfg in self.finite_draws(1303, 200):
            expected = reference_oracle_check(sys, cfg, report)
            assert oracle_check(sys, cfg, report=report) is expected

    def test_same_verdict_on_planted_faults(self):
        failed = {"coarser": 0, "finer": 0, "total": 0}
        for sys, report, cfg in self.finite_draws(1304, 120):
            planted = []
            for index, block in enumerate(report.blocks):
                basis = block.image_lattice.basis
                q = len(basis)
                # a larger lattice: add the unit vector of a pivot above 1
                for k in range(q):
                    if basis[k][k] > 1:
                        unit = tuple(int(c == k) for c in range(q))
                        coarser = lattice_from_generators(basis + (unit,), q)
                        planted.append(("coarser", with_lattice(report, index, coarser)))
                        break
                doubled = (tuple(2 * c for c in basis[0]),) + basis[1:]
                finer = lattice_from_generators(doubled, q)
                planted.append(("finer", with_lattice(report, index, finer)))
            coverage = _coverage_bound(report)
            if coverage <= cfg.box_bound:
                planted.append(("total", dataclasses.replace(report, total=report.total + 1)))
            for kind, bad in planted:
                verdict = oracle_check(sys, cfg, report=bad)
                assert verdict is reference_oracle_check(sys, cfg, bad), kind
                failed[kind] += not verdict
        assert all(failed.values()), failed


class TestOwnReduction:
    def test_matches_coset_reduce(self):
        rng = random.Random(1305)
        for draw in range(200):
            q = rng.randint(1, 4)
            rank = q if draw % 2 else rng.randint(0, q - 1)
            gens = [tuple(rng.randint(-6, 6) for _ in range(q)) for _ in range(rank)]
            lat = lattice_from_generators(gens, q)
            shift = tuple(rng.randint(-30, 30) for _ in range(q))
            bound = 2 if q >= 3 else 3
            reduced = _reduce_box(lat.basis, shift, bound)
            cells = product(range(-bound, bound + 1), repeat=q)
            expected = [
                coset_reduce(lat, tuple(a + s for a, s in zip(alpha, shift)))
                for alpha in cells
            ]
            assert [tuple(r) for r in reduced.tolist()] == expected, (lat, shift)

    def test_int64_edge_is_exact(self):
        lat = Sublattice(2, ((3, 2**60),))
        reduced = _reduce_box(lat.basis, (-4, 5), 2)
        cells = product(range(-2, 3), repeat=2)
        expected = [coset_reduce(lat, (a - 4, b + 5)) for a, b in cells]
        assert [tuple(r) for r in reduced.tolist()] == expected

    def test_beyond_int64_raises(self):
        for basis in ((), ((1, 0), (0, 1))):
            with pytest.raises(OverflowError):
                _reduce_box(basis, (2**63 - 1, 0), 1)
        # the quotient times a large row entry would wrap around
        with pytest.raises(OverflowError):
            _reduce_box(((1, 2**62),), (5, 0), 2)
