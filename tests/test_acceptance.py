"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(run with ``pytest -s tests/test_acceptance.py`` to see them inline).
All arithmetic is exact, so every comparison is equality; each criterion
completes well within a 10 second budget.
"""

import functools
import random
from fractions import Fraction

from nvalued.fixedpoints import (
    fixed_point_classes,
    index_uniformity,
    nielsen_linear_formula,
    nielsen_number,
)
from nvalued.intlinalg import (
    frac_identity,
    is_infinite,
    lattice_contains,
    lattice_from_generators,
    lattice_index,
    rational_det,
)
from nvalued.liftsystems import make_circle, make_linear, make_split, psi_of, validate
from nvalued.oracle import OracleConfig, brute_fixed_points, oracle_check
from nvalued.planner import NoEssentialVertexError, TokenGraph, plan, simulate
from nvalued.reidemeister import reidemeister_number

from conftest import (
    hnf_with_transform,
    random_congruent_matrix,
    random_split_system,
    random_system,
    torus3_system,
)

SEED = 0x5EED


def criterion(num, label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"CRITERION {num} FAIL  {label}")
                raise
            print(f"CRITERION {num} PASS  {label}")

        return run

    return wrap


# instances shared between the randomized criteria and the oracle criterion
_instances = None


def collected_instances():
    """Systems exercised by criteria 1-4, with their engine reports.

    The oracle criterion runs over exactly this list, so the randomized
    criteria below iterate over it rather than drawing fresh instances.
    """
    global _instances
    if _instances is not None:
        return _instances
    rng = random.Random(SEED)
    systems = [("worked-example", torus3_system(), None)]
    for n in range(1, 7):
        for d in range(-6, 7):
            if d != n:
                systems.append((f"circle({n},{d})", make_circle(n, d), (n, d)))
    for k in range(50):
        while True:
            n = rng.randint(1, 4)
            q = rng.randint(1, 3)
            rows = random_congruent_matrix(rng, n, q)
            value = nielsen_linear_formula(n, rows)
            if value != 0:
                break
        systems.append((f"linear#{k}", make_linear(n, rows), (n, rows, value)))
    for k in range(25):
        parts = random_split_system(rng)
        systems.append((f"split#{k}", make_split(parts), parts))
    _instances = [
        (name, sys, reidemeister_number(sys), meta) for name, sys, meta in systems
    ]
    return _instances


def instances_of(prefix):
    return [entry for entry in collected_instances() if entry[0].startswith(prefix)]


@criterion(1, "worked 3-valued torus example: R = 2 + 4 = 6, N = 6")
def test_criterion_1_worked_example():
    sys = torus3_system()
    report = reidemeister_number(sys)
    classes = report.sigma.classes
    assert [c.members for c in classes] == [(1, 2), (3,)]
    assert classes[0].stabilizer.basis == ((2, 0), (0, 1))  # z1 even
    assert [b.count for b in report.blocks] == [2, 4]
    assert report.total == 6
    nres = nielsen_number(sys)
    points = sorted(c.point for c in nres.classes)
    assert points == [
        (Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1, 4)),
        (Fraction(0), Fraction(1, 2)),
        (Fraction(0), Fraction(3, 4)),
        (Fraction(1, 2), Fraction(1, 4)),
        (Fraction(1, 2), Fraction(3, 4)),
    ]
    assert all(c.index == +1 for c in nres.classes)
    assert nres.nielsen == 6


@criterion(2, "circle maps: R = |n - d| for d != n, infinite at d = n")
def test_criterion_2_circle_theorem():
    for n in range(1, 7):
        for d in range(-6, 7):
            total = reidemeister_number(make_circle(n, d)).total
            if d == n:
                assert is_infinite(total), (n, d)
            else:
                assert total == abs(n - d), (n, d)


@criterion(3, "linear torus maps: R = N = n |det(E - A/n)|, uniform indices")
def test_criterion_3_linear_maps():
    instances = instances_of("linear#")
    assert len(instances) == 50
    for name, sys, report, (n, rows, value) in instances:
        nres = nielsen_number(sys)
        assert nres.reidemeister == nres.nielsen == value, name
        assert index_uniformity(nres, nres.reid_report.sigma) is True


@criterion(4, "split maps: R adds up branch counts, permutations trivial")
def test_criterion_4_split_additivity():
    instances = instances_of("split#")
    assert len(instances) == 25
    for name, sys, report, parts in instances:
        data = validate(sys)
        assert all(img.perm.is_identity() for img in data.generator_images)
        q = len(parts[0][1])
        ident = frac_identity(q)
        expected = 0
        for a, _ in parts:
            m = [[ident[r][c] - a[r][c] for c in range(q)] for r in range(q)]
            expected += abs(rational_det(m))
        assert report.total == expected, name


@criterion(5, "oracle certifies every finite instance with R <= 50 at B = G = 10")
def test_criterion_5_oracle_equivalence():
    cfg = OracleConfig(box_bound=10, word_bound=10)
    checked = 0
    for name, sys, report, _ in collected_instances():
        if is_infinite(report.total) or report.total > 50:
            continue
        assert oracle_check(sys, cfg), name
        classes = fixed_point_classes(sys, report)
        engine_points = sorted(c.point for c in classes)
        assert brute_fixed_points(sys, 10) == engine_points, name
        checked += 1
    assert checked >= 100  # the families above supply far more than enough


@criterion(6, "property suites: group laws, psi, HNF/index, N <= R")
def test_criterion_6_property_suites():
    from nvalued.intlinalg import hermite_normal_form, mat_mul
    from nvalued.semidirect import Permutation, SemidirectElement

    rng = random.Random(SEED + 6)

    # semidirect group laws on 1000 random elements
    def rand_el(n, q):
        images = list(range(1, n + 1))
        rng.shuffle(images)
        trans = tuple(
            tuple(rng.randint(-10, 10) for _ in range(q)) for _ in range(n)
        )
        return SemidirectElement(trans, Permutation(tuple(images)))

    for _ in range(1000):
        n = rng.randint(1, 5)
        q = rng.randint(1, 3)
        a, b, c = rand_el(n, q), rand_el(n, q), rand_el(n, q)
        assert a.compose(b).compose(c) == a.compose(b.compose(c))
        ident = SemidirectElement.identity(n, q)
        assert a.compose(ident) == a and ident.compose(a) == a
        assert a.compose(a.inverse()) == ident

    # psi homomorphism and commutation on 200 random systems
    for _ in range(200):
        data = validate(random_system(rng))
        z = tuple(rng.randint(-4, 4) for _ in range(data.q))
        w = tuple(rng.randint(-4, 4) for _ in range(data.q))
        zw = tuple(x + y for x, y in zip(z, w))
        pz, pw = psi_of(data, z), psi_of(data, w)
        assert psi_of(data, zw) == pz.compose(pw) == pw.compose(pz)

    # HNF canonicality and brute-force index agreement (q <= 3, index <= 100)
    confirmed = 0
    while confirmed < 40:
        q = rng.randint(1, 3)
        vecs = [tuple(rng.randint(-5, 5) for _ in range(q)) for _ in range(q + 1)]
        h, u = hnf_with_transform(vecs)
        assert h == hermite_normal_form(vecs)
        assert mat_mul(u, [list(v) for v in vecs]) == h
        assert abs(rational_det(u)) == 1
        shuffled = list(vecs)
        rng.shuffle(shuffled)
        assert lattice_from_generators(shuffled, q) == lattice_from_generators(vecs, q)
        lat = lattice_from_generators(vecs, q)
        idx = lattice_index(lat)
        if is_infinite(idx) or idx > 100:
            continue
        from itertools import product as iproduct

        diag = [lat.basis[i][i] for i in range(q)]
        residues = []
        for v in iproduct(*(range(d) for d in diag)):
            if not any(
                lattice_contains(lat, tuple(a - b for a, b in zip(v, w)))
                for w in residues
            ):
                residues.append(v)
        assert len(residues) == idx
        confirmed += 1

    # N <= R on every analyzed system of the suite
    for name, sys, report, _ in collected_instances():
        if is_infinite(report.total):
            continue
        nres = nielsen_number(sys)
        assert nres.nielsen <= nres.reidemeister, name


@criterion(7, "planner: 100 random trees succeed, paths and cycles refused")
def test_criterion_7_planner():
    rng = random.Random(SEED + 7)
    planned = 0
    while planned < 100:
        nv = rng.randint(4, 12)
        labels = [f"v{i}" for i in range(nv)]
        edges = [(labels[rng.randrange(i)], labels[i]) for i in range(1, nv)]
        probe = TokenGraph.build(labels, edges, {1: labels[0]})
        if max(probe.degree(v) for v in labels) < 3:
            continue
        n = rng.randint(1, min(4, nv - 1))
        start = {i + 1: v for i, v in enumerate(rng.sample(labels, n))}
        goal = {i + 1: v for i, v in enumerate(rng.sample(labels, n))}
        g = TokenGraph.build(labels, edges, start)
        result = plan(g, goal)
        assert simulate(result.graph, result.schedule) == goal
        assert len(result.schedule) <= result.poly_bound or not result.schedule.moves
        planned += 1

    # refusal on the two obstructed shapes
    path_graph = TokenGraph.build(
        ["a", "b", "c", "d"], [("a", "b"), ("b", "c"), ("c", "d")], {1: "a", 2: "c"}
    )
    cycle_graph = TokenGraph.build(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
        {1: "a", 2: "c"},
    )
    for g, goal in ((path_graph, {1: "c", 2: "a"}), (cycle_graph, {1: "c", 2: "a"})):
        try:
            plan(g, goal)
        except NoEssentialVertexError:
            continue
        raise AssertionError("planner accepted an obstructed graph")
