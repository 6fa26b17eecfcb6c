"""Token rearrangement planner: soundness, completeness, refusal."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nvalued.planner import (
    CollisionDetectedError,
    IllegalMoveError,
    Move,
    MoveSchedule,
    NoEssentialVertexError,
    TokenGraph,
    plan,
    simulate,
    validate_graph,
)


def star(legs=3, leg_len=1):
    vertices = ["hub"]
    edges = []
    for leg in range(legs):
        prev = "hub"
        for k in range(1, leg_len + 1):
            v = f"l{leg}x{k}"
            vertices.append(v)
            edges.append((prev, v))
            prev = v
    return vertices, edges


def random_tree(rng, nv):
    labels = [f"v{i}" for i in range(nv)]
    edges = []
    for i in range(1, nv):
        edges.append((labels[rng.randrange(i)], labels[i]))
    return labels, edges


# a 7-vertex tree with 6 tokens on which a lane-bookkeeping planner wedged
# ("all lanes are far-anchored"), though the rearrangement is solvable
WEDGED_TREE = (
    [(0, 1), (0, 6), (1, 2), (2, 3), (2, 4), (4, 5)],
    [3, 5, 6, 0, 2, 4],
    [4, 0, 5, 1, 2, 6],
)


# 9 tokens on a 10-vertex tree; the 821-move schedule exceeds
# 2n(V' - 1) + 2n^2 = 810, so the bound needs its cubic shunting term
SATURATED_TREE = (
    [(0, 1), (0, 5), (1, 2), (2, 3), (2, 7), (3, 4), (3, 6), (3, 9), (6, 8)],
    [2, 8, 1, 4, 0, 9, 7, 5, 3],
    [9, 2, 4, 7, 3, 5, 6, 0, 8],
)


@st.composite
def token_problems(draw):
    """A random recursive tree on 4-17 vertices, possibly with extra edges,
    and distinct start and goal vertices for 1..min(16, V - 1) tokens."""
    nv = draw(st.integers(4, 17))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, nv)}
    vertex = st.integers(0, nv - 1)
    extra = draw(st.lists(st.tuples(vertex, vertex), max_size=nv // 2))
    edges |= {(min(u, w), max(u, w)) for u, w in extra if u != w}
    n = draw(st.integers(1, min(16, nv - 1)))
    start = draw(st.permutations(range(nv)))[:n]
    goal = draw(st.permutations(range(nv)))[:n]
    return sorted(edges), start, goal


class TestTokenGraph:
    def test_build_normalizes(self):
        g = TokenGraph.build(["b", "a"], [("b", "a")], {1: "a"})
        assert g.vertices == ("a", "b")
        assert g.edges == (("a", "b"),)

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            TokenGraph.build(["a"], [("a", "a")], {1: "a"})

    def test_rejects_duplicate_occupancy(self):
        with pytest.raises(ValueError):
            TokenGraph.build(["a", "b", "c"], [("a", "b"), ("b", "c")], {1: "a", 2: "a"})

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            TokenGraph.build(["a", "b", "c", "d"], [("a", "b"), ("c", "d")], {1: "a"})

    def test_rejects_token_saturation(self):
        with pytest.raises(ValueError):
            TokenGraph.build(["a", "b"], [("a", "b")], {1: "a", 2: "b"})

    def test_rejects_bad_numbering(self):
        with pytest.raises(ValueError):
            TokenGraph.build(["a", "b", "c"], [("a", "b"), ("b", "c")], {2: "a"})


class TestValidateGraph:
    def test_star_center(self):
        vertices, edges = star()
        g = TokenGraph.build(vertices, edges, {1: "l0x1"})
        info = validate_graph(g)
        assert info.vertex == "hub"
        assert len(info.lanes) == 3
        # three branches carry at least n + 2 vertices
        assert sum(len(lane) for lane in info.lanes) >= g.n_tokens + 2

    def test_path_refused(self):
        g = TokenGraph.build(["a", "b", "c"], [("a", "b"), ("b", "c")], {1: "a"})
        with pytest.raises(NoEssentialVertexError):
            validate_graph(g)

    def test_cycle_refused(self):
        g = TokenGraph.build(
            ["a", "b", "c", "d"],
            [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
            {1: "a", 2: "c"},
        )
        with pytest.raises(NoEssentialVertexError):
            validate_graph(g)

    def test_lane_slots_are_fresh(self):
        vertices, edges = star()
        g = TokenGraph.build(vertices, edges, {1: "l0x1"})
        info = validate_graph(g)
        originals = set(g.vertices)
        for lane in info.lanes:
            assert not originals.intersection(lane)


class TestSimulate:
    def test_illegal_edge(self):
        vertices, edges = star()
        g = TokenGraph.build(vertices, edges, {1: "l0x1"})
        sched = MoveSchedule(moves=(Move(1, "l0x1", "l1x1"),))
        with pytest.raises(IllegalMoveError):
            simulate(g, sched)

    def test_wrong_source(self):
        vertices, edges = star()
        g = TokenGraph.build(vertices, edges, {1: "l0x1"})
        sched = MoveSchedule(moves=(Move(1, "hub", "l1x1"),))
        with pytest.raises(IllegalMoveError):
            simulate(g, sched)

    def test_collision(self):
        vertices, edges = star()
        g = TokenGraph.build(vertices, edges, {1: "l0x1", 2: "hub"})
        sched = MoveSchedule(moves=(Move(1, "l0x1", "hub"),))
        with pytest.raises(CollisionDetectedError):
            simulate(g, sched)


class TestPlan:
    def test_star_swap(self):
        vertices, edges = star()
        g = TokenGraph.build(vertices, edges, {1: "l0x1", 2: "l1x1"})
        goal = {1: "l1x1", 2: "l0x1"}
        result = plan(g, goal)
        assert simulate(result.graph, result.schedule) == goal
        assert len(result.schedule) <= result.poly_bound

    def test_goal_equals_start(self):
        vertices, edges = star()
        g = TokenGraph.build(vertices, edges, {1: "l0x1", 2: "l1x1"})
        result = plan(g, {1: "l0x1", 2: "l1x1"})
        assert len(result.schedule) == 0

    def test_path_and_cycle_refused(self):
        g = TokenGraph.build(["a", "b", "c"], [("a", "b"), ("b", "c")], {1: "a"})
        with pytest.raises(NoEssentialVertexError):
            plan(g, {1: "c"})
        cyc = TokenGraph.build(
            ["a", "b", "c", "d"],
            [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")],
            {1: "a", 2: "b"},
        )
        with pytest.raises(NoEssentialVertexError):
            plan(cyc, {1: "b", 2: "a"})

    def test_goal_validation(self):
        vertices, edges = star()
        g = TokenGraph.build(vertices, edges, {1: "l0x1", 2: "l1x1"})
        with pytest.raises(ValueError):
            plan(g, {1: "l1x1"})  # missing token 2
        with pytest.raises(ValueError):
            plan(g, {1: "hub", 2: "hub"})  # not injective
        with pytest.raises(ValueError):
            plan(g, {1: "nowhere", 2: "hub"})  # unknown vertex

    def test_junction_start_and_goal(self):
        vertices, edges = star()
        g = TokenGraph.build(vertices, edges, {1: "hub", 2: "l0x1"})
        goal = {1: "l0x1", 2: "hub"}
        result = plan(g, goal)
        assert simulate(result.graph, result.schedule) == goal

    def test_three_leg_rotation(self):
        vertices, edges = star(leg_len=2)
        g = TokenGraph.build(
            vertices, edges, {1: "l0x2", 2: "l1x2", 3: "l2x2"}
        )
        goal = {1: "l1x2", 2: "l2x2", 3: "l0x2"}
        result = plan(g, goal)
        assert simulate(result.graph, result.schedule) == goal

    def test_spine_reversal(self):
        g = TokenGraph.build(
            ["c", "a1", "a2", "a3", "a4", "b", "d"],
            [("c", "a1"), ("a1", "a2"), ("a2", "a3"), ("a3", "a4"), ("c", "b"), ("c", "d")],
            {1: "a1", 2: "a2", 3: "a3", 4: "a4"},
        )
        goal = {1: "a4", 2: "a3", 3: "a2", 4: "a1"}
        result = plan(g, goal)
        assert simulate(result.graph, result.schedule) == goal

    def test_random_trees(self):
        rng = random.Random(1234)
        planned = 0
        while planned < 120:
            nv = rng.randint(4, 12)
            labels, edges = random_tree(rng, nv)
            probe = TokenGraph.build(labels, edges, {1: labels[0]})
            if max(probe.degree(v) for v in labels) < 3:
                continue
            n = rng.randint(1, min(4, nv - 1))
            g = TokenGraph.build(
                labels, edges, {i + 1: v for i, v in enumerate(rng.sample(labels, n))}
            )
            goal = {i + 1: v for i, v in enumerate(rng.sample(labels, n))}
            result = plan(g, goal)
            assert simulate(result.graph, result.schedule) == goal
            assert len(result.schedule) <= result.poly_bound
            planned += 1

    def test_random_graphs_with_cycles(self):
        rng = random.Random(4321)
        planned = 0
        while planned < 60:
            nv = rng.randint(4, 10)
            labels, tree_edges = random_tree(rng, nv)
            edges = set(tuple(sorted(e)) for e in tree_edges)
            for _ in range(rng.randint(0, 3)):
                u, w = rng.sample(labels, 2)
                edges.add(tuple(sorted((u, w))))
            probe = TokenGraph.build(labels, edges, {1: labels[0]})
            if max(probe.degree(v) for v in labels) < 3:
                continue
            n = rng.randint(1, min(4, nv - 1))
            g = TokenGraph.build(
                labels, edges, {i + 1: v for i, v in enumerate(rng.sample(labels, n))}
            )
            goal = {i + 1: v for i, v in enumerate(rng.sample(labels, n))}
            result = plan(g, goal)
            assert simulate(result.graph, result.schedule) == goal
            planned += 1

    @example(WEDGED_TREE)
    @example(SATURATED_TREE)
    @given(token_problems())
    @settings(max_examples=250, deadline=None, derandomize=True)
    def test_complete_within_bound(self, problem):
        edges, start, goal = problem
        vertices = {v for edge in edges for v in edge}
        g = TokenGraph.build(vertices, edges, dict(enumerate(start, 1)))
        goal = {t: str(v) for t, v in enumerate(goal, 1)}
        if max(g.degree(v) for v in g.vertices) < 3:
            with pytest.raises(NoEssentialVertexError):
                plan(g, goal)
            return
        result = plan(g, goal)
        assert simulate(result.graph, result.schedule) == goal
        assert len(result.schedule) <= result.poly_bound or not result.schedule.moves
