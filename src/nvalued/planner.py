"""Collision-free rearrangement of labelled tokens sliding on a graph.

The planner is the discrete counterpart of moving distinct points along a
1-complex: tokens occupy vertices, one token slides along one edge per
step, and no two tokens may ever share a vertex.  Rearrangement into an
arbitrary target placement is possible exactly when the graph has an
*essential vertex* (degree >= 3); on paths and cycles the planner
refuses, mirroring the topological obstruction.

Strategy.  The three lexicographically smallest edges at the essential
vertex, the junction, are subdivided into corridors of n slots each
("lanes"); lane 0 is the home lane.  A lane holding tokens at its far end
is a stack whose top is the slot nearest the junction, and the three
lanes form a three-stack railway yard (Knuth, TAOCP vol. 1, 2.2.1).  A
plan has three steps:

1. gather: fill the home lane, ignoring which token goes where.  Each
   round runs a breadth-first search from the free home slots to the
   nearest token outside the lane.  Every other token on that path sits
   in an occupied home slot: a token outside the lane would be nearer,
   and a free slot would be a search source.  So the tokens on the path
   each shift forward one stretch, the one nearest the free slot first,
   and one more slot fills.  Gathering cannot wedge.
2. shunt: all n tokens are home and the two other lanes are empty.  A
   shunt moves the top token of one lane through the junction onto the
   stack of another.  Unless the home order is already the wanted one,
   the home lane is dumped into lane 1; then, deepest wanted token
   first, the tokens above it are shunted to the other buffer lane and
   it is shunted home.
3. unload: the same gather, run from the goal placement, ends in some
   home order, and that order is the wanted one.  Its moves, reversed and
   with source and target swapped, take that order to the goal.

Bound.  Let n be the number of tokens and V' the number of vertices of
the prepared graph.  A gather round walks one shortest path of at most
V' - 1 edges and fills one of n slots, so a gather takes at most
n(V' - 1) moves.  The dump is n shunts, and each wanted token then takes
at most n more (the tokens above it, then itself): at most n(n + 1)
shunts, each at most n moves up to the junction and n down.  Hence

    poly_bound = 2n(V' - 1) + 2n^2(n + 1).

Every emitted move is validated against the occupancy invariant as it is
generated, and :func:`simulate` replays schedules independently.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


class NoEssentialVertexError(ValueError):
    """The graph is a path or a cycle: no junction, planner refuses."""


class IllegalMoveError(ValueError):
    """A schedule move uses a missing edge or a wrong source vertex."""


class CollisionDetectedError(ValueError):
    """A schedule move targets an occupied vertex."""


class PlannerStuckError(RuntimeError):
    """An internal invariant broke: a step onto an occupied vertex, or a
    schedule that ends off the goal.  Valid input never raises it."""


@dataclass(frozen=True)
class TokenGraph:
    """Undirected graph with an injective token placement.

    ``vertices``: sorted vertex labels; ``edges``: sorted (u, v) pairs
    with u < v; ``placement``: sorted (token, vertex) pairs with tokens
    numbered 1..n.
    """

    vertices: tuple
    edges: tuple
    placement: tuple

    @classmethod
    def build(cls, vertices, edges, placement) -> "TokenGraph":
        verts = sorted(set(str(v) for v in vertices))
        if any((not v) or any(ch.isspace() for ch in v) for v in verts):
            raise ValueError("vertex labels must be nonempty and whitespace-free")
        vset = set(verts)
        norm_edges = set()
        for u, w in edges:
            u, w = str(u), str(w)
            if u == w:
                raise ValueError(f"self-loop at {u!r}")
            if u not in vset or w not in vset:
                raise ValueError(f"edge ({u!r}, {w!r}) uses an unknown vertex")
            norm_edges.add((min(u, w), max(u, w)))
        if isinstance(placement, dict):
            placement = placement.items()
        place = {}
        for token, vertex in placement:
            token = int(token)
            vertex = str(vertex)
            if vertex not in vset:
                raise ValueError(f"token {token} placed on unknown vertex {vertex!r}")
            if token in place:
                raise ValueError(f"token {token} placed twice")
            place[token] = vertex
        n = len(place)
        if sorted(place) != list(range(1, n + 1)):
            raise ValueError("tokens must be numbered 1..n")
        if len(set(place.values())) != n:
            raise ValueError("placement is not injective")
        if n >= len(verts):
            raise ValueError("need strictly fewer tokens than vertices")
        graph = cls(
            vertices=tuple(verts),
            edges=tuple(sorted(norm_edges)),
            placement=tuple(sorted(place.items())),
        )
        if not graph.is_connected():
            raise ValueError("graph must be connected")
        return graph

    @property
    def n_tokens(self) -> int:
        return len(self.placement)

    def adjacency(self):
        adj = {v: [] for v in self.vertices}
        for u, w in self.edges:
            adj[u].append(w)
            adj[w].append(u)
        for v in adj:
            adj[v].sort()
        return adj

    def placement_dict(self):
        return dict(self.placement)

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        adj = self.adjacency()
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    def degree(self, v) -> int:
        return sum(1 for u, w in self.edges if v in (u, w))


@dataclass(frozen=True)
class Move:
    token: int
    source: str
    target: str


@dataclass(frozen=True)
class MoveSchedule:
    moves: tuple

    def __len__(self):
        return len(self.moves)

    def to_lines(self):
        return [f"{m.token} {m.source} {m.target}" for m in self.moves]


@dataclass(frozen=True)
class Junction:
    """Essential vertex with its three lane corridors on the prepared graph.

    ``lanes[k]`` lists the corridor slots of one subdivided junction
    edge, nearest the junction first.
    """

    vertex: str
    graph: TokenGraph
    lanes: tuple


@dataclass(frozen=True)
class PlanResult:
    schedule: MoveSchedule
    graph: TokenGraph
    junction: str
    poly_bound: int


def validate_graph(g: TokenGraph) -> Junction:
    """Locate an essential vertex and prepare lane corridors.

    Raises :class:`NoEssentialVertexError` when the graph is a path or a
    cycle (connected with maximal degree <= 2).  The three smallest edges
    at the junction are each subdivided into n+1 segments, so at least
    n+2 vertices lie on the three branches.
    """
    adj = g.adjacency()
    essential = [v for v in g.vertices if len(adj[v]) >= 3]
    if not essential:
        raise NoEssentialVertexError(
            "graph is a path or cycle: token rearrangement is obstructed"
        )
    junction = min(essential)
    heads = adj[junction][:3]
    n = max(1, g.n_tokens)

    vset = set(g.vertices)
    edges = set(g.edges)
    lanes = []
    for head in heads:
        edges.discard((min(junction, head), max(junction, head)))
        slots = []
        for k in range(1, n + 1):
            label = f"{junction}~{head}~{k}"
            while label in vset:
                label = "_" + label
            vset.add(label)
            slots.append(label)
        chain = [junction] + slots + [head]
        for a, b in zip(chain, chain[1:]):
            edges.add((min(a, b), max(a, b)))
        lanes.append(tuple(slots))
    prepared = TokenGraph(
        vertices=tuple(sorted(vset)),
        edges=tuple(sorted(edges)),
        placement=g.placement,
    )
    return Junction(vertex=junction, graph=prepared, lanes=tuple(lanes))


def simulate(g: TokenGraph, schedule: MoveSchedule):
    """Replay a schedule, enforcing the occupancy invariants.

    Returns the final placement as a dict token -> vertex.
    """
    edges = set(g.edges)
    pos = g.placement_dict()
    occupied = {v: t for t, v in pos.items()}
    for move in schedule.moves:
        token, src, dst = move.token, move.source, move.target
        if pos.get(token) != src:
            raise IllegalMoveError(
                f"token {token} is at {pos.get(token)!r}, not {src!r}"
            )
        if (min(src, dst), max(src, dst)) not in edges:
            raise IllegalMoveError(f"no edge between {src!r} and {dst!r}")
        if dst in occupied:
            raise CollisionDetectedError(
                f"token {token} would collide with token {occupied[dst]} on {dst!r}"
            )
        del occupied[src]
        occupied[dst] = token
        pos[token] = dst
    return pos


class _Yard:
    """Token positions and occupancy on the prepared graph, with the moves
    emitted so far."""

    def __init__(self, info: Junction, placement: dict):
        self.info = info
        self.adj = info.graph.adjacency()
        self.pos = dict(placement)
        self.occupied = {v: t for t, v in self.pos.items()}
        self.moves = []

    def walk(self, token, path):
        for dst in path:
            if dst in self.occupied:
                raise PlannerStuckError(f"internal: step onto occupied {dst!r}")
            src = self.pos[token]
            self.moves.append(Move(token, src, dst))
            del self.occupied[src]
            self.occupied[dst] = token
            self.pos[token] = dst

    def stack(self, lane):
        """Tokens in ``lane``, top (nearest the junction) first."""
        return [self.occupied[s] for s in self.info.lanes[lane] if s in self.occupied]

    def gather(self):
        """Fill the home lane with every token, in whatever order."""
        home = self.info.lanes[0]
        while True:
            free = [s for s in home if s not in self.occupied]
            if not free:
                return
            # breadth-first from the free slots; ``toward[v]`` is v's next
            # vertex on a shortest path to one of them
            toward = dict.fromkeys(free)
            queue = deque(free)
            found = None
            while found is None:
                v = queue.popleft()
                for w in self.adj[v]:
                    if w not in toward:
                        toward[w] = v
                        if w in self.occupied and w not in home:
                            found = w
                            break
                        queue.append(w)
            path = [found]
            while toward[path[-1]] is not None:
                path.append(toward[path[-1]])
            # every token on the path after the first sits in a home slot;
            # each shifts to the next one's vertex, nearest the free slot first
            stops = [i for i, v in enumerate(path) if v in self.occupied]
            for i, j in reversed(list(zip(stops, stops[1:] + [len(path) - 1]))):
                self.walk(self.occupied[path[i]], path[i + 1 : j + 1])

    def shunt(self, src, dst):
        """Move the top token of lane ``src`` through the junction onto the
        stack in lane ``dst``."""
        lanes = self.info.lanes
        top = next(k for k, s in enumerate(lanes[src]) if s in self.occupied)
        floor = next((k for k, s in enumerate(lanes[dst]) if s in self.occupied), len(lanes[dst]))
        path = [*reversed(lanes[src][:top]), self.info.vertex, *lanes[dst][:floor]]
        self.walk(self.occupied[lanes[src][top]], path)

    def arrange(self, wanted):
        """Restack the full home lane into the order ``wanted``, top first."""
        if self.stack(0) == wanted:
            return
        for _ in wanted:
            self.shunt(0, 1)
        for token in reversed(wanted):
            lane = 1 if token in self.stack(1) else 2
            while self.stack(lane)[0] != token:
                self.shunt(lane, 3 - lane)
            self.shunt(lane, 0)


def plan(g: TokenGraph, goal) -> PlanResult:
    """Schedule collision-free slides taking the placement to ``goal``.

    ``goal`` maps each token to its target vertex (injective, original
    vertices).  The returned schedule acts on the prepared (subdivided)
    graph in the result, which carries the same original vertices and
    the same initial placement.
    """
    if isinstance(goal, dict):
        goal_map = {int(t): str(v) for t, v in goal.items()}
    else:
        goal_map = {int(t): str(v) for t, v in goal}
    start = g.placement_dict()
    if sorted(goal_map) != sorted(start):
        raise ValueError("goal must mention exactly the placed tokens")
    if len(set(goal_map.values())) != len(goal_map):
        raise ValueError("goal placement is not injective")
    unknown = [v for v in goal_map.values() if v not in set(g.vertices)]
    if unknown:
        raise ValueError(f"goal uses unknown vertices: {unknown}")

    info = validate_graph(g)
    if goal_map == start:
        return PlanResult(
            schedule=MoveSchedule(moves=()),
            graph=info.graph,
            junction=info.vertex,
            poly_bound=0,
        )
    yard = _Yard(info, start)
    yard.gather()
    unload = _Yard(info, goal_map)
    unload.gather()
    yard.arrange(unload.stack(0))
    for move in reversed(unload.moves):
        yard.walk(move.token, [move.source])
    n = g.n_tokens
    bound = 2 * n * (len(info.graph.vertices) - 1) + 2 * n * n * (n + 1)
    if len(yard.moves) > bound:
        raise AssertionError(
            f"schedule length {len(yard.moves)} exceeded the bound {bound}"
        )
    if yard.pos != goal_map:
        raise PlannerStuckError("planner terminated off-goal")
    return PlanResult(
        schedule=MoveSchedule(moves=tuple(yard.moves)),
        graph=info.graph,
        junction=info.vertex,
        poly_bound=bound,
    )
