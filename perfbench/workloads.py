"""Seeded input generators for the four benchmark workloads.

Every workload is an endless stream of *chunks*.  A chunk is one problem
set of a fixed composition: the same number of items of each family and
size band, with the parameters inside each band drawn from the seed.
Fixing the composition keeps the cost of a chunk nearly constant from
seed to seed, so a run's median chunk time is steady even though no
document is ever repeated.

The generator writes every document to a file under the run's work
directory; the program under test only ever sees those files, through
its command line.  Each item carries the facts its output check needs
(``meta``), which the generator knows by construction and which
``checks.py`` turns into expected values with its own arithmetic.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from fractions import Fraction

from checks import frac_det

WORKLOADS = ("analyze-mix", "analyze-wide", "oracle-certify", "plan-random")

MAPS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "maps")
# the repository's example maps that analyze-mix runs once per run; the
# check facts of the closed-form kinds come from the document itself
MAPS_FILES = ("circle_2_1.map", "linear_3x2.map", "split_2.map", "torus3.map")
CUSTOM_MAPS_META = {"torus3.map": ("torus3",)}

PLAN_TOKENS = (1, 5)  # tokens per plan-random graph

# The q = 3 linear instances of acceptance criterion 5 (tests/
# test_acceptance.py, collected_instances) with R <= 50, by n.  The
# oracle is asserted to certify exactly these at B = G = 10.  Random q = 3
# members of the same family occasionally need a longer word bound, and
# oracle-check then reports a disagreement with a correct engine; the
# oracle-certify heavy items come from this list instead, and two such
# members (ORACLE_PROBE) are checked in the traced run.  Values are A.
CRITERION5_Q3 = {
    1: ([[0, -2, 1], [-4, 4, -2], [0, 0, -1]], [[5, 0, -5], [-1, -3, -4], [-4, -4, -2]],
        [[-4, -5, 3], [-1, 0, 2], [-4, -1, -5]]),
    2: ([[1, -2, 4], [1, 2, 0], [3, 0, -2]], [[1, -4, -5], [1, -2, 5], [-3, -2, 3]],
        [[3, 4, 3], [3, 4, -3], [-1, 4, -5]], [[2, -2, 4], [4, 0, 2], [0, 2, 4]]),
    3: ([[4, 5, -5], [-2, -4, 4], [1, 2, 1]], [[-1, 3, 3], [2, 3, 0], [5, 3, 0]],
        [[-3, -1, -5], [0, 5, -2], [3, -4, 1]], [[3, 3, 2], [0, 0, -4], [3, -3, 5]],
        [[-4, -1, -3], [2, -1, 3], [-4, 2, 3]]),
    4: ([[5, 5, 4], [1, 1, 0], [5, 1, -4]], [[5, 1, -1], [-3, 5, 3], [-3, 5, -1]],
        [[2, -2, 1], [-2, -2, -3], [-2, -2, -3]], [[-5, 5, -1], [-5, -3, 3], [3, 5, -5]]),
}
# criterion 5 family members (q = 3, R = 2 and 5) where the seed oracle's
# window sweep at B = G = 10 splits an engine class (it agrees at G = 14)
ORACLE_PROBE = (("linear", 2, [[-5, -5, 5], [-3, -5, -3], [1, -5, -5]]),
                ("linear", 1, [[-1, 3, -4], [-4, -5, 5], [-5, -1, 0]]))
STUCK_PROBE_TOKENS = (6, 16)  # tokens per graph of the traced run's stuck probe


def load_map(name):
    """The JSON document of ``maps/<name>``."""
    with open(os.path.join(MAPS_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


def document_meta(name, doc):
    """Check facts of the example map ``name`` (inverse of family_document)."""
    kind = doc["kind"]
    if kind == "circle":
        return ("circle", doc["n"], doc["d"])
    if kind == "linear":
        return ("linear", doc["n"], doc["A"])
    if kind == "split":
        return ("split", [(part["A"], part["b"]) for part in doc["parts"]])
    return CUSTOM_MAPS_META[name]


class Item:
    """One unit of work: a command line and what its output must satisfy."""

    __slots__ = ("argv", "path", "meta", "system")

    def __init__(self, argv, path, meta):
        self.argv = argv
        self.path = path
        self.meta = meta
        self.system = None  # lift system for the brute-force pass, if any


# ---------------------------------------------------------------------------
# helpers used only to steer generation


def _minor(mat, r, c):
    return [row[:c] + row[c + 1:] for i, row in enumerate(mat) if i != r]


def _adj_times_ones(mat):
    """adj(mat) @ (1, ..., 1) by cofactors, for an integer matrix."""
    q = len(mat)
    if q == 1:
        return [1]
    return [
        sum((-1) ** (r + c) * int(frac_det(_minor(mat, c, r))) for c in range(q))
        for r in range(q)
    ]


def _stratified(rng, count, lo, hi):
    """``count`` values spread over [lo, hi): one per equal-width stratum,
    in random order (a Latin-hypercube draw)."""
    vals = [lo + (k + rng.random()) * (hi - lo) / count for k in range(count)]
    rng.shuffle(vals)
    return vals


def _split(lo, hi, count):
    """[lo, hi] cut into ``count`` integer ranges of near-equal width."""
    edges = [lo + round(k * (hi - lo + 1) / count) for k in range(count + 1)]
    return [(a, b - 1) for a, b in zip(edges, edges[1:])]


def _frac(x):
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# map families


def linear_matrix(rng, n, q, target, spread=1):
    """Integer q x q matrix with rows congruent mod n and
    R = n |det(E - A/n)| equal to ``target`` (0 meaning R infinite).

    Rows are r + n b_i.  With B = (b_i) the matrix-determinant lemma gives
    R = |n det(E - B) - r . adj(E - B) 1|, so after drawing B and all but
    one entry of r the last entry is solved for.  Returns None when the
    draw admits no integral solution; the caller redraws.
    """
    b = [[rng.randint(-spread, spread) if rng.random() < 0.35 else 0 for _ in range(q)]
         for _ in range(q)]
    e_minus_b = [[int(i == j) - b[i][j] for j in range(q)] for i in range(q)]
    det = int(frac_det(e_minus_b))
    w = _adj_times_ones(e_minus_b)
    units = [c for c in range(q) if w[c] in (1, -1)]
    if not units:
        return None
    c = rng.choice(units)
    r = [rng.randint(-n, n) for _ in range(q)]
    rest = sum(r[j] * w[j] for j in range(q) if j != c)
    want = n * det - rest - rng.choice((1, -1)) * target
    r[c] = want * w[c]  # w[c] = +-1 is its own inverse
    return [[r[j] + n * b[i][j] for j in range(q)] for i in range(q)]


def draw_linear(rng, n, q, target, spread=1):
    while True:
        a = linear_matrix(rng, n, q, target, spread)
        if a is not None:
            return a


def split_parts(rng, q, branches):
    """Branches t |-> A_i t + b_i that never meet mod Z^q.

    All branches share row 1 of their matrices and their offsets differ
    by distinct multiples of 1/denom in coordinate 1, so each difference
    (A_i - A_j) t + (b_i - b_j) has a fractional first coordinate.  Rows
    2..q vary per branch.  Every det(E - A_i) is nonzero.
    """
    while True:
        first = [rng.randint(-2, 2) for _ in range(q)]
        denom = rng.choice([d for d in (2, 3, 4, 5, 6) if d >= branches])
        offsets = rng.sample(range(denom), branches)
        parts = []
        for off in offsets:
            for _ in range(20):
                a = [first] + [[rng.randint(-2, 2) for _ in range(q)] for _ in range(q - 1)]
                e_minus_a = [[int(i == j) - a[i][j] for j in range(q)] for i in range(q)]
                if frac_det(e_minus_a) != 0:
                    break
            else:
                break  # this first row admits no nonsingular E - A: redraw
            b = [_frac(Fraction(off, denom))]
            b += [_frac(Fraction(rng.randint(0, 3), 4)) for _ in range(q - 1)]
            parts.append(([list(row) for row in a], b))
        if len(parts) == branches:
            return parts


def split_document(parts):
    return {"kind": "split", "parts": [{"A": a, "b": b} for a, b in parts]}


def custom_document(rng, meta):
    """The map of ``meta`` written as an explicit list of lift factors,
    shuffled and with every offset moved by an integer vector: the same
    n-valued map, so the same invariants."""
    family = meta[0]
    if family == "circle":
        _, n, d = meta
        factors = [([[Fraction(d, n)]], [Fraction(j, n)]) for j in range(n)]
    elif family == "linear":
        _, n, a = meta
        q = len(a)
        lin = [[Fraction(x, n) for x in row] for row in a]
        factors = [(lin, [Fraction(i, n)] * q) for i in range(1, n + 1)]
    elif family == "split":
        factors = [(a, [Fraction(x) for x in b]) for a, b in meta[1]]
    else:
        factors = [(f["linear"], [Fraction(x) for x in f["offset"]])
                   for f in load_map("torus3.map")["factors"]]
    rng.shuffle(factors)
    out = []
    for lin, off in factors:
        out.append({
            "linear": [[_frac(x) for x in row] for row in lin],
            "offset": [_frac(Fraction(x) + rng.randint(-2, 2)) for x in off],
        })
    q = len(factors[0][1])
    return {"kind": "custom", "n": len(factors), "q": q, "factors": out}


def family_document(meta):
    family = meta[0]
    if family == "circle":
        return {"kind": "circle", "n": meta[1], "d": meta[2]}
    if family == "linear":
        return {"kind": "linear", "n": meta[1], "A": meta[2]}
    return split_document(meta[1])


# ---------------------------------------------------------------------------
# the workload streams


class Stream:
    """Deterministic chunk stream of one workload for one seed."""

    def __init__(self, workload, seed, workdir):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(f"{workload}:{seed}")
        self.workdir = workdir
        self.seen = set()  # sha256 digests of the documents drawn so far
        self.decks = {}
        self.count = 0
        os.makedirs(workdir, exist_ok=True)

    def deal(self, key, values):
        """Next value from a shuffled deck of ``values`` kept per ``key``:
        over a run every value comes up equally often, whatever the seed."""
        deck = self.decks.get(key)
        if not deck:
            deck = self.decks[key] = list(values)
            self.rng.shuffle(deck)
        return deck.pop()

    def fresh(self, text):
        """Record the document ``text``; False if it was drawn before.
        Only a digest is kept, so the bookkeeping stays small however
        many items a run gets through."""
        key = hashlib.sha256(text.encode()).digest()
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def write_text(self, text, suffix):
        path = os.path.join(self.workdir, f"{self.count:06d}{suffix}")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def _map_item(self, doc, meta, extra=(), unique=True):
        """Write a map document; None if ``unique`` and it was drawn before."""
        text = json.dumps(doc, sort_keys=True)
        if not self.fresh(text) and unique:
            return None
        path = self.write_text(text, ".map")
        command = "oracle-check" if self.workload == "oracle-certify" else "analyze"
        argv = [command, path, *extra, "--format", "structured"]
        return Item(argv, path, meta)

    def _fill(self, makers):
        """Run each maker until it yields a fresh item (it redraws)."""
        items = []
        for make in makers:
            for _ in range(10_000):
                item = make()
                if item is not None:
                    items.append(item)
                    break
            else:
                raise RuntimeError(f"{self.workload}: no fresh input left to draw")
        return items

    def chunk(self, index):
        return getattr(self, "_chunk_" + self.workload.replace("-", "_"))(index)

    # -- analyze-mix -------------------------------------------------------
    # Small R: validation and report assembly dominate, not enumeration.

    def _chunk_analyze_mix(self, index):
        rng = self.rng

        def circle(n_band, r_band):
            def make():
                n, r = rng.randint(*n_band), rng.randint(*r_band)
                d = n + rng.choice((1, -1)) * r
                meta = ("circle", n, d)
                return self._map_item(family_document(meta), meta)
            return make

        def linear(slot, q_values, n_range, infinite=False):
            """A linear map; q, n and R are dealt from per-slot decks of
            bands, so every run holds nearly the same mix of sizes."""
            def make():
                q = self.deal(("q", slot), q_values)
                n = rng.randint(*self.deal(("n", slot), _split(*n_range, (n_range[1] - n_range[0] + 1) // 2)))
                target = 0 if infinite else rng.randint(*self.deal(("R", slot), _split(1, 64, 4)))
                a = draw_linear(rng, n, q, target)
                meta = ("linear", n, a)
                return self._map_item(family_document(meta), meta)
            return make

        def split(q):
            def make():
                parts = split_parts(rng, q, rng.randint(1, 4))
                meta = ("split", parts)
                return self._map_item(split_document(parts), meta)
            return make

        def custom(base):
            def make():
                if base == "circle":
                    n = rng.randint(1, 8)
                    meta = ("circle", n, n + rng.choice((1, -1)) * rng.randint(1, 24))
                elif base == "circle-infinite":
                    n = rng.randint(1, 16)
                    meta = ("circle", n, n)
                elif base == "linear":
                    n, q = rng.randint(1, 6), rng.randint(1, 3)
                    meta = ("linear", n, draw_linear(rng, n, q, rng.randint(1, 24)))
                elif base == "split":
                    meta = ("split", split_parts(rng, rng.randint(1, 2), rng.randint(1, 3)))
                else:
                    meta = ("torus3",)
                return self._map_item(custom_document(rng, meta), meta)
            return make

        # 46 items: 12 circle, 20 linear, 8 split, 6 custom.  The size
        # parameters that drive cost (n, q, R) are stratified per chunk;
        # the costly linear maps with q >= 4 get one item per quarter of
        # the n range, so that the slowest tenth has the same make-up in
        # every chunk.
        # Circles with d = n (R infinite) are written as custom documents:
        # only 16 such circle documents exist, too few to never repeat.
        n_bands = _split(1, 16, 12)
        r_bands = _split(1, 64, 12)
        rng.shuffle(n_bands)
        rng.shuffle(r_bands)
        makers = [circle(nb, rb) for nb, rb in zip(n_bands, r_bands)]
        for q in range(1, 7):
            n_ranges = _split(1, 16, 2 if q <= 3 else 4)
            makers += [linear((q, n_range), [q], n_range) for n_range in n_ranges]
        makers += [linear("infinite-low", [1, 2, 3], (1, 16), infinite=True),
                   linear("infinite-high", [4, 5, 6], (1, 16), infinite=True)]
        makers += [split(1), split(1), split(2), split(2), split(2), split(3), split(3), split(3)]
        makers += [custom("circle"), custom("circle-infinite"), custom("linear"),
                   custom("linear"), custom("split"), custom("torus3")]
        items = []
        if index == 0:
            for name in MAPS_FILES:
                doc = load_map(name)
                items.append(self._map_item(doc, document_meta(name, doc)))
        items += self._fill(makers)
        rng.shuffle(items)
        return items

    # -- analyze-wide ------------------------------------------------------
    # R from 200 to 2000: coset listing and fixed-point solving dominate.

    def _chunk_analyze_wide(self, index):
        rng = self.rng
        lo, hi = math.log(200), math.log(2000)
        per_family = 8

        def circle(logr):
            def make():
                n = self.deal("circle-n", range(1, 9))
                r = int(round(math.exp(logr)))
                d = n + rng.choice((1, -1)) * r
                meta = ("circle", n, d)
                return self._map_item(family_document(meta), meta)
            return make

        def linear(logr):
            def make():
                n = self.deal("linear-n", (2, 3))
                target = int(round(math.exp(logr)))
                a = draw_linear(rng, n, 2, target, spread=3)
                meta = ("linear", n, a)
                return self._map_item(family_document(meta), meta)
            return make

        makers = [circle(x) for x in _stratified(rng, per_family, lo, hi)]
        makers += [linear(x) for x in _stratified(rng, per_family, lo, hi)]
        items = self._fill(makers)
        rng.shuffle(items)
        return items

    # -- oracle-certify ----------------------------------------------------
    # Acceptance criterion 5's families at box = word = 10, finite R <= 50.
    # Its circle family has only 72 members, so this workload draws with
    # replacement: documents may repeat within a run.

    def _chunk_oracle_certify(self, index):
        rng = self.rng
        extra = ("--box", "10", "--word", "10")

        def circle():
            def make():
                n = self.deal("circle-n", range(1, 7))
                d = rng.choice([x for x in range(-6, 7) if x != n])
                meta = ("circle", n, d)
                return self._map_item(family_document(meta), meta, extra, False)
            return make

        def linear(q):
            def make():
                a = congruent_matrix(rng, n, q)
                value = abs(frac_det([[n * int(i == j) - a[i][j] for j in range(q)]
                                      for i in range(q)]))
                if value == 0 or value > 50 * n ** (q - 1):
                    return None
                meta = ("linear", n, a)
                return self._map_item(family_document(meta), meta, extra, False)
            n = self.deal(("linear-n", q), range(1, 5))
            return make

        def criterion5_q3(n):
            def make():
                pool = CRITERION5_Q3[n]
                meta = ("linear", n, pool[self.deal(("criterion5-q3", n), range(len(pool)))])
                return self._map_item(family_document(meta), meta, extra, False)
            return make

        def split(q):
            def make():
                parts = criterion_split_parts(rng, q)
                meta = ("split", parts)
                return self._map_item(split_document(parts), meta, extra, False)
            return make

        def torus3():
            def make():
                meta = ("torus3",)
                return self._map_item(custom_document(rng, meta), meta, extra, False)
            return make

        # 25 items in three cost groups: 6 cheap (4 circle, 1 linear q = 1,
        # 1 split q = 1), 15 medium (5 split q = 2, 6 linear q = 2, 4 torus)
        # and 4 heavy (CRITERION5_Q3, one for each n), which carry most of
        # the time.  The median then falls inside the medium group and the
        # 90th percentile inside the heavy one, not between two groups.
        makers = [circle() for _ in range(4)] + [linear(1), split(1)]
        makers += [split(2) for _ in range(5)] + [linear(2) for _ in range(6)]
        makers += [torus3() for _ in range(4)]
        makers += [criterion5_q3(n) for n in range(1, 5)]
        items = self._fill(makers)
        rng.shuffle(items)
        return items

    # -- plan-random -------------------------------------------------------
    # Random connected graphs with a junction: only the planner runs.  The
    # timed stream keeps to PLAN_TOKENS, where the seed planner never
    # wedges, so no timed item fails; the stuck probe covers the rest.

    def oracle_probe(self):
        """The ORACLE_PROBE documents, as oracle-certify items."""
        extra = ("--box", "10", "--word", "10")
        return [self._map_item(family_document(meta), meta, extra, False) for meta in ORACLE_PROBE]

    def _chunk_plan_random(self, index):
        return self._graph_items(self.rng, 100, PLAN_TOKENS)

    def stuck_probe(self):
        """The fixed graphs of the stuck probe: STUCK_PROBE_TOKENS tokens,
        where the seed planner raises PlannerStuckError on some solvable
        instances (its own message says it needs 6+ tokens)."""
        return self._graph_items(random.Random(f"stuck-probe:{self.seed}"), 100, STUCK_PROBE_TOKENS)

    def _graph_items(self, rng, count, token_range):
        sizes = _stratified(rng, count, 20, 121)
        tokens = _stratified(rng, count, token_range[0], token_range[1] + 1)
        items = []
        for k in range(count):
            while True:
                text, meta = random_graph_document(rng, int(sizes[k]), int(tokens[k]), tree=k % 2 == 0)
                if self.fresh(text):
                    break
            path = self.write_text(text, ".graph")
            items.append(Item(["plan", path, "--format", "structured"], path, meta))
        rng.shuffle(items)
        return items


def congruent_matrix(rng, n, q):
    """Entries in [-5, 5] with rows congruent mod n (criterion 5's family)."""
    while True:
        first = [rng.randint(-5, 5) for _ in range(q)]
        rows = [first]
        for _ in range(q - 1):
            row = []
            for c in range(q):
                choices = [first[c] + n * k for k in range(-10, 11) if -5 <= first[c] + n * k <= 5]
                row.append(rng.choice(choices))
            rows.append(row)
        return rows


def criterion_split_parts(rng, q):
    """Shared matrix, offsets k/denom in coordinate 1 (criterion 5's family)."""
    while True:
        branches = rng.randint(1, 3)
        a = [[rng.randint(-2, 2) for _ in range(q)] for _ in range(q)]
        if frac_det([[int(i == j) - a[i][j] for j in range(q)] for i in range(q)]) == 0:
            continue
        denom = rng.choice([2, 3, 4])
        if branches > denom:
            continue
        offsets = rng.sample(range(denom), branches)
        return [(a, [_frac(Fraction(off, denom))] + ["0"] * (q - 1)) for off in offsets]


def random_graph_document(rng, vertices, n_tokens, tree):
    """Edge-list document of a connected graph with a degree >= 3 vertex.

    A random recursive tree, plus about V/4 extra edges when ``tree`` is
    false; tokens get random distinct start and goal vertices.
    """
    labels = [f"v{i}" for i in range(vertices)]
    while True:
        edges = {(rng.randrange(i), i) for i in range(1, vertices)}
        degree = [0] * vertices
        for u, w in edges:
            degree[u] += 1
            degree[w] += 1
        if max(degree) >= 3:
            break
    if not tree:
        extra = vertices // 4
        while extra:
            u, w = sorted(rng.sample(range(vertices), 2))
            if (u, w) not in edges:
                edges.add((u, w))
                extra -= 1
    n_tokens = min(n_tokens, vertices - 1)
    start = rng.sample(labels, n_tokens)
    goal = rng.sample(labels, n_tokens)
    lines = [f"edge {labels[u]} {labels[w]}" for u, w in sorted(edges)]
    lines += [f"token {t} {v}" for t, v in enumerate(start, start=1)]
    lines += [f"goal {t} {v}" for t, v in enumerate(goal, start=1)]
    goals = {t: v for t, v in enumerate(goal, start=1)}
    return "\n".join(lines) + "\n", ("plan", goals)
