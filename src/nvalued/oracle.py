"""Independent brute-force verification of the Reidemeister engine.

The oracle certifies engine output on small instances without using any
of the engine's lattice machinery.  Its only shared vocabulary is psi
itself (evaluated pointwise) and the equivalence criterion

    (beta, j) ~ (gamma + beta + phi_j(-gamma), sigma_gamma(j))

which it applies by union-find over the finite window

    { (alpha, i) : alpha in [-B, B]^q, i in 1..n },

merging along every gamma in [-G, G]^q whenever the target stays inside
the window.  Because a single move translates a whole grid sheet, the
sweep is vectorized: per (gamma, j) the overlap of the box with its
translate is merged in one batched union-find pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .fixedpoints import InfiniteClassesError, SingularLinearPartError
from .intlinalg import adjugate, coset_reduce, is_infinite
from .liftsystems import LiftSystem, PsiData, psi_of
from .reidemeister import ReidemeisterReport, reidemeister_number


class BudgetExceededError(RuntimeError):
    """The requested window sizes exceed the configured sweep budget."""


@dataclass(frozen=True)
class OracleConfig:
    """Window bounds for the brute-force sweep.

    ``box_bound``  B: lift-factor translations range over [-B, B]^q.
    ``word_bound`` G: deck transformations range over [-G, G]^q.
    ``budget``: cap on the nominal sweep cost (2B+1)^q * n * (2G+1)^q.
    """

    box_bound: int = 6
    word_bound: int = 6
    budget: int = 600_000_000

    def __post_init__(self):
        if self.box_bound < 1 or self.word_bound < 1:
            raise ValueError("window bounds must be at least 1")


def _psi_sweep(data: PsiData, bound: int):
    """Yield (gamma, translations, sigma_images) over the lex-positive
    half of the word box (the -gamma moves are the same edges reversed).

    psi values are carried as raw tuples and built incrementally along
    the lexicographic walk, one cheap composition per step.
    """
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

    def _neg_gen(g):
        trans, perm, inv = g
        neg_trans = tuple(tuple(-x for x in trans[perm[i] - 1]) for i in range(n))
        return (neg_trans, inv, perm)

    identity = (
        tuple([tuple([0] * q)] * n),
        tuple(range(1, n + 1)),
        tuple(range(1, n + 1)),
    )
    lowest = []  # gen_k^(-bound), precomputed
    for k in range(q):
        acc = identity
        neg = _neg_gen(gen[k])
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


def _box_strides(q: int, side: int):
    strides = [1] * q
    for k in range(q - 2, -1, -1):
        strides[k] = strides[k + 1] * side
    return strides


def _sign_compatible(u, v):
    """Componentwise: u_d lies between 0 and v_d (inclusive)."""
    return all(0 <= a <= b or b <= a <= 0 for a, b in zip(u, v))


def _prune_moves(moves):
    """Drop moves whose every window edge factors through kept moves.

    A move (v, j, i) translates cell (beta, j) to (beta + v, i).  If
    v = u + w with a kept within-sheet move (u, j, j) sign-compatible
    with v and (w, j, i) also a move, the intermediate cell beta + u is
    sandwiched between the endpoints and hence inside the window, so the
    edge is implied.  Symmetrically via a within-sheet suffix (u, i, i).
    Pruning preserves the generated partition exactly; by induction on
    the L1 norm the dropped move's witness pair is itself implied.
    """
    scan_cap = 64  # pruning is optional, so capping the witness scan is sound
    move_set = set(moves)
    ordered = sorted(moves, key=lambda m: (sum(map(abs, m[0])), m))
    kept = []
    kept_within = {}
    for v, j, i in ordered:
        implied = False
        for u in kept_within.get(j, ())[:scan_cap]:
            if _sign_compatible(u, v):
                w = tuple(a - b for a, b in zip(v, u))
                if (w, j, i) in move_set and (any(w) or j != i):
                    implied = True
                    break
        if not implied and i != j:
            for u in kept_within.get(i, ())[:scan_cap]:
                if _sign_compatible(u, v):
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


class _BatchedUnionFind:
    """Union-find over integer cells with vectorized batched finds."""

    def __init__(self, size: int):
        import numpy as np

        self.parent = np.arange(size, dtype=np.int64)

    def find_many(self, idx):
        parent = self.parent
        roots = parent[idx]
        while True:
            nxt = parent[roots]
            if (nxt == roots).all():
                break
            parent[idx] = nxt
            roots = nxt
        return roots

    def union_pairs(self, a_roots, b_roots):
        import numpy as np

        parent = self.parent
        mask = a_roots != b_roots
        if not mask.any():
            return
        pa = a_roots[mask]
        pb = b_roots[mask]
        pairs = np.unique(
            np.stack([np.minimum(pa, pb), np.maximum(pa, pb)]), axis=1
        )
        for x, y in zip(pairs[0].tolist(), pairs[1].tolist()):
            rx = x
            while parent[rx] != rx:
                rx = parent[rx]
            ry = y
            while parent[ry] != ry:
                ry = parent[ry]
            if rx != ry:
                if rx < ry:
                    parent[ry] = rx
                else:
                    parent[rx] = ry

    def roots(self):
        import numpy as np

        return self.find_many(np.arange(len(self.parent)))


def brute_classes(data: PsiData, cfg: OracleConfig):
    """Partition of the window { (alpha, i) } under lift-factor equivalence.

    Returns a list of classes, each a frozenset of (alpha, i) pairs; the
    list is sorted by each class's minimal member for determinism.
    """
    import numpy as np

    n, q = data.n, data.q
    B, G = cfg.box_bound, cfg.word_bound
    side = 2 * B + 1
    box = side**q
    cost = box * n * (2 * G + 1) ** q
    if cost > cfg.budget:
        raise BudgetExceededError(
            f"sweep cost {cost} exceeds budget {cfg.budget}; "
            "shrink the window or raise OracleConfig.budget"
        )
    strides = _box_strides(q, side)
    uf = _BatchedUnionFind(n * box)
    grid = np.arange(box, dtype=np.int64).reshape([side] * q)
    overlap_cache = {}

    def overlap(v):
        cached = overlap_cache.get(v)
        if cached is not None:
            return cached
        bounds = [(max(0, -v[d]), min(side, side - v[d])) for d in range(q)]
        if any(lo >= hi for lo, hi in bounds):
            overlap_cache[v] = (None, 0)
            return None, 0
        src = grid[tuple(slice(lo, hi) for lo, hi in bounds)].ravel()
        shift = sum(v[d] * strides[d] for d in range(q))
        overlap_cache[v] = (src, shift)
        return src, shift

    # moves dedup: distinct gammas frequently induce the same translation.
    # With psi(gamma) = (alpha; sigma), the inverse formula gives
    # phi_j(-gamma) = -alpha_{sigma(j)}, so the move of (gamma, j) is the
    # translation v = gamma - alpha_{sigma(j)} onto sheet i = sigma(j).
    limit = 2 * B
    moves = set()
    for gamma, trans, sigma_images in _psi_sweep(data, G):
        for j in range(1, n + 1):
            i = sigma_images[j - 1]
            alpha_i = trans[i - 1]
            v = tuple(g - a for g, a in zip(gamma, alpha_i))
            if i == j and not any(v):
                continue
            if any(c > limit or c < -limit for c in v):
                continue
            moves.add((v, j, i))

    for v, j, i in _prune_moves(moves):
        src, shift = overlap(v)
        if src is None:
            continue
        a = src + (j - 1) * box
        b = (src + shift) + (i - 1) * box
        stacked = np.concatenate([a, b])
        roots = uf.find_many(stacked)
        half = len(a)
        uf.union_pairs(roots[:half], roots[half:])

    roots = uf.roots()
    groups = {}
    cells = list(product(range(-B, B + 1), repeat=q))
    for sheet in range(n):
        base = sheet * box
        for flat, alpha in enumerate(cells):
            groups.setdefault(int(roots[base + flat]), []).append((alpha, sheet + 1))
    classes = [frozenset(members) for members in groups.values()]
    classes.sort(key=lambda cls: min(cls))
    return classes


def _coverage_bound(report: ReidemeisterReport) -> int:
    """Smallest box bound that provably covers every engine class.

    Representative coordinates never exceed the HNF diagonal of their
    image lattice, so reps + one diagonal step stay in any box that is
    at least as large as (max |rep coordinate|) + (max diagonal entry).
    """
    rep_extent = 0
    diag_extent = 0
    for block in report.blocks:
        for alpha, _ in block.representatives:
            rep_extent = max(rep_extent, max(abs(c) for c in alpha) if alpha else 0)
        basis = block.image_lattice.basis
        for row in basis:
            diag_extent = max(diag_extent, max(abs(c) for c in row))
    return rep_extent + diag_extent


def oracle_check(sys: LiftSystem, cfg: OracleConfig, report: ReidemeisterReport = None) -> bool:
    """Certify the engine against the brute-force partition.

    True iff (a) the window partition has exactly R classes once the box
    bound reaches the coverage threshold computed from the engine's own
    lattice data, (b) window cells the engine declares equivalent are
    merged by the sweep, and (c) merged cells are engine-equivalent.

    ``report`` lets tests inject a (possibly corrupted) engine report;
    by default the engine runs on ``sys``.
    """
    if report is None:
        report = reidemeister_number(sys)
    if is_infinite(report.total):
        raise InfiniteClassesError("the oracle cannot certify an infinite R")
    data = report.psi
    classes = brute_classes(data, cfg)

    # transport table: factor index -> (image lattice, rep, t, phi_i(t)),
    # so each window cell is labelled with one vector op + one reduction
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
                # engine-equivalent cells landed in different sweep classes
                return False
        if len(cls_labels) > 1:
            # a sweep class mixes engine-inequivalent cells
            return False
    if cfg.box_bound >= _coverage_bound(report):
        if len(classes) != report.total:
            return False
    return True


def brute_fixed_points(sys: LiftSystem, box_bound: int):
    """All torus fixed points, found factor by factor over the window.

    Solves (E - M_i) t = c_i + alpha exactly for every factor i and every
    alpha in [-B, B]^q, reduces mod 1, and deduplicates.  Raises
    :class:`SingularLinearPartError` if any factor is degenerate.

    The box is walked incrementally: stepping alpha by a unit vector adds
    one precomputed adjugate column, so each cell costs q additions rather
    than a fresh solve.
    """
    q = sys.q
    points = set()
    for i, factor in enumerate(sys.factors, start=1):
        mat, offset, scales = factor.fixed_point_system()
        det, adj = adjugate(mat)
        if det == 0:
            raise SingularLinearPartError(
                f"factor {i} has det(E - M) = 0: fixed point set not isolated"
            )
        # t = adj (offset + scales * alpha) / det; work mod 1 with the one
        # denominator m = |det|, so points are int tuples until the end
        sign, m = (det > 0) - (det < 0), abs(det)
        corner = [offset[r] - scales[r] * box_bound for r in range(q)]
        base0 = tuple(
            (sign * sum(x * y for x, y in zip(row, corner))) % m for row in adj
        )
        cols = [
            tuple(sign * adj[r][d] * scales[d] % m for r in range(q)) for d in range(q)
        ]
        local = set()

        def walk(d, base):
            if d == q:
                local.add(base)
                return
            current = base
            col = cols[d]
            for step in range(2 * box_bound + 1):
                walk(d + 1, current)
                if step < 2 * box_bound:
                    current = tuple((x + y) % m for x, y in zip(current, col))

        walk(0, base0)
        points.update(tuple(Fraction(x, m) for x in scaled) for scaled in local)
    return sorted(points)
