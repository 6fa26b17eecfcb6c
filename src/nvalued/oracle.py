"""Independent brute-force verification of the Reidemeister engine.

The oracle certifies engine output on small instances without using any
of the engine's lattice machinery.  Its only shared vocabulary is psi
itself (evaluated pointwise) and the equivalence criterion

    (beta, j) ~ (gamma + beta + phi_j(-gamma), sigma_gamma(j))

which it applies by union-find over the finite window

    { (alpha, i) : alpha in [-B, B]^q, i in 1..n },

merging along every gamma in [-G, G]^q whenever the target stays inside
the window.  Every step runs on numpy arrays over a whole box: psi is
tabulated over the word box by composing per-generator power tables, a
single move translates a whole grid sheet, so per (gamma, j) the overlap
of the box with its translate is merged by union-find rounds on whole
arrays (find by pointer jumping, then hook each larger root under the
smaller), and the check labels every cell of a sheet with one int64 pass
of the oracle's own coset reduction against the engine's image lattice.
Moves reach the pruning already ordered by one ``lexsort``.  The fixed
points of :func:`brute_fixed_points` are the distinct residues of the box
mod |det(E - M_i)|, grown one axis at a time rather than cell by cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fixedpoints import InfiniteClassesError, SingularLinearPartError
from .intlinalg import adjugate, is_infinite
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


def _compose(a, b):
    """Products a * b of semidirect elements held as arrays.

    An element is ``(trans, perm, inv)``: ``trans[..., i, :]`` is the
    translation of sheet i, ``perm[..., i]`` the 0-based image of sheet i
    and ``inv`` the inverse permutation; leading axes broadcast.  As in
    :class:`SemidirectElement`, (a; s)(b; t) = (a_i + b_{s^-1(i)}; s t).
    """
    import numpy as np

    a_trans, a_perm, a_inv = a
    b_trans, b_perm, b_inv = b
    trans = a_trans + np.take_along_axis(b_trans, a_inv[..., None], axis=-2)
    perm = np.take_along_axis(a_perm, b_perm, axis=-1)
    inv = np.take_along_axis(b_inv, a_inv, axis=-1)
    return trans, perm, inv


def _moves(data: PsiData, bound: int, limit: int):
    """Distinct window moves (v, j, i) of the gammas in [-bound, bound]^q.

    psi(gamma) = prod_k psi(e_k)^gamma_k is built for the whole word box
    at once: a table of the 2*bound + 1 powers of each generator, composed
    axis by axis.  Only the lex-positive half is kept (the -gamma moves
    are the same edges reversed).  With psi(gamma) = (alpha; sigma), the
    inverse formula gives phi_j(-gamma) = -alpha_{sigma(j)}, so the move
    of (gamma, j) is the translation v = gamma - alpha_{sigma(j)} onto
    sheet i = sigma(j).  Identity moves and moves with a coordinate
    beyond ``limit`` are dropped; distinct gammas often give one move.
    The distinct moves come back ordered by (L1 norm of v, v, j, i).
    Raises :class:`OverflowError` if a translation over the word box
    could leave the int64 range.
    """
    import numpy as np

    n, q = data.n, data.q
    step = max(abs(c) for g in data.generator_images for t in g.translations for c in t)
    if bound * (1 + q * step) > np.iinfo(np.int64).max:
        raise OverflowError("psi over the word box would leave the int64 range")
    side = 2 * bound + 1
    sheets = np.arange(n)
    identity = (np.zeros((n, q), dtype=np.int64), sheets, sheets)
    acc = tuple(x[None] for x in identity)
    for g in data.generator_images:
        trans = np.array(g.translations, dtype=np.int64).reshape(n, q)
        perm = np.array(g.perm.images, dtype=np.int64) - 1
        inv = np.argsort(perm)
        gen = (trans, perm, inv)
        gen_inv = (-trans[perm], inv, perm)
        powers = [identity]  # exponents -k .. k after k rounds
        for _ in range(bound):
            powers = [_compose(powers[0], gen_inv), *powers, _compose(powers[-1], gen)]
        table = tuple(np.stack(parts) for parts in zip(*powers))
        acc = _compose(
            tuple(x[:, None] for x in acc), tuple(x[None] for x in table)
        )
        acc = tuple(x.reshape((-1,) + x.shape[2:]) for x in acc)

    half = side**q // 2  # flat index of gamma = 0 in the lex-ordered box
    trans, perm = acc[0][half + 1 :], acc[1][half + 1 :]
    gamma = np.indices((side,) * q).reshape(q, -1).T[half + 1 :] - bound
    v = gamma[:, None, :] - np.take_along_axis(trans, perm[..., None], axis=1)
    j = np.broadcast_to(sheets, perm.shape)
    keep = (np.abs(v) <= limit).all(axis=-1) & ((perm != j) | v.any(axis=-1))
    rows = np.concatenate([v[keep], j[keep][:, None] + 1, perm[keep][:, None] + 1], axis=1)
    _, first = np.unique(_row_ids(rows), return_index=True)
    rows = rows[first]
    # lexsort's last key is the primary one
    order = np.lexsort((*rows.T[::-1], np.abs(rows[:, :q]).sum(axis=1)))
    return [(tuple(r[:q]), r[q], r[q + 1]) for r in rows[order].tolist()]


def _row_ids(rows):
    """Dense ids of the rows of a 2-D int array: equal rows, equal ids.

    Built one column at a time from 1-D uniques, which sort far faster
    than numpy's row-wise unique.  Ids stay below len(rows), so pairing
    them with the next column's ids cannot overflow int64.
    """
    import numpy as np

    ids = np.zeros(len(rows), dtype=np.int64)
    for col in rows.T:
        _, col_ids = np.unique(col, return_inverse=True)
        _, ids = np.unique(ids * (col_ids.max(initial=0) + 1) + col_ids, return_inverse=True)
    return ids


def _prune_moves(moves):
    """Drop moves whose every window edge factors through kept moves.

    A move (v, j, i) translates cell (beta, j) to (beta + v, i).  If
    v = u + w with a kept within-sheet move (u, j, j) sign-compatible
    with v (each u_d lies between 0 and v_d) and (w, j, i) also a move,
    the intermediate cell beta + u is sandwiched between the endpoints
    and hence inside the window, so the edge is implied.  Symmetrically
    via a within-sheet suffix (u, i, i).  Pruning preserves the
    generated partition exactly; by induction on the L1 norm the dropped
    move's witness pair is itself implied.

    ``moves`` must be distinct and ordered by (L1 norm of v, v, j, i),
    as :func:`_moves` returns them: the induction needs every witness
    scanned before the moves it implies.
    """
    scan_cap = 64  # pruning is optional, so capping the witness scan is sound
    move_set = set(moves)
    kept = []
    kept_within = {}
    for v, j, i in moves:
        implied = False
        for u in kept_within.get(j, ())[:scan_cap]:
            for a, b in zip(u, v):
                if not (0 <= a <= b or b <= a <= 0):
                    break
            else:
                w = tuple(a - b for a, b in zip(v, u))
                if (w, j, i) in move_set and (any(w) or j != i):
                    implied = True
                    break
        if not implied and i != j:
            for u in kept_within.get(i, ())[:scan_cap]:
                for a, b in zip(u, v):
                    if not (0 <= a <= b or b <= a <= 0):
                        break
                else:
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


def _find(parent, idx):
    """Roots of the cells ``idx``, compressing their paths on the way."""
    roots = parent[idx]
    while True:
        nxt = parent[roots]
        if (nxt == roots).all():
            return roots
        parent[idx] = nxt
        roots = nxt


def _union(parent, a, b):
    """Merge the class of cell a[k] with the class of b[k], for every k.

    Most moves merge nothing, and most of those already have equal
    parents on every pair, which one compare shows: equal parents are
    equal roots.  Otherwise each round hooks the larger root of every
    unmerged pair under the smaller one; ``minimum.at`` keeps the smallest
    bid where several pairs share a root.  Parents only ever point to
    smaller cells, so each root is its class's smallest cell.
    """
    import numpy as np

    if (parent[a] == parent[b]).all():
        return
    while True:
        ra, rb = _find(parent, a), _find(parent, b)
        differ = ra != rb
        if not differ.any():
            return
        a, b = ra[differ], rb[differ]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))


def brute_classes(data: PsiData, cfg: OracleConfig):
    """Partition of the window { (alpha, i) } under lift-factor equivalence.

    Returns an int64 array of shape (n, 2B+1, ..., 2B+1) whose entry
    ``[i - 1][alpha + B]`` is the class id of the cell (alpha, i).  Ids
    run over 0..k-1 in the order of each class's first cell in the
    array (sheet-major, then alpha in lex order).
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
    parent = np.arange(n * box, dtype=np.int64)
    grid = np.arange(box, dtype=np.int64).reshape([side] * q)

    for v, j, i in _prune_moves(_moves(data, G, 2 * B)):
        # the part of the box that v keeps inside it, and its translate
        src = grid[tuple(slice(max(0, -c), min(side, side - c)) for c in v)]
        dst = grid[tuple(slice(max(0, c), min(side, side + c)) for c in v)]
        _union(parent, src.ravel() + (j - 1) * box, dst.ravel() + (i - 1) * box)

    # each root is its class's smallest, hence first, cell
    _, ids = np.unique(_find(parent, np.arange(n * box)), return_inverse=True)
    return ids.reshape((n,) + (side,) * q)


def _reduce_box(basis, shift, bound: int):
    """Coset representatives of alpha + shift + L for alpha in [-B, B]^q.

    The oracle's own reduction, one int64 pass over the lex-ordered box:
    for each row of the row-HNF basis of L in order, floor-divide the
    row's pivot coordinate by the pivot and subtract that multiple of the
    row.  This greedy rule is a complete coset invariant for any rank.
    Exact integer bounds on every intermediate are checked first, and
    :class:`OverflowError` is raised if one could leave the int64 range.
    """
    import numpy as np

    q = len(shift)
    extent = [bound + abs(s) for s in shift]
    peak = max(extent)
    pivots = []
    for row in basis:
        p = next(k for k, x in enumerate(row) if x)
        steps = extent[p] // abs(row[p]) + 1
        extent = [e + steps * abs(x) for e, x in zip(extent, row)]
        peak = max(peak, *extent)
        extent[p] = abs(row[p]) - 1
        pivots.append(p)
    if peak > np.iinfo(np.int64).max:
        raise OverflowError("coset reduction would leave the int64 range")
    side = 2 * bound + 1
    w = np.indices((side,) * q).reshape(q, -1).T - bound + np.array(shift, dtype=np.int64)
    for p, row in zip(pivots, basis):
        w -= (w[:, p] // row[p])[:, None] * np.array(row, dtype=np.int64)
    return w


def _coverage_bound(report: ReidemeisterReport) -> int:
    """Smallest box bound that provably covers every engine class.

    Every entry of a full-rank row HNF lies in [0, d_max), d_max the
    largest diagonal entry over all image lattices.  So the engine's
    representatives, the points of the fundamental boxes [0, d), stay
    within d_max - 1, and one step along a basis row within 2 d_max - 1.
    """
    d_max = max(
        row[k] for block in report.blocks for k, row in enumerate(block.image_lattice.basis)
    )
    return 2 * d_max - 1


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
    import numpy as np

    data = report.psi
    ids = brute_classes(data, cfg).reshape(data.n, -1)

    # label each cell (alpha, i) by (representative, reduced alpha - t +
    # phi_i(t)), transporting it along the transversal vector t of i
    sheets = {}
    for block in report.blocks:
        rep_idx = block.sigma_class.representative
        for j, t in block.sigma_class.transversal:
            phi_t = psi_of(data, t).translations[j - 1]
            shift = [c - a for a, c in zip(t, phi_t)]
            reduced = _reduce_box(block.image_lattice.basis, shift, cfg.box_bound)
            sheets[j] = np.column_stack([np.full(len(reduced), rep_idx), reduced])
    labels = np.concatenate([sheets[j] for j in range(1, data.n + 1)])
    roots = ids.ravel()
    n_classes = int(roots.max()) + 1
    n_labels = int(_row_ids(labels).max()) + 1
    n_pairs = int(_row_ids(np.column_stack([labels, roots])).max()) + 1
    # a label in two sweep classes: engine-equivalent cells left unmerged;
    # a sweep class with two labels: engine-inequivalent cells merged
    if not n_pairs == n_classes == n_labels:
        return False
    if cfg.box_bound >= _coverage_bound(report):
        if n_classes != report.total:
            return False
    return True


def brute_fixed_points(sys: LiftSystem, box_bound: int):
    """All torus fixed points, found factor by factor over the window.

    Solves (E - M_i) t = c_i + alpha exactly for every factor i and every
    alpha in [-B, B]^q, reduces mod 1, and deduplicates.  Raises
    :class:`SingularLinearPartError` if any factor is degenerate.

    With m = |det(D E - D M_i)| over the system's denominator D, the
    residues m t mod m over the box are base + sum_d k_d col_d for k in
    [0, 2B]^q, one integer column per unit step of alpha.  That set is
    grown one axis at a time, stepping each distinct residue 2B times
    along the axis, so the work scales with the distinct residues, never
    beyond the (2B+1)^q box cells; ``Fraction``s are built only at the end.
    """
    q, den = sys.q, sys.factors[0].den
    points = set()
    for i, factor in enumerate(sys.factors, start=1):
        mat, offset = factor.fixed_point_system()
        det, adj = adjugate(mat)
        if det == 0:
            raise SingularLinearPartError(
                f"factor {i} has det(E - M) = 0: fixed point set not isolated"
            )
        # t = adj (offset + D alpha) / det; work mod 1 with the one
        # denominator m = |det|, so points are int tuples until the end
        sign, m = (det > 0) - (det < 0), abs(det)
        corner = [x - den * box_bound for x in offset]
        residues = {
            tuple((sign * sum(x * y for x, y in zip(row, corner))) % m for row in adj)
        }
        for d in range(q):
            col = [sign * den * row[d] % m for row in adj]
            grown = set()
            for current in residues:
                grown.add(current)
                for _ in range(2 * box_bound):
                    current = tuple((x + y) % m for x, y in zip(current, col))
                    grown.add(current)
            residues = grown
        points.update(tuple(Fraction(x, m) for x in scaled) for scaled in residues)
    return sorted(points)
