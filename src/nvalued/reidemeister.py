"""Reidemeister number of an n-valued torus map from its lift system.

The computation follows the orbit/stabilizer decomposition of the factor
indices {1..n}:

1.  The generator permutations of psi generate a subgroup of Sigma_n whose
    orbits partition {1..n} into sigma-classes.
2.  Write psi(z) = (a(z); sigma_z).  For a class representative i, one
    labelled BFS over the class with moves +-e_k finds a transversal t_j
    (sigma_{t_j}(i) = j) together with the label lambda_j = a(t_j)_j.
    The labels are plain vector sums along the BFS edges:

        +e_k edge j -> sigma_k(j):      lambda = lambda_j + a(e_k)_{sigma_k(j)}
        -e_k edge j -> sigma_k^-1(j):   lambda = lambda_j - a(e_k)_j

3.  The stabilizer S_i = { z in Z^q : sigma_z(i) = i } is generated by
    the Schreier generators s = t_j + e_k - t_j' (j' = sigma_k(j)), and
    phi_i(s) = a(s)_i = lambda_j + a(e_k)_j' - lambda_j'.  phi_i is linear
    on S_i, so the HNF of the rows (s, s - phi_i(s)) in Z^{2q} has exactly
    q rows (h, h - phi_i(h)), one per row h of the canonical basis of
    S_i.  Twisted conjugacy collapses to cosets of the image lattice
    L_i = (id - phi_i)(S_i), spanned by the second halves: lift-factors
    (a, i) and (b, i) are equivalent iff a - b lies in L_i.
4.  R(f) is the sum over sigma-class representatives of [Z^q : L_i],
    infinity included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .intlinalg import (
    INFINITE,
    Sublattice,
    coset_representatives,
    is_infinite,
    lattice_from_generators,
    lattice_index,
    vec_add,
    vec_sub,
)
from .liftsystems import PsiData


@dataclass(frozen=True)
class SigmaClass:
    """One orbit of factor indices, with its stabilizer data.

    ``transversal[j]`` is an integer vector t of minimal word length
    (ties broken lexicographically) with sigma_t(representative) = j;
    ``labels`` holds a(t)_j for the same pairs, in the same order.
    """

    members: tuple
    representative: int
    stabilizer: Sublattice
    transversal: tuple  # pairs (j, vector), sorted by j
    labels: tuple  # a(t_j)_j, aligned with ``transversal``
    image_lattice: Sublattice  # (id - phi_i)(S_i)


@dataclass(frozen=True)
class SigmaClassReport:
    classes: tuple  # SigmaClass


@dataclass(frozen=True)
class ClassBlock:
    """Reidemeister data attached to one sigma-class."""

    sigma_class: SigmaClass
    count: object  # int or INFINITE

    @property
    def image_lattice(self) -> Sublattice:
        return self.sigma_class.image_lattice

    @cached_property
    def representatives(self) -> tuple:
        """Pairs (alpha, i), one per class, listed on first use; empty
        when the count is infinite."""
        if is_infinite(self.count):
            return ()
        rep = self.sigma_class.representative
        return tuple((alpha, rep) for alpha in coset_representatives(self.image_lattice))


@dataclass(frozen=True)
class ReidemeisterReport:
    psi: PsiData
    sigma: SigmaClassReport
    blocks: tuple
    total: object  # int or INFINITE


def _orbit_transversal(data: PsiData, start: int):
    """Layered BFS over {1..n} with moves +-e_k, labelled by psi.

    Returns ``{j: (t, lam)}`` with sigma_t(start) = j and lam = a(t)_j.
    Since sigma_t depends only on the vector t, minimal words never
    cancel, so BFS over accumulated vectors yields words of minimal L1
    length; within a layer the lexicographically smallest vector per
    state is kept.
    """
    q = data.q
    shifts = [img.translations for img in data.generator_images]
    perms = [img.perm for img in data.generator_images]
    inv_perms = [p.inverse() for p in perms]
    zero = tuple([0] * q)
    best = {start: (zero, zero)}
    layer = dict(best)
    while layer:
        candidates = []
        for j, (word, lam) in layer.items():
            for k in range(q):
                for perm, step in ((perms[k], 1), (inv_perms[k], -1)):
                    target = perm(j)
                    if target in best:
                        continue
                    cand = tuple(word[c] + (step if c == k else 0) for c in range(q))
                    # psi(t +- e_k) = psi(e_k)^(+-1) psi(t), read at index target
                    if step == 1:
                        label = vec_add(lam, shifts[k][target - 1])
                    else:
                        label = vec_sub(lam, shifts[k][j - 1])
                    candidates.append((cand, target, label))
        layer = {}
        for cand, target, label in sorted(candidates):
            if target not in best:
                best[target] = layer[target] = (cand, label)
    return best


def sigma_classes(data: PsiData) -> SigmaClassReport:
    """Orbit decomposition of {1..n}; for each class, the stabilizer and
    the image lattice from one HNF of the labelled Schreier generators."""
    n, q = data.n, data.q
    shifts = [img.translations for img in data.generator_images]
    perms = [img.perm for img in data.generator_images]
    e = [tuple(int(c == k) for c in range(q)) for k in range(q)]
    unassigned = set(range(1, n + 1))
    classes = []
    while unassigned:
        rep = min(unassigned)
        labelled = _orbit_transversal(data, rep)
        members = tuple(sorted(labelled))
        unassigned -= set(members)
        rows = []
        for j in members:
            t, lam = labelled[j]
            for k in range(q):
                j2 = perms[k](j)
                t2, lam2 = labelled[j2]
                gen = vec_sub(vec_add(t, e[k]), t2)
                phi_gen = vec_sub(vec_add(lam, shifts[k][j2 - 1]), lam2)
                rows.append(gen + vec_sub(gen, phi_gen))
        graph = lattice_from_generators(rows, 2 * q)
        if graph.rank != q:
            raise AssertionError(
                f"phi_{rep} is not well defined on its stabilizer: rank {graph.rank} != {q}"
            )
        classes.append(
            SigmaClass(
                members=members,
                representative=rep,
                stabilizer=Sublattice(q, tuple(row[:q] for row in graph.basis)),
                transversal=tuple((j, labelled[j][0]) for j in members),
                labels=tuple(labelled[j][1] for j in members),
                image_lattice=lattice_from_generators([row[q:] for row in graph.basis], q),
            )
        )
    return SigmaClassReport(classes=tuple(classes))


def reidemeister_number(sys_or_data) -> ReidemeisterReport:
    """Full Reidemeister report of a lift system (or pre-validated PsiData)."""
    data = sys_or_data if isinstance(sys_or_data, PsiData) else sys_or_data.psi
    sigma = sigma_classes(data)
    blocks = tuple(
        ClassBlock(sigma_class=cls, count=lattice_index(cls.image_lattice))
        for cls in sigma.classes
    )
    counts = [block.count for block in blocks]
    # INFINITE is a float: adding an int above float range to it overflows
    total = INFINITE if INFINITE in counts else sum(counts)
    return ReidemeisterReport(psi=data, sigma=sigma, blocks=blocks, total=total)

