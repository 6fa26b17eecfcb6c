"""Reidemeister number of an n-valued torus map from its lift system.

The computation follows the orbit/stabilizer decomposition of the factor
indices {1..n}:

1.  The generator permutations of psi generate a subgroup of Sigma_n whose
    orbits partition {1..n} into sigma-classes.
2.  For a class representative i, the stabilizer
    S_i = { z in Z^q : sigma_z(i) = i } is a finite-index sublattice,
    produced from Schreier generators over a BFS transversal.
3.  phi_i restricted to S_i is a homomorphism Z-linear on the basis, so
    twisted conjugacy collapses to cosets of the image lattice
    L_i = (id - phi_i)(S_i): lift-factors (a, i) and (b, i) are
    equivalent iff a - b lies in L_i.
4.  R(f) is the sum over sigma-class representatives of [Z^q : L_i],
    infinity included.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intlinalg import (
    Sublattice,
    coset_reduce,
    coset_representatives,
    is_infinite,
    lattice_from_generators,
    lattice_index,
    vec_add,
    vec_sub,
)
from .liftsystems import PsiData, psi_of


class NotInStabilizerError(ValueError):
    """A vector handed to phi_i does not stabilize the index i."""


@dataclass(frozen=True)
class SigmaClass:
    """One orbit of factor indices, with its stabilizer data.

    ``transversal[j]`` is an integer vector z of minimal word length
    (ties broken lexicographically) with sigma_z(representative) = j.
    """

    members: tuple
    representative: int
    stabilizer: Sublattice
    transversal: tuple  # pairs (j, vector), sorted by j

    def transversal_to(self, j):
        for member, vec in self.transversal:
            if member == j:
                return vec
        raise KeyError(j)


@dataclass(frozen=True)
class SigmaClassReport:
    classes: tuple  # SigmaClass


@dataclass(frozen=True)
class ClassBlock:
    """Reidemeister data attached to one sigma-class."""

    sigma_class: SigmaClass
    image_lattice: Sublattice
    count: object  # int or INFINITE
    representatives: tuple  # pairs (alpha, i); empty when count is infinite


@dataclass(frozen=True)
class ReidemeisterReport:
    psi: PsiData
    sigma: SigmaClassReport
    blocks: tuple
    total: object  # int or INFINITE

    @property
    def representatives(self):
        out = []
        for block in self.blocks:
            out.extend(block.representatives)
        return out


def _orbit_transversal(data: PsiData, start: int):
    """Layered BFS over {1..n} with moves +-e_k.

    Returns ``{j: z}`` with sigma_z(start) = j.  Since sigma_z depends only
    on the vector z, minimal words never cancel, so BFS over accumulated
    vectors yields words of minimal L1 length; within a layer the
    lexicographically smallest vector per state is kept.
    """
    q = data.q
    perms = [img.perm for img in data.generator_images]
    inv_perms = [p.inverse() for p in perms]
    zero = tuple([0] * q)
    best = {start: zero}
    layer = {start: zero}
    while layer:
        candidates = []
        for j, word in layer.items():
            for k in range(q):
                for perm, step in ((perms[k], 1), (inv_perms[k], -1)):
                    target = perm(j)
                    if target in best:
                        continue
                    cand = tuple(word[c] + (step if c == k else 0) for c in range(q))
                    candidates.append((cand, target))
        layer = {}
        for cand, target in sorted(candidates):
            if target not in best:
                best[target] = cand
                layer[target] = cand
    return best


def sigma_classes(data: PsiData) -> SigmaClassReport:
    """Orbit decomposition of {1..n} with Schreier-generator stabilizers."""
    n, q = data.n, data.q
    perms = [img.perm for img in data.generator_images]
    unassigned = set(range(1, n + 1))
    classes = []
    while unassigned:
        rep = min(unassigned)
        transversal = _orbit_transversal(data, rep)
        members = tuple(sorted(transversal))
        unassigned -= set(members)
        e = [tuple(int(c == k) for c in range(q)) for k in range(q)]
        schreier = []
        for j in members:
            for k in range(q):
                j2 = perms[k](j)
                gen = vec_sub(vec_add(transversal[j], e[k]), transversal[j2])
                schreier.append(gen)
        stabilizer = lattice_from_generators(schreier, q)
        classes.append(
            SigmaClass(
                members=members,
                representative=rep,
                stabilizer=stabilizer,
                transversal=tuple(sorted(transversal.items())),
            )
        )
    return SigmaClassReport(classes=tuple(classes))


def phi_restricted(data: PsiData, i: int, stabilizer: Sublattice):
    """Images of the stabilizer basis under phi_i (a homomorphism there)."""
    images = []
    for g in stabilizer.basis:
        psi_g = psi_of(data, g)
        if psi_g.perm(i) != i:
            raise NotInStabilizerError(
                f"basis vector {list(g)} does not stabilize index {i}"
            )
        images.append(psi_g.translations[i - 1])
    return tuple(images)


def _image_lattice(data: PsiData, sigma_class: SigmaClass) -> Sublattice:
    i = sigma_class.representative
    phis = phi_restricted(data, i, sigma_class.stabilizer)
    gens = [vec_sub(g, phi_g) for g, phi_g in zip(sigma_class.stabilizer.basis, phis)]
    return lattice_from_generators(gens, data.q)


def class_count(data: PsiData, i: int):
    """Number of twisted-conjugacy classes attached to representative i."""
    report = sigma_classes(data)
    for cls in report.classes:
        if cls.representative == i:
            return lattice_index(_image_lattice(data, cls))
    raise ValueError(f"index {i} is not a sigma-class representative")


def reidemeister_number(sys_or_data) -> ReidemeisterReport:
    """Full Reidemeister report of a lift system (or pre-validated PsiData)."""
    data = sys_or_data if isinstance(sys_or_data, PsiData) else sys_or_data.psi
    sigma = sigma_classes(data)
    blocks = []
    total = 0
    for cls in sigma.classes:
        lat = _image_lattice(data, cls)
        count = lattice_index(lat)
        if is_infinite(count):
            reps = ()
        else:
            reps = tuple((alpha, cls.representative) for alpha in coset_representatives(lat))
        blocks.append(
            ClassBlock(
                sigma_class=cls,
                image_lattice=lat,
                count=count,
                representatives=reps,
            )
        )
        total = total + count
    return ReidemeisterReport(psi=data, sigma=sigma, blocks=tuple(blocks), total=total)


def class_label(report: ReidemeisterReport, alpha, i: int):
    """Canonical label of the lift-factor (alpha, i).

    Transports (alpha, i) to the representative r of its sigma-class using
    the recorded transversal (gamma = -t with sigma_t(r) = i turns (alpha, i)
    into (alpha - t + phi_i(t), r)), then reduces modulo the image lattice.
    Two lift-factors are equivalent iff their labels are equal.
    """
    data = report.psi
    for block in report.blocks:
        cls = block.sigma_class
        if i in cls.members:
            t = cls.transversal_to(i)
            phi_t = psi_of(data, t).translations[i - 1]
            moved = vec_add(vec_sub(tuple(alpha), t), phi_t)
            return (coset_reduce(block.image_lattice, moved), cls.representative)
    raise ValueError(f"index {i} out of range")
