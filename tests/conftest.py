"""Shared construction helpers for the test suite."""

import random
from fractions import Fraction

import pytest

from nvalued.intlinalg import coset_reduce, vec_add, vec_sub
from nvalued.liftsystems import lift_system, make_circle, make_linear, make_split
from nvalued.semidirect import Permutation


def torus3_system():
    """The 3-valued map of T^2 with factors (t/2, -s), ((t+1)/2, -s),
    (-t, -s + 1/2); the running worked example."""
    return lift_system(
        [
            ([[Fraction(1, 2), 0], [0, -1]], [0, 0]),
            ([[Fraction(1, 2), 0], [0, -1]], [Fraction(1, 2), 0]),
            ([[-1, 0], [0, -1]], [0, Fraction(1, 2)]),
        ]
    )


def random_congruent_matrix(rng: random.Random, n: int, q: int):
    """Random integer q x q matrix, entries in [-5, 5], rows congruent mod n."""
    while True:
        first = [rng.randint(-5, 5) for _ in range(q)]
        rows = [first]
        ok = True
        for _ in range(q - 1):
            row = []
            for c in range(q):
                choices = [
                    first[c] + n * k
                    for k in range(-10, 11)
                    if -5 <= first[c] + n * k <= 5
                ]
                if not choices:
                    ok = False
                    break
                row.append(rng.choice(choices))
            if not ok:
                break
            rows.append(row)
        if ok:
            return rows


def random_linear_system(rng: random.Random, nonzero_nielsen=True):
    """Random valid linear n-valued torus map (n <= 4, q <= 3)."""
    from nvalued.fixedpoints import nielsen_linear_formula

    while True:
        n = rng.randint(1, 4)
        q = rng.randint(1, 3)
        rows = random_congruent_matrix(rng, n, q)
        value = nielsen_linear_formula(n, rows)
        if value != 0 or not nonzero_nielsen:
            return n, rows, value


def random_split_system(rng: random.Random):
    """Random valid split system: shared linear part, distinct offsets.

    Branches of a split map may never meet mod Z^q, which for affine
    branches forces the pairwise linear-part differences to be singular;
    a shared matrix with offsets differing by a non-integer coordinate is
    the generic such family.
    """
    while True:
        q = rng.randint(1, 2)
        n = rng.randint(1, 3)
        a = [[rng.randint(-2, 2) for _ in range(q)] for _ in range(q)]
        det_ok = True
        from nvalued.intlinalg import rational_det, frac_identity

        e_minus = [
            [frac_identity(q)[r][c] - a[r][c] for c in range(q)] for r in range(q)
        ]
        if rational_det(e_minus) == 0:
            continue
        denom = rng.choice([2, 3, 4])
        offsets = rng.sample(range(denom), min(n, denom))
        if len(offsets) < n:
            continue
        parts = [
            (a, [Fraction(off, denom)] + [Fraction(0)] * (q - 1)) for off in offsets
        ]
        return parts


def random_system(rng: random.Random):
    """A random valid lift system drawn from the constructor families."""
    kind = rng.choice(["linear", "circle", "split", "torus3"])
    if kind == "torus3":
        return torus3_system()
    if kind == "circle":
        n = rng.randint(1, 5)
        d = rng.randint(-6, 6)
        return make_circle(n, d)
    if kind == "split":
        return make_split(random_split_system(rng))
    n, rows, _ = random_linear_system(rng, nonzero_nielsen=False)
    return make_linear(n, rows)


def shifted_system(sys):
    """``sys`` with every offset moved by the same c = (1/5, 1/7, 1/11)[:q].

    A common shift keeps every offset difference, so the map stays valid
    (or fails validation the same way) and psi is unchanged; it mixes
    denominators 5, 7 and 11 into the system's own.
    """
    c = (Fraction(1, 5), Fraction(1, 7), Fraction(1, 11))[: sys.q]
    return lift_system(
        [(f.linear, [x + y for x, y in zip(f.offset, c)]) for f in sys.factors]
    )


def class_label(report, alpha, i: int):
    """Canonical label of the lift-factor (alpha, i) under ``report``.

    Transports (alpha, i) to the representative r of its sigma-class using
    the recorded transversal (gamma = -t with sigma_t(r) = i turns (alpha, i)
    into (alpha - t + a(t)_i, r), a(t)_i being the stored label), then
    reduces modulo the image lattice.  Two lift-factors are equivalent iff
    their labels are equal.
    """
    for block in report.blocks:
        cls = block.sigma_class
        if i in cls.members:
            pos = cls.members.index(i)
            t = cls.transversal[pos][1]
            moved = vec_add(vec_sub(tuple(alpha), t), cls.labels[pos])
            return (coset_reduce(block.image_lattice, moved), cls.representative)
    raise ValueError(f"index {i} out of range")


def closure(generators, n: int):
    """The subgroup of Sigma_n generated by ``generators`` (BFS)."""
    group = {Permutation.identity(n)}
    frontier = group
    while frontier:
        frontier = {g.compose(p) for p in frontier for g in generators} - group
        group |= frontier
    return frozenset(group)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
