"""Shared construction helpers for the test suite."""

import random
from fractions import Fraction

import pytest

from nvalued.intlinalg import (
    coset_reduce,
    frac_identity,
    hermite_normal_form,
    mat_mul,
    vec_add,
    vec_sub,
)
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


EPSILONS = (-2, -1, 2, 3)
OFFSETS = (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))


def _stacked_factors(rng: random.Random, q: int):
    """1-3 circle blocks (d t + j) / n on the first axis, each times
    s |-> eps s + c on every other axis.  A middle axis draws its own eps
    and c per block; the last axis shares eps and gives each block its own
    c, so factors of different blocks never meet.  d = n makes a singular
    block."""
    blocks = rng.randint(1, 3)
    eps = rng.choice(EPSILONS)
    den = rng.randint(max(blocks, 2), 4)
    factors = []
    for sep in rng.sample(range(den), blocks):
        n = rng.randint(1, 3)
        d = n if rng.random() < 0.25 else rng.randint(-3, 4)
        mids = [(rng.choice(EPSILONS), rng.choice(OFFSETS)) for _ in range(q - 2)]
        diag = [Fraction(d, n), *(e for e, _ in mids), eps]
        linear = [[diag[r] if r == c else Fraction(0) for c in range(q)] for r in range(q)]
        for j in range(n):
            offset = [Fraction(j, n), *(c for _, c in mids), Fraction(sep, den)]
            factors.append((linear, offset))
    return factors


def _split_style_factors(rng: random.Random, q: int):
    """2-3 single-valued integer branches that share their first row and
    keep distinct first offsets mod 1, so they never meet; a branch whose
    row k >= 2 is e_k is singular."""
    count = rng.randint(2, 3)
    first = [rng.randint(-2, 2) for _ in range(q)]
    den = rng.randint(count, 4)
    factors = []
    for sep in rng.sample(range(den), count):
        rows = [first] + [[rng.randint(-2, 2) for _ in range(q)] for _ in range(q - 1)]
        if rng.random() < 0.3:
            k = rng.randint(1, q - 1)
            rows[k] = [int(c == k) for c in range(q)]
        linear = [[Fraction(x) for x in row] for row in rows]
        offset = [Fraction(sep, den), *(rng.choice(OFFSETS) for _ in range(q - 1))]
        factors.append((linear, offset))
    return factors


def random_outside_family_factors(rng: random.Random):
    """(linear, offset) pairs of a random valid map of T^2 or T^3 outside
    the four constructor families: a stack of circle blocks or a
    split-style map whose branches share a row (see the two helpers).

    The factors are shuffled and conjugated by a random unimodular P
    (t |-> P t is a torus automorphism, so the map stays valid and each
    det(E - M) is kept), and every offset is moved by an integer vector.
    """
    q = rng.randint(2, 3)
    make = rng.choice([_stacked_factors, _split_style_factors])
    factors = make(rng, q)
    rng.shuffle(factors)
    p, p_inv = frac_identity(q), frac_identity(q)
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(range(q), 2)
        k = rng.choice([-1, 1, 2])
        # P <- (E + k e_a e_b^T) P, so P^-1 <- P^-1 (E - k e_a e_b^T)
        p[a] = [x + k * y for x, y in zip(p[a], p[b])]
        for row in p_inv:
            row[b] -= k * row[a]
    conjugated = []
    for linear, offset in factors:
        m = mat_mul(mat_mul(p, linear), p_inv)
        c = [sum(x * y for x, y in zip(row, offset)) + rng.randint(-2, 2) for row in p]
        conjugated.append((m, c))
    return conjugated


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


def hnf_with_transform(m):
    """``(H, U)`` with H the row HNF of the integer matrix M, U unimodular
    and ``U @ M = H``.

    Both are blocks of the HNF of the augmented matrix [M | E]: its row
    operations turn E into U.  Once the elimination moves into the E
    columns, it only adds, swaps and negates rows whose M block is already
    zero, so the left block is the HNF of M alone.
    """
    cols = len(m[0])
    aug = hermite_normal_form(
        [[*row, *(int(i == j) for j in range(len(m)))] for i, row in enumerate(m)]
    )
    return [row[:cols] for row in aug], [row[cols:] for row in aug]


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
