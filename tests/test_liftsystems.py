"""Lift-system validation, psi derivation, and the map constructors."""

import random
from fractions import Fraction

import pytest

from nvalued.intlinalg import rational_det
from nvalued.liftsystems import (
    AmbiguousLiftError,
    CollisionError,
    NotCommutingError,
    NotEquivariantError,
    PsiData,
    RowsNotCongruentError,
    _images_collide,
    lift_system,
    make_circle,
    make_linear,
    make_split,
    psi_of,
    validate,
)
from nvalued.semidirect import DimensionMismatchError, Permutation, SemidirectElement

from conftest import (
    random_congruent_matrix,
    random_linear_system,
    random_system,
    shifted_system,
    torus3_system,
)


def apply_factor(factor, t):
    """The image M t + c of the point ``t`` (Fractions) under ``factor``."""
    return tuple(
        sum((m * x for m, x in zip(row, t)), Fraction(0)) + c
        for row, c in zip(factor.linear, factor.offset)
    )


class TestValidateTorus3:
    def test_generator_images(self):
        data = validate(torus3_system())
        e1, e2 = data.generator_images
        # psi(e1): the odd-z1 column of the deck table
        assert e1.translations == ((0, 0), (1, 0), (-1, 0))
        assert e1.perm == Permutation((2, 1, 3))
        # psi(e2): translations (0,-1) everywhere, trivial permutation
        assert e2.translations == ((0, -1), (0, -1), (0, -1))
        assert e2.perm.is_identity()

    def test_psi_of_even_vector(self):
        data = validate(torus3_system())
        el = psi_of(data, (2, 0))
        assert el.translations == ((1, 0), (1, 0), (-2, 0))
        assert el.perm.is_identity()

    def test_psi_of_zero(self):
        data = validate(torus3_system())
        assert psi_of(data, (0, 0)) == SemidirectElement.identity(3, 2)

    def test_psi_wrong_length(self):
        data = validate(torus3_system())
        with pytest.raises(DimensionMismatchError):
            psi_of(data, (1, 0, 0))


class TestValidateGeneral:
    def test_constant_map(self):
        sys = lift_system([([[0, 0], [0, 0]], [0, 0])])
        data = validate(sys)
        for img in data.generator_images:
            assert img.perm.is_identity()
            assert img.translations == ((0, 0),)

    def test_identical_factors_collide(self):
        sys = lift_system([([[2]], [0]), ([[2]], [0])])
        with pytest.raises(CollisionError):
            validate(sys)

    def test_invertible_difference_collides(self):
        # branch difference t + 1/2 hits Z at t = 1/2
        sys = lift_system([([[2]], [0]), ([[3]], [Fraction(1, 2)])])
        with pytest.raises(CollisionError):
            validate(sys)

    def test_singular_difference_no_collision(self):
        # difference matrix [[0,0],[1,0]] has column space spanned by (0,1):
        # offset difference (1/2, anything) stays off Z^2
        sys = lift_system(
            [
                ([[1, 0], [0, 1]], [0, 0]),
                ([[1, 0], [1, 1]], [Fraction(1, 2), Fraction(1, 3)]),
            ]
        )
        data = validate(sys)
        assert data.n == 2

    def test_psi_homomorphism_on_random_systems(self, rng):
        for _ in range(60):
            sys = random_system(rng)
            data = validate(sys)
            q = data.q
            for _ in range(4):
                z = tuple(rng.randint(-5, 5) for _ in range(q))
                w = tuple(rng.randint(-5, 5) for _ in range(q))
                zw = tuple(a + b for a, b in zip(z, w))
                assert psi_of(data, zw) == psi_of(data, z).compose(psi_of(data, w))
                assert psi_of(data, zw) == psi_of(data, w).compose(psi_of(data, z))


class TestMakeLinear:
    def test_circle_lift_form(self):
        sys = make_linear(3, [[1]])
        assert [f.linear[0][0] for f in sys.factors] == [Fraction(1, 3)] * 3
        assert [f.offset[0] for f in sys.factors] == [
            Fraction(1, 3),
            Fraction(2, 3),
            Fraction(1),
        ]

    def test_single_valued(self):
        sys = make_linear(1, [[5, 1], [1, 5]])
        assert sys.n == 1
        assert sys.factors[0].linear[0][0] == 5

    def test_rows_not_congruent(self):
        with pytest.raises(RowsNotCongruentError):
            make_linear(2, [[1, 0], [0, 1]])

    def test_translation_parts_integral(self, rng):
        # rows congruent mod n is exactly what makes psi integral
        from conftest import random_congruent_matrix

        for _ in range(25):
            n = rng.randint(1, 4)
            q = rng.randint(1, 3)
            rows = random_congruent_matrix(rng, n, q)
            sys = make_linear(n, rows)
            data = validate(sys)
            assert all(f.linear == sys.factors[0].linear for f in sys.factors)


class TestMakeCircle:
    def test_square_roots(self):
        sys = make_circle(2, 1)
        assert sys.factors[0].offset == (Fraction(0),)
        assert sys.factors[1].offset == (Fraction(1, 2),)
        assert all(f.linear[0][0] == Fraction(1, 2) for f in sys.factors)

    def test_identity_lift(self):
        sys = make_circle(1, 1)
        assert sys.factors[0].linear[0][0] == 1
        assert sys.factors[0].offset[0] == 0

    def test_degree_n(self):
        sys = make_circle(3, 3)
        for j, f in enumerate(sys.factors, start=1):
            assert f.linear[0][0] == 1
            assert f.offset[0] == Fraction(j - 1, 3)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            make_circle(0, 1)


class TestMakeSplit:
    def test_valid_two_branch(self):
        sys = make_split([([[2]], [0]), ([[2]], [Fraction(1, 2)])])
        assert sys.n == 2
        # sampled images stay distinct mod 1 (grid oracle)
        f1, f2 = sys.factors
        for k in range(100):
            t = (Fraction(k, 100),)
            diff = apply_factor(f1, t)[0] - apply_factor(f2, t)[0]
            assert diff != int(diff)

    def test_single_part(self):
        sys = make_split([([[3, 0], [0, 3]], [0, 0])])
        assert sys.n == 1

    def test_collision(self):
        with pytest.raises(CollisionError):
            make_split([([[2]], [0]), ([[3]], [Fraction(1, 2)])])

    def test_trivial_permutations_and_matrix_images(self, rng):
        # split systems must produce identity permutations, and phi_i on
        # generators is multiplication by the branch matrix
        from conftest import random_split_system

        for _ in range(30):
            parts = random_split_system(rng)
            sys = make_split(parts)
            data = validate(sys)
            q = data.q
            for img in data.generator_images:
                assert img.perm.is_identity()
            for k in range(q):
                e_k = tuple(int(c == k) for c in range(q))
                el = psi_of(data, e_k)
                for i, (a, _) in enumerate(parts):
                    expect = tuple(a[r][k] for r in range(q))
                    assert el.translations[i] == expect


class TestReorderingInvariance:
    def test_permuted_factors_same_invariants(self, rng):
        from nvalued.reidemeister import reidemeister_number

        for _ in range(20):
            sys = random_system(rng)
            factors = list(sys.factors)
            rng.shuffle(factors)
            shuffled = lift_system(
                [(f.linear, f.offset) for f in factors]
            )
            a = reidemeister_number(sys)
            b = reidemeister_number(shuffled)
            assert a.total == b.total
            assert sorted(str(blk.count) for blk in a.blocks) == sorted(
                str(blk.count) for blk in b.blocks
            )


def pairwise_validate(sys):
    """Reference for :func:`validate`: the earlier pairwise version, with
    one exact collision test per factor pair and a scan over every factor
    for each deck partner."""
    n, q = sys.n, sys.q
    for i in range(n):
        for j in range(i + 1, n):
            if _images_collide(sys.factors[i], sys.factors[j]):
                raise CollisionError(
                    f"factors {i + 1} and {j + 1} meet modulo Z^{q}: "
                    "the system does not map into the configuration space"
                )
    images = []
    for k in range(q):
        e_k = tuple(Fraction(int(c == k)) for c in range(q))
        sigma_inv = [0] * n
        phi = [None] * n
        for i in range(n):
            fi = sys.factors[i]
            shift = apply_factor(fi, e_k)
            matches = []
            for j in range(n):
                fj = sys.factors[j]
                if fi.linear != fj.linear:
                    continue
                diff = tuple(shift[r] - fj.offset[r] for r in range(q))
                if all(d.denominator == 1 for d in diff):
                    matches.append((j, tuple(int(d) for d in diff)))
            if not matches:
                raise NotEquivariantError(
                    f"factor {i + 1} has no deck partner under generator e_{k + 1}"
                )
            if len(matches) > 1:
                raise AmbiguousLiftError(
                    f"factor {i + 1} has several deck partners under generator "
                    f"e_{k + 1}; this implies a collision"
                )
            j, vec = matches[0]
            sigma_inv[i] = j + 1
            phi[i] = vec
        if sorted(sigma_inv) != list(range(1, n + 1)):
            raise AmbiguousLiftError(
                f"deck partners under generator e_{k + 1} do not form a permutation"
            )
        perm = Permutation(tuple(sigma_inv)).inverse()
        images.append(SemidirectElement(tuple(phi), perm))
    for a in range(q):
        for b in range(a + 1, q):
            if images[a].compose(images[b]) != images[b].compose(images[a]):
                raise NotCommutingError(
                    f"generator images e_{a + 1} and e_{b + 1} do not commute"
                )
    return PsiData(n, q, tuple(images))


def _scaled(a, m):
    return [[Fraction(x, m) for x in row] for row in a]


def _family_factors(rng):
    """(linear, offset) pairs of a random system, valid or not: circle,
    linear, split with shared first rows, or custom unions of blocks."""
    kind = rng.choice(["circle", "linear", "split", "custom"])
    if kind == "circle":
        n, d = rng.randint(1, 8), rng.randint(-12, 12)
        return [([[Fraction(d, n)]], [Fraction(j, n)]) for j in range(n)]
    if kind == "linear":
        n, rows, _ = random_linear_system(rng, nonzero_nielsen=False)
        q = len(rows)
        return [(_scaled(rows, n), [Fraction(i, n)] * q) for i in range(1, n + 1)]
    q = rng.randint(1, 3)
    if kind == "split":
        # shared first row, offsets apart in coordinate 1: singular
        # differences, so the cross-part pairs run the exact test
        first = [rng.randint(-2, 2) for _ in range(q)]
        denom = rng.randint(4, 6)
        factors = []
        for off in rng.sample(range(denom), rng.randint(1, 4)):
            a = [first] + [[rng.randint(-2, 2) for _ in range(q)] for _ in range(q - 1)]
            b = [Fraction(off, denom)] + [Fraction(rng.randint(0, 3), 4) for _ in range(q - 1)]
            factors.append((_scaled(a, 1), b))
        return factors
    if rng.random() < 0.2:
        return [(f.linear, f.offset) for f in torus3_system().factors]
    factors = []
    for _ in range(rng.randint(1, 3)):
        # one block: a linear map's factors with a common extra offset
        m = rng.randint(1, 3)
        rows = random_congruent_matrix(rng, m, q)
        base = [Fraction(rng.randint(0, 5), 6) for _ in range(q)]
        factors += [(_scaled(rows, m), [x + Fraction(i, m) for x in base])
                    for i in range(m)]
    return factors


def _integer_shift(rng, offset):
    return [x + rng.randint(-2, 2) for x in offset]


def _perturbed_system(rng):
    """A shuffled, integer-shifted family system, sometimes with injected
    collisions (equal offsets mod Z^q, or a nonsingular linear-part
    difference) and sometimes with an offset moved off its deck partner."""
    factors = _family_factors(rng)
    q = len(factors[0][1])
    for _ in range(rng.choice([0, 0, 1, 2])):
        lin, off = rng.choice(factors)
        if rng.random() < 0.5:
            extra = (lin, _integer_shift(rng, off))
        else:
            while True:
                d = [[rng.randint(-2, 2) for _ in range(q)] for _ in range(q)]
                if rational_det(d) != 0:
                    break
            extra = ([[x + y for x, y in zip(r, s)] for r, s in zip(lin, d)],
                     [Fraction(rng.randint(0, 7), 8) for _ in range(q)])
        factors.insert(rng.randint(0, len(factors)), extra)
    if rng.random() < 0.25:
        k = rng.randrange(len(factors))
        lin, off = factors[k]
        off = list(off)
        off[rng.randrange(q)] += Fraction(1, rng.choice([5, 7, 11]))
        factors[k] = (lin, off)
    rng.shuffle(factors)
    return lift_system([(lin, _integer_shift(rng, off)) for lin, off in factors])


def _outcome(fn, sys):
    try:
        return fn(sys)
    except (CollisionError, NotEquivariantError, AmbiguousLiftError, NotCommutingError) as exc:
        return type(exc), str(exc)


class TestValidateAgainstPairwise:
    def test_same_psi_or_same_error(self):
        rng = random.Random(0x5EED)
        seen = set()
        for _ in range(400):
            sys = _perturbed_system(rng)
            expect = _outcome(pairwise_validate, sys)
            assert _outcome(validate, sys) == expect, sys
            # mixed denominators: the same psi or the same error again
            shifted = shifted_system(sys)
            assert _outcome(pairwise_validate, shifted) == expect, shifted
            assert _outcome(validate, shifted) == expect, shifted
            seen.add(expect[0] if isinstance(expect, tuple) else PsiData)
        assert {PsiData, CollisionError, NotEquivariantError} <= seen

    def test_first_pair_in_lexicographic_order(self):
        # B - A = [[0, 0], [1, 0]]: factors of A and B meet iff their first
        # offset coordinates agree mod 1; equal parts meet iff the offsets do
        a, b = [[1, 0], [0, 1]], [[1, 0], [1, 1]]
        half, third = Fraction(1, 2), Fraction(1, 3)
        cases = [
            # (1, 4) across parts comes before (2, 3) within part A
            ([(a, [0, 0]), (a, [half, 0]), (a, [half, 1]), (b, [0, third])], "1 and 4"),
            # (1, 2) within part A comes before (1, 3) across parts
            ([(a, [0, 0]), (a, [1, 1]), (b, [0, third])], "1 and 2"),
        ]
        for factors, pair in cases:
            sys = lift_system(factors)
            with pytest.raises(CollisionError, match=f"factors {pair} meet"):
                validate(sys)
            assert _outcome(validate, sys) == _outcome(pairwise_validate, sys)
