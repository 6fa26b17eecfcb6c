"""Group arithmetic in (Z^q)^n x| Sigma_n, and the tests' permutation closure."""

import pytest

from nvalued.semidirect import (
    DimensionMismatchError,
    Permutation,
    SemidirectElement,
)

from conftest import closure


def random_element(rng, n, q, bound=10):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    trans = tuple(
        tuple(rng.randint(-bound, bound) for _ in range(q)) for _ in range(n)
    )
    return SemidirectElement(trans, Permutation(tuple(images)))


class TestPermutation:
    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            Permutation((1, 1, 3))

    def test_compose_applies_right_first(self):
        # sigma = (1 2), rho = (2 3) on {1,2,3}: (sigma o rho)(2) = sigma(3) = 3
        sigma = Permutation((2, 1, 3))
        rho = Permutation((1, 3, 2))
        assert sigma.compose(rho).images == (2, 3, 1)

    def test_inverse(self):
        p = Permutation((3, 1, 2))
        assert p.compose(p.inverse()).is_identity()
        assert p.inverse().compose(p).is_identity()


class TestSemidirect:
    def test_swap_compose_formula(self):
        # ((a1), (a2); swap) ((b1), (b2); swap) = ((a1+b2), (a2+b1); id)
        swap = Permutation((2, 1))
        g = SemidirectElement(((3,), (5,)), swap)
        h = SemidirectElement(((7,), (11,)), swap)
        gh = g.compose(h)
        assert gh.translations == ((3 + 11,), (5 + 7,))
        assert gh.perm.is_identity()

    def test_identity_neutral(self, rng):
        e = SemidirectElement.identity(3, 2)
        g = random_element(rng, 3, 2)
        assert g.compose(e) == g
        assert e.compose(g) == g

    def test_componentwise_sum_when_trivial(self):
        idp = Permutation((1, 2))
        g = SemidirectElement(((1, 2), (3, 4)), idp)
        h = SemidirectElement(((0, 0), (1, 1)), idp)
        assert g.compose(h).translations == ((1, 2), (4, 5))

    def test_swap_inverse_formula(self):
        # ((a1), (a2); swap)^-1 = ((-a2), (-a1); swap)
        swap = Permutation((2, 1))
        g = SemidirectElement(((3,), (5,)), swap)
        inv = g.inverse()
        assert inv.translations == ((-5,), (-3,))
        assert inv.perm == swap

    def test_inverse_property(self, rng):
        for _ in range(200):
            n = rng.randint(1, 5)
            q = rng.randint(1, 3)
            g = random_element(rng, n, q)
            assert g.compose(g.inverse()).is_identity()
            assert g.inverse().compose(g).is_identity()

    def test_associativity(self, rng):
        for _ in range(300):
            n = rng.randint(1, 5)
            q = rng.randint(1, 3)
            a, b, c = (random_element(rng, n, q) for _ in range(3))
            assert a.compose(b).compose(c) == a.compose(b.compose(c))

    def test_power_additivity(self, rng):
        g = random_element(rng, 3, 2, bound=3)
        for j in range(-4, 5):
            for k in range(-4, 5):
                assert g.power(j).compose(g.power(k)) == g.power(j + k)

    def test_dimension_mismatch(self):
        g = SemidirectElement.identity(2, 1)
        h = SemidirectElement.identity(3, 1)
        with pytest.raises(DimensionMismatchError):
            g.compose(h)


class TestClosure:
    def test_single_transposition(self):
        nu = Permutation((2, 1, 3))
        group = closure([nu], 3)
        assert group == frozenset({nu, Permutation.identity(3)})

    def test_empty_generators(self):
        assert closure([], 4) == frozenset({Permutation.identity(4)})

    def test_full_symmetric_group(self):
        # frozen from direct enumeration: |S_3| = 6
        three_cycle = Permutation((2, 3, 1))
        transposition = Permutation((2, 1, 3))
        group = closure([three_cycle, transposition], 3)
        assert len(group) == 6

    def test_closure_is_closed(self, rng):
        for _ in range(30):
            n = rng.randint(1, 5)
            gens = []
            for _ in range(rng.randint(1, 2)):
                images = list(range(1, n + 1))
                rng.shuffle(images)
                gens.append(Permutation(tuple(images)))
            group = closure(gens, n)
            for g in gens:
                assert g in group
            for a in group:
                assert a.inverse() in group
                for b in group:
                    assert a.compose(b) in group

