"""Sigma-class decomposition, stabilizers, and Reidemeister counts."""

import random
from fractions import Fraction

import pytest

from nvalued.intlinalg import (
    is_infinite,
    lattice_from_generators,
    lattice_index,
    vec_add,
    vec_sub,
)
from nvalued.liftsystems import (
    lift_system,
    make_circle,
    make_linear,
    make_split,
    psi_of,
    validate,
)
from nvalued import reidemeister
from nvalued.reidemeister import reidemeister_number, sigma_classes

from conftest import (
    class_label,
    closure,
    random_outside_family_factors,
    random_system,
    torus3_system,
)


@pytest.fixture(scope="module")
def torus3_report():
    return reidemeister_number(torus3_system())


class TestSigmaClasses:
    def test_torus3_partition(self, torus3_report):
        classes = torus3_report.sigma.classes
        assert [c.members for c in classes] == [(1, 2), (3,)]
        assert classes[0].stabilizer.basis == ((2, 0), (0, 1))  # z1 even
        assert classes[1].stabilizer.basis == ((1, 0), (0, 1))  # all of Z^2

    def test_split_singleton_classes(self):
        sys = make_split([([[2]], [0]), ([[2]], [Fraction(1, 2)])])
        report = sigma_classes(validate(sys))
        assert [c.members for c in report.classes] == [(1,), (2,)]
        for c in report.classes:
            assert c.stabilizer.basis == ((1,),)

    def test_circle_cycle_stabilizer(self):
        # sigma_1 is a 3-cycle, so the stabilizer is 3Z; cross-checked by
        # scanning k in [-9, 9] through psi directly
        data = validate(make_circle(3, 1))
        report = sigma_classes(data)
        assert len(report.classes) == 1
        assert report.classes[0].stabilizer.basis == ((3,),)
        brute = [k for k in range(-9, 10) if psi_of(data, (k,)).perm(1) == 1]
        assert brute == [-9, -6, -3, 0, 3, 6, 9]

    def test_transversal_moves_representative(self, rng):
        for _ in range(25):
            data = validate(random_system(rng))
            report = sigma_classes(data)
            for cls in report.classes:
                for j, z in cls.transversal:
                    assert psi_of(data, z).perm(cls.representative) == j

    def test_stabilizer_index_divides_group_order(self, rng):
        from nvalued.intlinalg import lattice_index

        for _ in range(25):
            data = validate(random_system(rng))
            perms = [img.perm for img in data.generator_images]
            group = closure(perms, data.n)
            report = sigma_classes(data)
            for cls in report.classes:
                idx = lattice_index(cls.stabilizer)
                assert not is_infinite(idx)
                assert len(group) % idx == 0


class TestPhiRestricted:
    """phi_i restricted to the stabilizer S_i, which the engine encodes in
    the image lattice (id - phi_i)(S_i)."""

    @staticmethod
    def _phi_on_basis(report, idx):
        cls = report.sigma.classes[idx]
        i = cls.representative
        basis = cls.stabilizer.basis
        return cls, [psi_of(report.psi, g).translations[i - 1] for g in basis]

    def test_torus3_phi1(self, torus3_report):
        cls, images = self._phi_on_basis(torus3_report, 0)
        assert images == [(1, 0), (0, -1)]
        gens = [vec_sub(g, p) for g, p in zip(cls.stabilizer.basis, images)]
        assert cls.image_lattice == lattice_from_generators(gens, 2)

    def test_torus3_phi3(self, torus3_report):
        cls, images = self._phi_on_basis(torus3_report, 1)
        assert images == [(-1, 0), (0, -1)]
        gens = [vec_sub(g, p) for g, p in zip(cls.stabilizer.basis, images)]
        assert cls.image_lattice == lattice_from_generators(gens, 2)

    def test_inconsistent_label_detected(self, monkeypatch):
        # a wrong label makes phi_i ill defined on S_i: a tree edge's
        # Schreier generator 0 then maps to a nonzero vector, and the HNF
        # of the rows (s, s - phi_i(s)) gets more than q rows
        orbit_transversal = reidemeister._orbit_transversal

        def corrupted(data, start):
            labelled = orbit_transversal(data, start)
            last = max(labelled)
            t, lam = labelled[last]
            labelled[last] = (t, vec_add(lam, (0, 1)))
            return labelled

        monkeypatch.setattr(reidemeister, "_orbit_transversal", corrupted)
        with pytest.raises(AssertionError):
            sigma_classes(torus3_system().psi)


class TestClassCount:
    """The count [Z^q : L_i] of each sigma-class, read from its block."""

    def test_torus3_counts(self, torus3_report):
        counts = {b.sigma_class.representative: b.count for b in torus3_report.blocks}
        assert counts == {1: 2, 3: 4}

    def test_torus3_image_lattices(self, torus3_report):
        assert torus3_report.blocks[0].image_lattice.basis == ((1, 0), (0, 2))
        assert torus3_report.blocks[1].image_lattice.basis == ((2, 0), (0, 2))

    def test_degree_n_circle_infinite(self):
        report = reidemeister_number(make_circle(3, 3))
        assert [b.sigma_class.members for b in report.blocks] == [(1,), (2,), (3,)]
        for block in report.blocks:
            assert is_infinite(block.count)
            assert block.representatives == ()


def frac_det(m):
    """Determinant of a small Fraction matrix by cofactor expansion."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** c * m[0][c] * frac_det([row[:c] + row[c + 1:] for row in m[1:]])
               for c in range(len(m)))


class TestDeterminantSum:
    """R(f) = sum_j |det(E - M_j)| over the factors, for maps outside the
    four families.  Every member of a sigma-class has the representative's
    linear part M_r, [Z^q : S_r] is the class size, and the image lattice
    is (E - M_r) S_r; R is infinite iff some det is 0."""

    def test_outside_the_families(self):
        rng = random.Random(20170)
        mixed = finite = 0
        for _ in range(300):
            factors = random_outside_family_factors(rng)
            q = len(factors[0][1])
            e_minus = [[[int(r == c) - x for c, x in enumerate(row)]
                        for r, row in enumerate(linear)] for linear, _ in factors]
            dets = [frac_det(m) for m in e_minus]
            report = reidemeister_number(lift_system(factors))
            if 0 in dets:
                assert is_infinite(report.total), dets
            else:
                assert report.total == sum(abs(d) for d in dets), dets
                finite += 1
            counts = set()
            for block in report.blocks:
                cls = block.sigma_class
                r = cls.representative - 1
                assert all(factors[j - 1][0] == factors[r][0] for j in cls.members)
                assert lattice_index(cls.stabilizer) == len(cls.members)
                images = [[sum(x * y for x, y in zip(row, s)) for row in e_minus[r]]
                          for s in cls.stabilizer.basis]
                assert all(x.denominator == 1 for v in images for x in v)
                assert block.image_lattice == lattice_from_generators(images, q)
                if dets[r]:
                    assert block.count == len(cls.members) * abs(dets[r])
                else:
                    assert is_infinite(block.count)
                counts.add(is_infinite(block.count))
            mixed += counts == {True, False}
        assert mixed >= 100 and finite >= 100, (mixed, finite)


def reference_orbit_transversal(data, start):
    """The earlier unlabelled BFS: ``{j: z}`` with sigma_z(start) = j, of
    minimal length and lexicographically smallest within a layer."""
    q = data.q
    perms = [img.perm for img in data.generator_images]
    moves = [(p, k, 1) for k, p in enumerate(perms)]
    moves += [(p.inverse(), k, -1) for k, p in enumerate(perms)]
    best = {start: tuple([0] * q)}
    layer = dict(best)
    while layer:
        candidates = sorted(
            (tuple(w + (step if c == k else 0) for c, w in enumerate(word)), perm(j))
            for j, word in layer.items()
            for perm, k, step in moves
            if perm(j) not in best
        )
        layer = {}
        for cand, target in candidates:
            if target not in best:
                best[target] = layer[target] = cand
    return best


def reference_class(data, start):
    """Members, transversal, stabilizer and image lattice of the class of
    ``start`` as the earlier two-pass engine found them: Schreier
    generators over the unlabelled BFS, then phi_i evaluated by
    :func:`psi_of` on each stabilizer basis vector g, giving g - phi_i(g)."""
    q = data.q
    transversal = reference_orbit_transversal(data, start)
    members = tuple(sorted(transversal))
    schreier = []
    for j in members:
        for k, img in enumerate(data.generator_images):
            e_k = tuple(int(c == k) for c in range(q))
            schreier.append(vec_sub(vec_add(transversal[j], e_k), transversal[img.perm(j)]))
    stabilizer = lattice_from_generators(schreier, q)
    gens = [vec_sub(g, psi_of(data, g).translations[start - 1]) for g in stabilizer.basis]
    return (members, tuple((j, transversal[j]) for j in members), stabilizer,
            lattice_from_generators(gens, q))


class TestLabelledSchreierPass:
    def test_against_psi_of_reference(self):
        # seeded systems of every family, with shuffled factors (other
        # representatives and orbits) and integer-shifted offsets (other
        # translation parts a(e_k))
        rng = random.Random(20261018)
        multi_member = 0
        for _ in range(320):
            base = random_system(rng)
            factors = [(f.linear, [x + rng.randint(-2, 2) for x in f.offset])
                       for f in base.factors]
            rng.shuffle(factors)
            data = lift_system(factors).psi
            for cls in sigma_classes(data).classes:
                members, transversal, stabilizer, image = reference_class(
                    data, cls.representative)
                assert (cls.members, cls.transversal, cls.stabilizer) == (
                    members, transversal, stabilizer)
                assert cls.image_lattice == image
                for (j, t), lam in zip(cls.transversal, cls.labels):
                    assert lam == psi_of(data, t).translations[j - 1]
                multi_member += len(members) > 1
        assert multi_member > 100


class TestReidemeisterNumber:
    def test_torus3_total(self, torus3_report):
        assert torus3_report.total == 6
        assert [b.count for b in torus3_report.blocks] == [2, 4]
        assert torus3_report.blocks[0].representatives == (
            ((0, 0), 1),
            ((0, 1), 1),
        )
        assert torus3_report.blocks[1].representatives == (
            ((0, 0), 3),
            ((0, 1), 3),
            ((1, 0), 3),
            ((1, 1), 3),
        )

    def test_infinite_beside_a_count_above_float_range(self):
        # the first branch's block counts |det(E - A)| = 10^400 - 1 classes,
        # an int that float addition with INFINITE cannot convert
        sys = make_split([([[2, 0], [0, 10**400]], [0, 0]),
                          ([[2, 0], [0, 1]], [Fraction(1, 2), 0])])
        report = reidemeister_number(sys)
        assert report.blocks[0].count == 10**400 - 1
        assert is_infinite(report.total)

    def test_circle_theorem(self):
        for n in range(1, 7):
            for d in range(-6, 7):
                total = reidemeister_number(make_circle(n, d)).total
                if d == n:
                    assert is_infinite(total)
                else:
                    assert total == abs(n - d)

    def test_split_additivity_example(self):
        report = reidemeister_number(
            make_split([([[2]], [0]), ([[2]], [Fraction(1, 2)])])
        )
        assert report.total == 2
        assert [b.count for b in report.blocks] == [1, 1]

    def test_split_classical_counts(self, rng):
        # per-branch counts equal the classical |det(E - A_i)|
        from conftest import random_split_system
        from nvalued.intlinalg import frac_identity, rational_det

        for _ in range(20):
            parts = random_split_system(rng)
            report = reidemeister_number(make_split(parts))
            q = len(parts[0][1])
            ident = frac_identity(q)
            expected = []
            for a, _ in parts:
                m = [[ident[r][c] - a[r][c] for c in range(q)] for r in range(q)]
                expected.append(abs(rational_det(m)))
            assert [b.count for b in report.blocks] == expected

    def test_total_at_least_class_count(self, rng):
        for _ in range(30):
            report = reidemeister_number(random_system(rng))
            if is_infinite(report.total):
                continue
            assert report.total >= len(report.sigma.classes)
            assert all(b.count >= 1 for b in report.blocks)

    def test_deterministic(self):
        a = reidemeister_number(torus3_system())
        b = reidemeister_number(torus3_system())
        assert a == b

    def test_depends_only_on_psi(self):
        sys = torus3_system()
        via_system = reidemeister_number(sys)
        via_psi = reidemeister_number(validate(sys))
        assert via_system == via_psi


class TestClassLabel:
    def test_torus3_parity_relation(self, torus3_report):
        # (k1,k2) ~ (l1,l2) over factor 1 iff k2, l2 share parity
        label = lambda alpha, i: class_label(torus3_report, alpha, i)
        assert label((0, 0), 1) == label((5, 2), 1)
        assert label((0, 0), 1) == label((3, 0), 2)
        assert label((0, 0), 1) != label((0, 1), 1)

    def test_torus3_factor3_parities(self, torus3_report):
        label = lambda alpha, i: class_label(torus3_report, alpha, i)
        assert label((0, 0), 3) == label((2, 2), 3)
        assert label((0, 0), 3) != label((1, 0), 3)
        assert label((0, 0), 3) != label((0, 1), 3)
        assert label((0, 0), 3) != label((1, 1), 3)

    def test_labels_hit_representatives(self, torus3_report):
        for block in torus3_report.blocks:
            for alpha, i in block.representatives:
                assert class_label(torus3_report, alpha, i) == (
                    alpha,
                    block.sigma_class.representative,
                )

    def test_circle_degree_formula(self):
        # [(alpha, i)] = [(beta, j)] iff d alpha + i = d beta + j mod |d - n|
        for n, d in [(2, 1), (3, 1), (2, 6), (4, -3), (5, 2)]:
            report = reidemeister_number(make_circle(n, d))
            m = abs(d - n)
            for alpha in range(-4, 5):
                for i in range(1, n + 1):
                    for beta in range(-4, 5):
                        for j in range(1, n + 1):
                            same = class_label(report, (alpha,), i) == class_label(
                                report, (beta,), j
                            )
                            expected = (d * alpha + i) % m == (d * beta + j) % m
                            assert same == expected, (n, d, alpha, i, beta, j)


class TestPsiDetermination:
    def test_identical_psi_identical_report(self):
        # shifting every offset by one integer vector changes the system but
        # not psi; the engine output must coincide exactly
        base = torus3_system()
        shifted = lift_system(
            [
                (f.linear, tuple(c + 1 for c in f.offset))
                for f in base.factors
            ]
        )
        assert validate(base) == validate(shifted)
        assert reidemeister_number(base) == reidemeister_number(shifted)
