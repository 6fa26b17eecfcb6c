"""Arithmetic in the group (Z^q)^n x| Sigma_n.

Elements ``(a_1, ..., a_n; s)`` carry n translation vectors in Z^q and a
permutation s of {1..n}.  Written additively in the abelian part, the
group law and inverse are

    (a; s) * (b; r) = (a_1 + b_{s^-1(1)}, ..., a_n + b_{s^-1(n)}; s o r)
    (a; s)^-1       = (-a_{s(1)}, ..., -a_{s(n)}; s^-1)

Permutations are stored in one-line notation with 1-based points, i.e.
``images[i-1]`` is the image of i.
"""

from __future__ import annotations

from dataclasses import dataclass

from .intlinalg import vec_add, vec_neg


class DimensionMismatchError(ValueError):
    """Operands live in different (n, q) groups."""


@dataclass(frozen=True)
class Permutation:
    images: tuple

    def __post_init__(self):
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"{list(self.images)} is not a permutation of 1..{n}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def compose(self, other: "Permutation") -> "Permutation":
        """self o other (apply ``other`` first)."""
        if other.n != self.n:
            raise DimensionMismatchError("permutation degrees differ")
        return Permutation(tuple(self.images[other.images[k] - 1] for k in range(self.n)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for k, img in enumerate(self.images, start=1):
            inv[img - 1] = k
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(img == k for k, img in enumerate(self.images, start=1))

    def __repr__(self):
        return f"Permutation({list(self.images)})"


@dataclass(frozen=True)
class SemidirectElement:
    translations: tuple  # n tuples of q ints
    perm: Permutation

    @classmethod
    def identity(cls, n: int, q: int) -> "SemidirectElement":
        zero = tuple([tuple([0] * q)] * n)
        return cls(zero, Permutation.identity(n))

    @property
    def n(self) -> int:
        return len(self.translations)

    @property
    def q(self) -> int:
        return len(self.translations[0]) if self.translations else 0

    def compose(self, other: "SemidirectElement") -> "SemidirectElement":
        if self.n != other.n or self.q != other.q:
            raise DimensionMismatchError(
                f"cannot compose elements of shape (n={self.n}, q={self.q}) "
                f"and (n={other.n}, q={other.q})"
            )
        sigma_inv = self.perm.inverse()
        trans = tuple(
            vec_add(self.translations[i], other.translations[sigma_inv(i + 1) - 1])
            for i in range(self.n)
        )
        return SemidirectElement(trans, self.perm.compose(other.perm))

    def inverse(self) -> "SemidirectElement":
        trans = tuple(vec_neg(self.translations[self.perm(i + 1) - 1]) for i in range(self.n))
        return SemidirectElement(trans, self.perm.inverse())

    def power(self, k: int) -> "SemidirectElement":
        base = self if k >= 0 else self.inverse()
        result = SemidirectElement.identity(self.n, self.q)
        for _ in range(abs(k)):
            result = result.compose(base)
        return result

    def is_identity(self) -> bool:
        return self.perm.is_identity() and all(
            all(x == 0 for x in t) for t in self.translations
        )

    def __repr__(self):
        ts = ", ".join(str(list(t)) for t in self.translations)
        return f"SemidirectElement([{ts}]; {list(self.perm.images)})"

