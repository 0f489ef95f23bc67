"""Total transformations of {1..n}: exact arithmetic, enumeration and the
capacity policy.

A transformation is stored as its image word.  Externally everything is
1-indexed (matching the usual semigroup-theory notation); internally the
word is a tuple of 0-indexed points.  Composition is left-to-right:
``x (s t) = (x s) t``.
"""

from __future__ import annotations

import itertools
import os
from typing import Iterator

import numpy as np

from .errors import CapacityError

# The capacity policy.  The paper's results hold for every n; what stops a
# computation at a degree is its cost, and these three bounds are the only
# places that decision is made.  ENDTN_CAPACITY_OVERRIDE lifts all three.
#
# Enumerating T_n: n^n maps, 7^7 ~ 8e5.
MAX_ENUM_DEGREE = 7
# Enumerating End(T_n), its permissible pairs, its Aut-orbits or the S_n
# fixers of a pair, and the composition oracle: 38,503 elements at n = 6.
MAX_END_DEGREE = 6
# The dense N x N product table: 3,226^2 cells at n = 5, 38,503^2 at 6.
MAX_TABLE_DEGREE = 5

_intern: dict[tuple[int, ...], "Transformation"] = {}


def capacity_override() -> bool:
    return os.environ.get("ENDTN_CAPACITY_OVERRIDE", "") not in ("", "0")


def check_capacity(n: int, limit: int, what: str) -> None:
    if n > limit and not capacity_override():
        raise CapacityError(f"{what} is guarded at n <= {limit}, got n = {n}")


class Transformation:
    """An immutable total map on {1..n}, stored as a 0-indexed image word.

    Values are interned and never change, so their invariants are computed
    once: the degree, rank and ``is_permutation`` when the value is made,
    the parity and the inverse of a permutation on first use.
    """

    __slots__ = ("word", "n", "rank", "is_permutation", "_parity", "_inverse")

    word: tuple[int, ...]
    n: int
    rank: int
    is_permutation: bool

    def __new__(cls, word: tuple[int, ...]) -> "Transformation":
        cached = _intern.get(word)
        if cached is not None:
            return cached
        n = len(word)
        if n == 0:
            raise ValueError("degree must be positive")
        for x in word:
            if not 0 <= x < n:
                raise ValueError(f"image point {x} out of range for degree {n}")
        self = object.__new__(cls)
        rank = len(set(word))
        init = object.__setattr__
        init(self, "word", word)
        init(self, "n", n)
        init(self, "rank", rank)
        init(self, "is_permutation", rank == n)
        init(self, "_parity", None)
        init(self, "_inverse", None)
        _intern[word] = self
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Transformation is immutable")

    def __delattr__(self, name):
        raise AttributeError("Transformation is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_images(cls, images) -> "Transformation":
        """Build from a 1-indexed image sequence."""
        return cls(tuple(x - 1 for x in images))

    @classmethod
    def from_text(cls, text: str) -> "Transformation":
        """Parse the space-separated 1-indexed format, e.g. ``"1 3 2 1 2"``."""
        return cls.from_images(int(tok) for tok in text.split())

    @classmethod
    def identity(cls, n: int) -> "Transformation":
        return cls(tuple(range(n)))

    @classmethod
    def constant(cls, n: int, point: int) -> "Transformation":
        """The constant map c_point (1-indexed point)."""
        return cls((point - 1,) * n)

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Transformation":
        """The transposition (i j), 1-indexed."""
        if i == j:
            raise ValueError("transposition needs two distinct points")
        word = list(range(n))
        word[i - 1], word[j - 1] = j - 1, i - 1
        return cls(tuple(word))

    @classmethod
    def cycle(cls, n: int, points) -> "Transformation":
        """The cycle (p1 p2 ... pk), 1-indexed."""
        pts = [p - 1 for p in points]
        word = list(range(n))
        for a, b in zip(pts, pts[1:] + pts[:1]):
            word[a] = b
        return cls(tuple(word))

    # -- basic accessors ---------------------------------------------------

    @property
    def images(self) -> tuple[int, ...]:
        """1-indexed image word."""
        return tuple(x + 1 for x in self.word)

    def __call__(self, point: int) -> int:
        """Apply to a 1-indexed point."""
        return self.word[point - 1] + 1

    @property
    def is_identity(self) -> bool:
        return all(x == i for i, x in enumerate(self.word))

    @property
    def is_constant(self) -> bool:
        return self.rank == 1

    def fixed_points(self) -> frozenset[int]:
        """1-indexed fixed points."""
        return frozenset(i + 1 for i, x in enumerate(self.word) if x == i)

    def inverse(self) -> "Transformation":
        inverse = self._inverse
        if inverse is None:
            if not self.is_permutation:
                raise ValueError("only permutations are invertible")
            word = [0] * self.n
            for i, x in enumerate(self.word):
                word[x] = i
            inverse = Transformation(tuple(word))
            object.__setattr__(self, "_inverse", inverse)
        return inverse

    # -- serialisation -----------------------------------------------------

    def to_text(self) -> str:
        return " ".join(str(x) for x in self.images)

    def __repr__(self) -> str:
        return f"Transformation[{self.to_text()}]"

    # Interned: identity works, but keep value semantics explicit.
    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, Transformation) and self.word == other.word
        )

    def __hash__(self) -> int:
        return hash(self.word)

    def __lt__(self, other: "Transformation") -> bool:
        return self.word < other.word


def compose(s: Transformation, t: Transformation) -> Transformation:
    """Left-to-right product st: x -> (x s) t."""
    if s.n != t.n:
        raise ValueError(f"degree mismatch: {s.n} vs {t.n}")
    tw = t.word
    return Transformation(tuple([tw[x] for x in s.word]))


def permutation_parity(t: Transformation) -> str:
    """Parity via cycle decomposition: (n - #cycles) mod 2."""
    parity = t._parity
    if parity is None:
        if not t.is_permutation:
            raise ValueError("parity is defined for permutations only")
        seen = [False] * t.n
        cycles = 0
        for start in range(t.n):
            if seen[start]:
                continue
            cycles += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = t.word[x]
        parity = "even" if (t.n - cycles) % 2 == 0 else "odd"
        object.__setattr__(t, "_parity", parity)
    return parity


def conjugate(t: Transformation, g: Transformation) -> Transformation:
    """The conjugate t^g = g^{-1} t g."""
    if t.n != g.n:
        raise ValueError(f"degree mismatch: {t.n} vs {g.n}")
    if not g.is_permutation:
        raise ValueError("conjugation requires a permutation")
    gw, tw = g.word, t.word
    return Transformation(tuple([gw[tw[x]] for x in g.inverse().word]))


def conjugate_words(words: np.ndarray, g: Transformation) -> np.ndarray:
    """``conjugate`` over the rows of an array of image words."""
    gw = np.array(g.word)
    return gw[words[:, np.argsort(gw)]]


def word_codes(words: np.ndarray) -> np.ndarray:
    """Base-n code of each row of image words; numeric order is word order."""
    n = words.shape[1]
    return words @ (n ** np.arange(n - 1, -1, -1, dtype=np.int64))


def enumerate_all(n: int) -> Iterator[Transformation]:
    """All n^n transformations, in lexicographic order of image words."""
    check_capacity(n, MAX_ENUM_DEGREE, "full transformation enumeration")
    for word in itertools.product(range(n), repeat=n):
        yield Transformation(word)


def enumerate_permutations(n: int) -> Iterator[Transformation]:
    """All n! permutations, in lexicographic order of image words."""
    for word in itertools.permutations(range(n)):
        yield Transformation(word)
