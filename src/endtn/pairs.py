"""Permissible pairs: the parameter space of singular endomorphisms.

A pair (t, e) is permissible when t^3 = t and te = et = e^2 = e.  Every
t admitting such an e satisfies t^3 = t and fixes at least one point;
these t, the set U_n, are found by one array test over all n^n image
words.  The admissible e of each t are built from its root table: each
point is sent to the first of x, xt, xt^2 that is a fixed point or the
low side of a 2-cycle, and e is fixed by its values there.  Every pair
so built is checked against the defining identities, in array passes
over blocks of t, before any is yielded.  ``brute_force_partners`` is
the independent side: an array scan of every idempotent of T_n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import VerificationError
from .transformations import (
    MAX_END_DEGREE,
    Transformation,
    all_words,
    check_capacity,
    compose,
)


@dataclass(frozen=True)
class PermissiblePair:
    t: Transformation
    e: Transformation

    def __post_init__(self):
        if not is_permissible(self.t, self.e):
            raise ValueError(_not_permissible(self.t, self.e))

    @classmethod
    def _checked(cls, t: Transformation, e: Transformation) -> "PermissiblePair":
        """A pair that ``_check_pairs`` has already found permissible."""
        pair = object.__new__(cls)
        object.__setattr__(pair, "t", t)
        object.__setattr__(pair, "e", e)
        return pair

    def sort_key(self):
        return (self.t.word, self.e.word)


def _not_permissible(t: Transformation, e: Transformation) -> str:
    return f"({t.to_text()}, {e.to_text()}) is not a permissible pair"


def is_permissible(t: Transformation, e: Transformation) -> bool:
    """Check the defining identities t^3 = t, te = et = e^2 = e directly."""
    if t.n != e.n:
        return False
    t2 = compose(t, t)
    if compose(t2, t) != t:
        return False
    return compose(t, e) == e and compose(e, t) == e and compose(e, e) == e


def is_in_U(t: Transformation) -> bool:
    """Whether some e makes (t, e) permissible: t^3 = t with a fixed point."""
    t2 = compose(t, t)
    return compose(t2, t) == t and any(x == i for i, x in enumerate(t.word))


def _fixed_and_low(w: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """J, the fixed points, and I, the low side of each 2-cycle, of the t
    with image word w (0-indexed, ascending)."""
    n = len(w)
    J = [x for x in range(n) if w[x] == x]
    I = [x for x in range(n) if x < w[x] and w[w[x]] == x]
    return J, I


def count_pairs_for(t: Transformation) -> int:
    """Number of e with (t, e) permissible: sum_r C(|J|, r) r^(|I|+|J|-r)."""
    if not is_in_U(t):
        raise ValueError("t admits no permissible partner (t is not in U_n)")
    J, I = _fixed_and_low(t.word)
    j, i = len(J), len(I)
    return sum(math.comb(j, r) * r ** (i + j - r) for r in range(1, j + 1))


def _partner_words(w: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The image word of every e with (t, e) permissible, where w is the
    word of a t with t^3 = t and a fixed point.

    For each non-empty R subset of J (lexicographic order) every function
    f: (J \\ R) u I -> R (odometer order) extends uniquely to an
    idempotent e with image R satisfying te = et = e: the identity on R,
    and x e = f(root x), where the root of x is the first of x, xt, xt^2
    that lies in J u I.
    """
    n = len(w)
    J, I = _fixed_and_low(w)
    base = set(J + I)
    root = [next(y for y in (x, w[x], w[w[x]]) if y in base) for x in range(n)]
    subsets = sorted(
        c for size in range(1, len(J) + 1) for c in itertools.combinations(J, size)
    )
    for R in subsets:
        domain = sorted([j for j in J if j not in R] + I)
        f = list(range(n))
        for values in itertools.product(R, repeat=len(domain)):
            for x, value in zip(domain, values):
                f[x] = value
            yield tuple([f[r] for r in root])


# Rows of t per ``_check_pairs`` call in ``_checked_pairs``.  The check
# indexes with 8-byte copies of the words, so one batch of all 524,574
# pairs at n = 7 would hold tens of MB at once.
_CHECK_ROWS = 4096


def _checked_pairs(t_words: np.ndarray) -> Iterator[PermissiblePair]:
    """Every permissible pair of each t in the rows of ``t_words`` (image
    words of members of U_n), grouped by t in row order.  All the pairs
    are built and checked, in array passes over blocks of ``_CHECK_ROWS``
    t, before the first is yielded."""
    n = t_words.shape[1]
    ts = [Transformation(tuple(w)) for w in t_words.tolist()]
    partners = [[Transformation(e) for e in _partner_words(t.word)] for t in ts]
    for start in range(0, len(ts), _CHECK_ROWS):
        block = partners[start : start + _CHECK_ROWS]
        sizes = [len(es) for es in block]
        e_words = np.fromiter(
            itertools.chain.from_iterable(e.word for es in block for e in es),
            dtype=np.int8,
            count=sum(sizes) * n,
        )
        _check_pairs(
            np.repeat(t_words[start : start + _CHECK_ROWS], sizes, axis=0),
            e_words.reshape(-1, n),
        )
    for t, es in zip(ts, partners):
        for e in es:
            yield PermissiblePair._checked(t, e)


def u_words(n: int) -> np.ndarray:
    """The image words of U_n, in lexicographic order, as ``int8`` rows:
    every t of T_n with t^3 = t and a fixed point, by one array test."""
    words = all_words(n)
    cube = _then(_then(words, words), words)
    fixes = (words == np.arange(n, dtype=np.int8)).any(axis=1)
    return words[fixes & (cube == words).all(axis=1)]


def _then(s: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The left-to-right product su of two arrays of image words, row by
    row: x (su) = (x s) u."""
    return np.take_along_axis(u, s, axis=1)


def _check_pairs(t: np.ndarray, e: np.ndarray) -> None:
    """Check t^3 = t and te = et = e^2 = e on every row of the two arrays of
    image words at once.  The first pair that fails raises
    ``VerificationError``, with the message ``PermissiblePair`` gives."""
    bad = (
        (_then(_then(t, t), t) != t)
        | (_then(t, e) != e)
        | (_then(e, t) != e)
        | (_then(e, e) != e)
    ).any(axis=1)
    if bad.any():
        k = int(np.argmax(bad))
        bad_t = Transformation(tuple(t[k].tolist()))
        bad_e = Transformation(tuple(e[k].tolist()))
        raise VerificationError(
            _not_permissible(bad_t, bad_e), counterexample=(bad_t, bad_e)
        )


def enumerate_P(n: int) -> Iterator[PermissiblePair]:
    """All permissible pairs of degree n, grouped by t in lexicographic order.

    Only the members of U_n, of which every e is one, are made into
    transformations.  Every pair is checked, in array passes over blocks
    of t, before the first is yielded.
    """
    check_capacity(n, MAX_END_DEGREE, "permissible pair enumeration")
    yield from _checked_pairs(u_words(n))


@lru_cache(maxsize=None)
def _idempotent_words(n: int) -> np.ndarray:
    """Every e of T_n with e^2 = e, as read-only ``int8`` rows in
    lexicographic order."""
    words = all_words(n)
    words = words[(_then(words, words) == words).all(axis=1)]
    words.flags.writeable = False
    return words


def brute_force_partners(t: Transformation) -> list[Transformation]:
    """All e with (t, e) permissible, in lexicographic order, by testing
    t^3 = t and then te = et = e on every idempotent e of T_n at once.

    Independent oracle for the counting formula and the constructive
    enumeration; it reads nothing of the root construction.
    """
    check_capacity(t.n, MAX_END_DEGREE, "brute-force partner scan")
    w = np.array(t.word, dtype=np.intp)
    if not (w[w[w]] == w).all():
        return []
    E = _idempotent_words(t.n)
    keep = ((E[:, w] == E) & (w[E] == E)).all(axis=1)
    return [Transformation(tuple(e)) for e in E[keep].tolist()]
