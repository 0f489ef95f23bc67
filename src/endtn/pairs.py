"""Permissible pairs: the parameter space of singular endomorphisms.

A pair (t, e) is permissible when t^3 = t and te = et = e^2 = e.  Every
t admitting such an e satisfies t^3 = t and fixes at least one point;
these t, the set U_n, are found by one array test over all n^n image
words.  The admissible e of each t are built from its base, the fixed
points (J) and the low side of each 2-cycle (I), and its roots: each
point is sent to the first of x, xt, xt^2 in the base, and e is fixed by
its values there.  One cached table per J/I pattern of the base lists
those values, so the partners of every t of a pattern are one gather of
that table at their roots.  Every pair so built is checked against the
defining identities, in array passes over blocks of t, before any is
returned, and only members of U_n, which every e is, are made into
transformations.  ``brute_force_partners`` is the independent side: an
array scan of every idempotent of T_n.
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
    word_codes,
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


def count_pairs_for(t: Transformation) -> int:
    """Number of e with (t, e) permissible: ``pair_counts`` on t's row."""
    if not is_in_U(t):
        raise ValueError("t admits no permissible partner (t is not in U_n)")
    return int(pair_counts(np.array([t.word]))[0])


def pair_counts(t_words: np.ndarray) -> np.ndarray:
    """sum_r C(|J|, r) r^(|I|+|J|-r) for each row of ``t_words`` (image
    words of members of U_n): J, the fixed points, and I, the low side of
    each 2-cycle, are counted apart from ``_roots`` in one array pass, and
    the sum is taken once per (|J|, |I|), exactly (from n = 23 it outgrows
    ``int64``)."""
    n = t_words.shape[1]
    x, t = np.arange(n), t_words
    j = np.count_nonzero(t == x, axis=1)
    i = np.count_nonzero((x < t) & (np.take_along_axis(t, t, axis=1) == x), axis=1)
    codes, inverse = np.unique(j * (n + 1) + i, return_inverse=True)
    sums = [
        sum(math.comb(jj, r) * r ** (ii + jj - r) for r in range(1, jj + 1))
        for jj, ii in (divmod(code, n + 1) for code in codes.tolist())
    ]
    return np.array(sums, dtype=object)[inverse]


def _roots(t_words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pattern and the roots of each t in the rows of ``t_words``
    (image words of members of U_n).

    A point is in the base if it is fixed (J) or the low side of a 2-cycle
    (I); the pattern labels each point 1 (J), 2 (I) or 0 (neither).  The
    root of x is the first of x, xt, xt^2 that lies in the base.
    """
    t = t_words
    x = np.arange(t.shape[1])
    t2 = _then(t, t)
    fixed = t == x
    low = (x < t) & (t2 == x)
    base = fixed | low
    root = np.where(base, x, np.where(_then(t, base), t, t2))
    return fixed + 2 * low, root


@lru_cache(maxsize=None)
def _partner_table(labels: str) -> np.ndarray:
    """The partners of every t whose base points, in ascending order, are
    labelled ``labels`` ("J" fixed, "I" low side of a 2-cycle), as
    read-only ``int8`` rows of local base positions.

    For each non-empty R subset of J (lexicographic order) every function
    f: (J \\ R) u I -> R (odometer order) extends uniquely to an
    idempotent e with image R satisfying te = et = e: the identity on R,
    and x e = f(root x).  Row by row, f on the base is listed.
    """
    k = len(labels)
    J = [i for i, label in enumerate(labels) if label == "J"]
    subsets = sorted(
        c for size in range(1, len(J) + 1) for c in itertools.combinations(J, size)
    )
    rows = [np.zeros((0, k), dtype=np.int8)]
    for R in subsets:
        domain = [i for i in range(k) if i not in R]
        f = np.tile(np.arange(k, dtype=np.int8), (len(R) ** len(domain), 1))
        values = itertools.product(R, repeat=len(domain))
        f[:, domain] = np.array(list(values), dtype=np.int8).reshape(len(f), -1)
        rows.append(f)
    table = np.concatenate(rows)
    table.flags.writeable = False
    return table


def _partner_block(t_words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The number of partners of each t in the rows of ``t_words`` and
    their image words, grouped by t in row order, each t's in the order of
    its pattern's ``_partner_table``: one gather per pattern.  Nothing is
    checked here."""
    n = t_words.shape[1]
    pattern, root = _roots(t_words)
    _, first, of_pattern = np.unique(
        pattern @ 3 ** np.arange(n), return_index=True, return_inverse=True
    )
    # Each pattern's partners as image words on its base points; the other
    # columns are never read, since every root lies in the base.
    partners = []
    for row in first:
        base = np.flatnonzero(pattern[row])
        table = _partner_table("".join(" JI"[p] for p in pattern[row, base]))
        on_base = np.zeros((len(table), n), dtype=np.int8)
        on_base[:, base] = base[table]
        partners.append(on_base)
    sizes = np.array([len(p) for p in partners], dtype=np.intp)[of_pattern]
    starts = np.cumsum(sizes) - sizes
    e_words = np.empty((sizes.sum(), n), dtype=np.int8)
    for p, on_base in enumerate(partners):
        ts = np.flatnonzero(of_pattern == p)
        slots = starts[ts, None] + np.arange(len(on_base))
        e_words[slots.ravel()] = on_base[:, root[ts]].swapaxes(0, 1).reshape(-1, n)
    return sizes, e_words


# Rows of t per ``_partner_block`` and ``_check_pairs`` call in
# ``_checked_pair_words``.  Both index with 8-byte copies of the words, so
# one batch of all 524,574 pairs at n = 7 would hold tens of MB at once.
_CHECK_ROWS = 4096


def _checked_pair_words(t_words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The number of partners of each t in the rows of ``t_words`` (image
    words of members of U_n) and their image words, grouped by t in row
    order.  Every pair is built and checked, in array passes over blocks of
    ``_CHECK_ROWS`` t, before any is returned."""
    n = t_words.shape[1]
    sizes, e_words = [np.zeros(0, dtype=np.intp)], [np.zeros((0, n), dtype=np.int8)]
    for start in range(0, len(t_words), _CHECK_ROWS):
        block = t_words[start : start + _CHECK_ROWS]
        block_sizes, block_e = _partner_block(block)
        _check_pairs(np.repeat(block, block_sizes, axis=0), block_e)
        sizes.append(block_sizes)
        e_words.append(block_e)
    return np.concatenate(sizes), np.concatenate(e_words)


def u_members(words: np.ndarray) -> list[Transformation]:
    """The ``Transformation`` of each row of ``words``, looked up among the
    members of U_n by ``word_codes``: only members of U_n are made, once
    each.  A row outside U_n raises ``VerificationError``."""
    u = u_words(words.shape[1])
    codes, u_codes = word_codes(words), word_codes(u)
    at = np.minimum(np.searchsorted(u_codes, codes), len(u) - 1)
    missed = u_codes[at] != codes
    if missed.any():
        word = Transformation(tuple(words[np.argmax(missed)].tolist()))
        raise VerificationError(
            f"{word.to_text()} is not in U_n", counterexample=word
        )
    present, inverse = np.unique(at, return_inverse=True)
    made = [Transformation(tuple(w)) for w in u[present].tolist()]
    return [made[i] for i in inverse.tolist()]


def _checked_pairs(t_words: np.ndarray) -> Iterator[PermissiblePair]:
    """Every permissible pair of each t in the rows of ``t_words`` (image
    words of members of U_n), grouped by t in row order.  All the pairs
    are built and checked by ``_checked_pair_words`` before the first is
    yielded."""
    sizes, e_words = _checked_pair_words(t_words)
    es = iter(u_members(e_words))
    for t, size in zip(u_members(t_words), sizes.tolist()):
        for e in itertools.islice(es, size):
            yield PermissiblePair._checked(t, e)


@lru_cache(maxsize=None)
def u_words(n: int) -> np.ndarray:
    """The image words of U_n, in lexicographic order, as read-only
    ``int8`` rows: every t of T_n with t^3 = t and a fixed point, by an
    array test over all n^n image words."""
    words = all_words(n)
    keep = np.empty(len(words), dtype=bool)
    # One block per first image point: ``_then`` indexes with 8-byte copies
    # of the words, 46 MB at once over all of T_7.
    for block, kept in zip(np.split(words, n), np.split(keep, n)):
        cube = _then(_then(block, block), block)
        fixes = (block == np.arange(n, dtype=np.int8)).any(axis=1)
        kept[:] = fixes & (cube == block).all(axis=1)
    words = words[keep]
    words.flags.writeable = False
    return words


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
