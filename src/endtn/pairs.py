"""Permissible pairs: the parameter space of singular endomorphisms.

A pair (t, e) is permissible when t^3 = t and te = et = e^2 = e.  Every
t admitting such an e satisfies t^3 = t and fixes at least one point;
the admissible e are enumerated constructively from the J/K/I/It/M
partition of the domain of t.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .transformations import (
    MAX_END_DEGREE,
    Transformation,
    check_capacity,
    compose,
    enumerate_all,
)


@dataclass(frozen=True)
class UDecomposition:
    """Domain partition of a transformation t with t^3 = t (1-indexed).

    J: fixed points; K: points with kt = kt^2 != k; I, It: the two sides
    of the fixed-point-free 2-cycles; M: points at distance one from a
    2-cycle.
    """

    J: frozenset[int]
    K: frozenset[int]
    I: frozenset[int]
    It: frozenset[int]
    M: frozenset[int]


@dataclass(frozen=True)
class PermissiblePair:
    t: Transformation
    e: Transformation

    def __post_init__(self):
        if not is_permissible(self.t, self.e):
            raise ValueError(
                f"({self.t.to_text()}, {self.e.to_text()}) is not a permissible pair"
            )

    def sort_key(self):
        return (self.t.word, self.e.word)


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


def decompose(t: Transformation) -> UDecomposition:
    """The J/K/I/It/M partition of the domain of t (requires t^3 = t)."""
    t2 = compose(t, t)
    if compose(t2, t) != t:
        raise ValueError("decompose requires t^3 = t")
    J, K, I, It, M = set(), set(), set(), set(), set()
    for x in range(t.n):
        j, i2 = t.word[x], t2.word[x]
        if j == x:
            J.add(x + 1)
        elif i2 == j:
            K.add(x + 1)
        elif i2 == x:
            # x lies on a 2-cycle; the smaller endpoint goes to I.
            (I if x < j else It).add(x + 1)
        else:
            M.add(x + 1)
    return UDecomposition(
        frozenset(J), frozenset(K), frozenset(I), frozenset(It), frozenset(M)
    )


def count_pairs_for(t: Transformation) -> int:
    """Number of e with (t, e) permissible: sum_r C(|J|, r) r^(|I|+|J|-r)."""
    if not is_in_U(t):
        raise ValueError("t admits no permissible partner (t is not in U_n)")
    dec = decompose(t)
    j, i = len(dec.J), len(dec.I)
    return sum(math.comb(j, r) * r ** (i + j - r) for r in range(1, j + 1))


def enumerate_pairs_for(t: Transformation) -> Iterator[PermissiblePair]:
    """All e with (t, e) permissible, built constructively.

    For each non-empty R subset of J (lexicographic order) every function
    f: (J \\ R) u I -> R (odometer order) extends uniquely to an
    idempotent e with image R satisfying te = et = e: the identity on R,
    and x e = f(root x), where the root of x is the first of x, xt, xt^2
    that lies in J u I.
    """
    dec = decompose(t)
    if not dec.J:
        raise ValueError("t admits no permissible partner (t is not in U_n)")
    # 0-indexed from here on.
    J = sorted(x - 1 for x in dec.J)
    I = sorted(x - 1 for x in dec.I)
    base, w = set(J + I), t.word
    root = [next(y for y in (x, w[x], w[w[x]]) if y in base) for x in range(t.n)]
    subsets = sorted(
        c for size in range(1, len(J) + 1) for c in itertools.combinations(J, size)
    )
    for R in subsets:
        domain = sorted([j for j in J if j not in R] + I)
        f = list(range(t.n))
        for values in itertools.product(R, repeat=len(domain)):
            for x, value in zip(domain, values):
                f[x] = value
            yield PermissiblePair(t, Transformation(tuple(f[r] for r in root)))


def enumerate_P(n: int) -> Iterator[PermissiblePair]:
    """All permissible pairs of degree n, grouped by t in lexicographic order."""
    check_capacity(n, MAX_END_DEGREE, "permissible pair enumeration")
    for t in enumerate_all(n):
        if is_in_U(t):
            yield from enumerate_pairs_for(t)


def brute_force_partners(t: Transformation) -> list[Transformation]:
    """All e with (t, e) permissible, by scanning every e in T_n.

    Independent oracle for the counting formula and the constructive
    enumeration; deliberately ignorant of the J/K/I/It/M structure.
    """
    check_capacity(t.n, MAX_END_DEGREE, "brute-force partner scan")
    return [e for e in enumerate_all(t.n) if is_permissible(t, e)]
