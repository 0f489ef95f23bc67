"""Interned element universe of End(T_n) with its full product table.

The table is the substrate for every brute-force computation (ideals,
Green's relations, kernels of left/right translations).  It is filled
from the symbolic multiplication, which is itself verified against the
function-composition oracle elsewhere; the two verification paths stay
separate.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .endomorphisms import (
    Endomorphism,
    TypeTag,
    enumerate_End,
    klein_four,
    multiply,
)
from .transformations import check_capacity

MAX_TABLE_DEGREE = 5


class Universe:
    """End(T_n) as an indexed list plus an N x N product table."""

    def __init__(self, n: int):
        check_capacity(n, MAX_TABLE_DEGREE, "product table construction")
        self.n = n
        self.elements: list[Endomorphism] = sorted(
            enumerate_End(n), key=Endomorphism.sort_key
        )
        self.index: dict[Endomorphism, int] = {
            el: i for i, el in enumerate(self.elements)
        }
        self.size = len(self.elements)
        self.aut_indices = np.array(
            [i for i, el in enumerate(self.elements) if el.is_aut], dtype=np.int64
        )
        self.phi_indices = np.array(
            [i for i, el in enumerate(self.elements) if el.is_phi], dtype=np.int64
        )
        self.sigma_indices = np.array(
            [i for i, el in enumerate(self.elements) if el.is_sigma4], dtype=np.int64
        )
        self.table = self._build_table()
        self._two_sided_cache: dict[bytes, frozenset[int]] = {}

    # -- construction ------------------------------------------------------

    def _build_table(self) -> np.ndarray:
        N = self.size
        els = self.elements
        idx = self.index
        table = np.empty((N, N), dtype=np.int32)

        auts = self.aut_indices
        phis = self.phi_indices
        sigmas = self.sigma_indices

        # Star companions of every phi, for the O(1) phi x phi block.
        plus = np.empty(N, dtype=np.int32)
        minus = np.empty(N, dtype=np.int32)
        zero = np.empty(N, dtype=np.int32)
        for j in phis:
            el = els[j]
            from .endomorphisms import star_map

            plus[j] = idx[star_map(el, "+")]
            minus[j] = idx[star_map(el, "-")]
            zero[j] = idx[star_map(el, "0")]

        # aut rows: aut x aut by composition, aut absorbs into phi.
        for i in auts:
            for j in auts:
                table[i, j] = idx[multiply(els[i], els[j])]
            for j in sigmas:
                table[i, j] = idx[multiply(els[i], els[j])]
        if len(phis):
            table[np.ix_(auts, phis)] = phis[np.newaxis, :]

        # phi rows.
        for i in phis:
            for j in auts:
                table[i, j] = idx[multiply(els[i], els[j])]
            for j in sigmas:
                table[i, j] = idx[multiply(els[i], els[j])]
        if len(phis):
            by_tag = {tag: [] for tag in TypeTag}
            for i in phis:
                by_tag[els[i].type_tag].append(i)
            blocks = {
                TypeTag.ODD: phis.astype(np.int32),
                TypeTag.EVEN: plus[phis],
                TypeTag.NON_PERMUTATION: minus[phis],
                TypeTag.TRIVIAL: zero[phis],
            }
            for tag, rows in by_tag.items():
                if rows and tag in blocks:
                    table[np.ix_(np.array(rows), phis)] = blocks[tag][np.newaxis, :]

        # sigma rows.
        for i in sigmas:
            for j in auts:
                table[i, j] = idx[multiply(els[i], els[j])]
            for j in sigmas:
                table[i, j] = idx[multiply(els[i], els[j])]
        if len(sigmas) and len(phis):
            table[np.ix_(sigmas, phis)] = phis[np.newaxis, :]
        return table

    # -- indexing helpers --------------------------------------------------

    def of(self, alpha: Endomorphism) -> int:
        return self.index[alpha]

    def element_set(self, indices) -> frozenset[Endomorphism]:
        return frozenset(self.elements[int(i)] for i in indices)

    def index_set(self, elements) -> frozenset[int]:
        return frozenset(self.index[el] for el in elements)

    # -- structural subsets (from the defining parameter conditions) -------

    @property
    def idempotent_indices(self) -> np.ndarray:
        """Brute-force idempotents: fixed points of the diagonal."""
        diag = self.table[np.arange(self.size), np.arange(self.size)]
        return np.nonzero(diag == np.arange(self.size))[0]

    # -- ideals ------------------------------------------------------------

    def right_ideal(self, i: int) -> np.ndarray:
        return np.unique(self.table[i])

    def left_ideal(self, i: int) -> np.ndarray:
        return np.unique(self.table[:, i])

    def two_sided_ideal(self, i: int) -> frozenset[int]:
        """End a End, memoised by right ideal (End(aEnd) is already two-sided)."""
        right = self.right_ideal(i)
        key = right.tobytes()
        cached = self._two_sided_cache.get(key)
        if cached is None:
            cached = frozenset(int(x) for x in np.unique(self.table[:, right]))
            self._two_sided_cache[key] = cached
        return cached

    def is_two_sided_closed(self, indices: frozenset[int]) -> bool:
        idx = np.fromiter(indices, dtype=np.int64)
        mask = np.zeros(self.size, dtype=bool)
        mask[idx] = True
        return bool(mask[self.table[:, idx]].all() and mask[self.table[idx, :]].all())


@lru_cache(maxsize=None)
def get_universe(n: int) -> Universe:
    return Universe(n)


__all__ = ["Universe", "get_universe", "klein_four", "MAX_TABLE_DEGREE"]
