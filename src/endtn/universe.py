"""Interned element universe of End(T_n) with its full product table.

The table is the substrate for every brute-force computation (ideals,
Green's relations, kernels of left/right translations).  It is filled
from the symbolic multiplication, which is itself verified against the
function-composition oracle elsewhere; the two verification paths stay
separate.

The value sets of the table's rows and columns (the principal right and
left ideals) and the principal two-sided ideals are kept as packed
bitsets, one row of ``ceil(N / 8)`` bytes per element, so that unions,
inclusions and equality keys of ideals are byte operations over every
cell of the table.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .endomorphisms import (
    Endomorphism,
    TypeTag,
    enumerate_End,
    klein_four,
    multiply,
    star_map,
)
from .errors import VerificationError
from .transformations import check_capacity, conjugate_words, word_codes

MAX_TABLE_DEGREE = 5

# Rows per step when scattering the table into bitsets; bounds the index
# temporaries to a few MB at n = 5.
_SCATTER_ROWS = 256


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
        self._element_sets: dict[bytes, frozenset[Endomorphism]] = {}

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
        if len(phis):
            table[np.ix_(phis, auts)] = self._phi_aut_block()
        for i in phis:
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

    def _phi_aut_block(self) -> np.ndarray:
        """table[phis, auts]: phi(t, e) aut(g) = phi(t^g, e^g), by gathers.

        Each (t, e) is keyed by its base-n word code, and the conjugated
        codes are mapped back to element indices by binary search.
        """
        n = self.n
        phis = [self.elements[i] for i in self.phi_indices]
        t_words = np.array([el.t.word for el in phis], dtype=np.int64)
        e_words = np.array([el.e.word for el in phis], dtype=np.int64)

        def pair_codes(t, e):
            return word_codes(t) * n**n + word_codes(e)

        codes = pair_codes(t_words, e_words)
        order = np.argsort(codes)
        sorted_codes = codes[order]
        block = np.empty((len(phis), len(self.aut_indices)), dtype=np.int32)
        for col, i in enumerate(self.aut_indices):
            g = self.elements[i].g
            key = pair_codes(conjugate_words(t_words, g), conjugate_words(e_words, g))
            pos = np.minimum(np.searchsorted(sorted_codes, key), len(codes) - 1)
            missing = np.flatnonzero(sorted_codes[pos] != key)
            if len(missing):
                raise VerificationError(
                    "a conjugated permissible pair is not an element",
                    counterexample=(phis[missing[0]], self.elements[i]),
                )
            block[:, col] = self.phi_indices[order[pos]]
        return block

    # -- indexing helpers --------------------------------------------------

    def of(self, alpha: Endomorphism) -> int:
        return self.index[alpha]

    def element_set(self, indices) -> frozenset[Endomorphism]:
        return frozenset(self.elements[int(i)] for i in indices)

    def index_set(self, elements) -> frozenset[int]:
        return frozenset(self.index[el] for el in elements)

    def bits_element_set(self, bits: np.ndarray) -> frozenset[Endomorphism]:
        """The elements in a packed bitset, built once per distinct set."""
        key = bits.tobytes()
        cached = self._element_sets.get(key)
        if cached is None:
            cached = self.element_set(self.members(bits))
            self._element_sets[key] = cached
        return cached

    # -- structural subsets (from the defining parameter conditions) -------

    @property
    def idempotent_indices(self) -> np.ndarray:
        """Brute-force idempotents: fixed points of the diagonal."""
        diag = self.table[np.arange(self.size), np.arange(self.size)]
        return np.nonzero(diag == np.arange(self.size))[0]

    # -- value sets of rows and columns ------------------------------------

    @cached_property
    def right_bits(self) -> np.ndarray:
        """right_bits[i] is the set of values of table[i, :] as packed bits."""
        return self._value_sets(self.table)

    @cached_property
    def left_bits(self) -> np.ndarray:
        """left_bits[j] is the set of values of table[:, j] as packed bits."""
        return self._value_sets(self.table.T)

    def _value_sets(self, rows: np.ndarray) -> np.ndarray:
        N = self.size
        out = np.empty((N, (N + 7) // 8), dtype=np.uint8)
        for start in range(0, N, _SCATTER_ROWS):
            block = rows[start : start + _SCATTER_ROWS]
            hit = np.zeros((len(block), N), dtype=bool)
            np.put_along_axis(hit, block, True, axis=1)
            out[start : start + len(block)] = np.packbits(hit, axis=1)
        return out

    def pack(self, indices) -> np.ndarray:
        """The packed bitset of a set of indices."""
        mask = np.zeros(self.size, dtype=bool)
        mask[np.fromiter(indices, dtype=np.int64)] = True
        return np.packbits(mask)

    def members(self, bits: np.ndarray) -> np.ndarray:
        """The sorted indices in a packed bitset."""
        return np.flatnonzero(np.unpackbits(bits, count=self.size))

    # -- ideals ------------------------------------------------------------

    def right_ideal(self, i: int) -> np.ndarray:
        return self.members(self.right_bits[i])

    def left_ideal(self, i: int) -> np.ndarray:
        return self.members(self.left_bits[i])

    @cached_property
    def two_sided_ideals(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct principal two-sided ideals End a End as packed rows,
        and for each element the number of its row.

        Each is the union of the left ideals of the members of a End,
        computed once per distinct right ideal (End(aEnd) is already
        two-sided).  Equal ideals share a row, so the row numbers label
        the J-classes.
        """
        rows: dict[bytes, int] = {}
        row_of_right: dict[bytes, int] = {}
        label = np.empty(self.size, dtype=np.int64)
        for i, right in enumerate(self.right_bits):
            key = right.tobytes()
            if key not in row_of_right:
                left = self.left_bits[self.members(right)]
                union = np.bitwise_or.reduce(left, axis=0)
                row_of_right[key] = rows.setdefault(union.tobytes(), len(rows))
            label[i] = row_of_right[key]
        packed = np.frombuffer(b"".join(rows), dtype=np.uint8)
        return packed.reshape(len(rows), -1), label

    def two_sided_bits(self, i: int) -> np.ndarray:
        """End a End as packed bits, where a is element i."""
        rows, label = self.two_sided_ideals
        return rows[label[i]]

    def two_sided_ideal(self, i: int) -> frozenset[int]:
        """The members of ``two_sided_bits(i)``."""
        return frozenset(self.members(self.two_sided_bits(i)).tolist())

    def is_two_sided_closed(self, indices: frozenset[int]) -> bool:
        """Whether every row and column of every member has its values in
        the set."""
        idx = np.fromiter(indices, dtype=np.int64)
        outside = ~self.pack(idx)
        return not (
            (self.right_bits[idx] & outside).any()
            or (self.left_bits[idx] & outside).any()
        )


@lru_cache(maxsize=None)
def get_universe(n: int) -> Universe:
    return Universe(n)


__all__ = ["Universe", "get_universe", "klein_four", "MAX_TABLE_DEGREE"]
