"""The element index of End(T_n), and the universe: the index with its
full product table.

``ElementIndex`` (n <= 6) numbers ``elements(n)`` and packs sets of those
numbers into bitsets.  It reads nothing of the product, so the closed
forms of ``structure`` run on it alone.  ``Universe`` (n <= 5) adds the
table, one ``uint16`` element index per cell, 20.8 MB at n = 5, so a
universe can hold at most 65,536 elements; a larger one is refused with
``CapacityError`` before the table is allocated.  The table and the
bitsets read off it are read-only once built.

The table is the substrate of the brute-force ideals, Green's relations
and kernels of left/right translations; the idempotents those read are
found without it, by ``structure._idempotents``.  It is the composition
table of ``action``: each cell is read off the action of its row and
column element on the generators of T_n, never off the symbolic
product, which ``multiply`` alone computes and the table is compared
with.  It reads nothing of ``cosets``, whose orbits it is the reference
for, so the two sides stay separate.

The value sets of the table's rows and columns (the principal right and
left ideals) and the principal two-sided ideals are kept as packed
bitsets, one row of ``ceil(N / 8)`` bytes per element, so that unions,
inclusions and equality keys of ideals are byte operations over every
cell of the table.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .action import composition_table
from .endomorphisms import Endomorphism, elements
from .errors import CapacityError
from .transformations import BLOCK_ROWS, MAX_TABLE_DEGREE, check_capacity

# ``composition_table`` fills ``uint16`` cells.  The bound is one of the
# representation, not a cost, so ENDTN_CAPACITY_OVERRIDE does not lift it;
# n = 6, with 38,503 elements, fits.
_CELL = np.uint16
MAX_TABLE_SIZE = int(np.iinfo(_CELL).max) + 1


class ElementIndex:
    """End(T_n) as an indexed list, with packed bitsets over its indices."""

    def __init__(self, n: int):
        self.n = n
        self.elements: tuple[Endomorphism, ...] = elements(n)
        self.index: dict[Endomorphism, int] = {
            el: i for i, el in enumerate(self.elements)
        }
        self.size = len(self.elements)
        self.aut_indices, self.phi_indices, self.sigma_indices = (
            np.flatnonzero([getattr(el, kind) for el in self.elements])
            for kind in ("is_aut", "is_phi", "is_sigma4")
        )
        self._element_sets: dict[bytes, frozenset[Endomorphism]] = {}

    def of(self, alpha: Endomorphism) -> int:
        return self.index[alpha]

    def element_set(self, indices) -> frozenset[Endomorphism]:
        return frozenset(self.elements[int(i)] for i in indices)

    def bits_element_set(self, bits: np.ndarray) -> frozenset[Endomorphism]:
        """The elements in a packed bitset, built once per distinct set."""
        key = bits.tobytes()
        cached = self._element_sets.get(key)
        if cached is None:
            cached = self.element_set(self.members(bits))
            self._element_sets[key] = cached
        return cached

    def pack(self, indices) -> np.ndarray:
        """The packed bitset of a set of indices: an index array or list is
        used as it is, any other iterable is read into one."""
        if not isinstance(indices, (np.ndarray, list)):
            indices = np.fromiter(indices, dtype=np.int64)
        mask = np.zeros(self.size, dtype=bool)
        mask[indices] = True
        return np.packbits(mask)

    def members(self, bits: np.ndarray) -> np.ndarray:
        """The sorted indices in a packed bitset."""
        # A bool view: numpy scans bool arrays for nonzeros several times
        # faster than uint8 ones.
        return np.flatnonzero(np.unpackbits(bits, count=self.size).view(bool))


class Universe(ElementIndex):
    """The element index of End(T_n) plus its N x N product table."""

    def __init__(self, n: int):
        check_capacity(n, MAX_TABLE_DEGREE, "product table construction")
        super().__init__(n)
        if self.size > MAX_TABLE_SIZE:
            raise CapacityError(
                f"the product table holds at most {MAX_TABLE_SIZE} elements "
                f"in {np.dtype(_CELL).name} cells, got {self.size}"
            )
        self.table = composition_table(n)
        self.table.flags.writeable = False

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
        """One read-only packed row per row of ``rows``: the set of its
        values."""
        N = self.size
        out = np.empty((N, (N + 7) // 8), dtype=np.uint8)
        for start in range(0, N, BLOCK_ROWS):
            block = rows[start : start + BLOCK_ROWS]
            hit = np.zeros((len(block), N), dtype=bool)
            np.put_along_axis(hit, block, True, axis=1)
            out[start : start + len(block)] = np.packbits(hit, axis=1)
        out.flags.writeable = False
        return out

    # -- ideals ------------------------------------------------------------

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

    def two_sided_ideal(self, i: int) -> frozenset[int]:
        """The members of End a End, where a is element i."""
        rows, label = self.two_sided_ideals
        return frozenset(self.members(rows[label[i]]).tolist())

    @cached_property
    def _class_reach(self) -> np.ndarray:
        """For each row of ``two_sided_ideals``, the OR of ``right_bits |
        left_bits`` over the elements of that J-class."""
        _, label = self.two_sided_ideals
        order = np.argsort(label, kind="stable")
        starts = np.flatnonzero(np.diff(label[order], prepend=-1))
        reach = np.bitwise_or.reduceat(self.right_bits[order], starts, axis=0)
        reach |= np.bitwise_or.reduceat(self.left_bits[order], starts, axis=0)
        return reach

    def is_two_sided_closed(self, indices: frozenset[int]) -> bool:
        """Whether every row and column of every member has its values in
        the set.

        Tested per J-class, which gives the same answer for every subset:
        the set is closed exactly when it holds the reach (``_class_reach``)
        of every J-class a member lies in.  A closed set holding b holds
        End b End, and so the whole J-class of b (each c there is 1 c 1,
        in End c End = End b End) and the rows and columns of all its
        members: a closed set is a union of J-classes that holds their
        reaches.  Conversely the reach of b's class holds b's own row and
        column.
        """
        idx = np.fromiter(indices, dtype=np.int64)
        _, label = self.two_sided_ideals
        touched = self._class_reach[np.unique(label[idx])]
        return not (np.bitwise_or.reduce(touched, axis=0) & ~self.pack(idx)).any()


@lru_cache(maxsize=None)
def get_index(n: int) -> ElementIndex:
    return ElementIndex(n)


@lru_cache(maxsize=None)
def get_universe(n: int) -> Universe:
    return Universe(n)


__all__ = ["ElementIndex", "Universe", "get_index", "get_universe"]
