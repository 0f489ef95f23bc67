import hashlib
import random

import numpy as np
import pytest

from endtn import universe
from endtn.endomorphisms import TypeTag, elements, epsilon, multiply
from endtn.errors import CapacityError
from endtn.structure import enumerate_ideals
from endtn.universe import MAX_TABLE_SIZE, Universe, get_index, get_universe


# sha256 of ``get_universe(n).table.astype(np.int32).tobytes()``, recorded
# from the table built by the symbolic product block by block when its
# cells were int32; the uint16 table is hashed over the same int32 bytes.
# The table is now the composition table of ``action``, which must
# reproduce these digests without them being recorded again.
TABLE_SHA256 = {
    1: "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",
    2: "838af80083cb678e2167d6cb1baf87d804d8e7ed0a0032f5db0b595ad5d2637a",
    3: "06f5cc93ee4c77b604f706b880f9e14bd5d27bf78499a06f4c3ced0f30044d58",
    4: "c5eba732186d5e347ff21df0a7a760d01417796fd7cabb2ee35f3c8c3746d508",
    5: "e898c749d858750467baa61a4fab5445c25d2b774c136fe996505f9d4f6e870f",
}


@pytest.fixture(scope="module")
def uni4():
    return get_universe(4)


# Per-element readings of the table, kept as references for the bitsets.


def reference_right_ideal(table, i):
    return np.unique(table[i])


def reference_left_ideal(table, i):
    return np.unique(table[:, i])


def reference_two_sided_ideal(table, i):
    return frozenset(np.unique(table[:, np.unique(table[i])]).tolist())


def reference_is_two_sided_closed(table, indices):
    idx = np.fromiter(indices, dtype=np.int64)
    mask = np.zeros(len(table), dtype=bool)
    mask[idx] = True
    return bool(mask[table[:, idx]].all() and mask[table[idx, :]].all())


def reference_reach(table):
    """reach[i, v]: whether v is a value of row i or of column i."""
    reach = np.zeros(table.shape, dtype=bool)
    np.put_along_axis(reach, table, True, axis=1)
    np.put_along_axis(reach, table.T, True, axis=1)
    return reach


def reference_is_closed_by_reach(reach, indices):
    """``reference_is_two_sided_closed`` read off ``reference_reach``."""
    idx = np.fromiter(indices, dtype=np.int64)
    mask = np.zeros(len(reach), dtype=bool)
    mask[idx] = True
    return not (reach[idx] & ~mask).any()


class TestTable:
    def test_cached(self):
        assert get_universe(3) is get_universe(3)

    def test_sizes(self):
        assert get_universe(2).size == 7
        assert get_universe(3).size == 40
        assert get_universe(4).size == 345

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_elements_and_kind_blocks_come_from_the_one_tuple(self, n):
        uni = get_universe(n)
        assert len(uni.elements) == len(elements(n))
        assert all(a is b for a, b in zip(uni.elements, elements(n)))
        for indices, kind in (
            (uni.aut_indices, "is_aut"),
            (uni.phi_indices, "is_phi"),
            (uni.sigma_indices, "is_sigma4"),
        ):
            expected = [i for i, el in enumerate(uni.elements) if getattr(el, kind)]
            assert indices.tolist() == expected

    def test_table_matches_symbolic_product(self, uni4):
        els = uni4.elements
        for i, a in enumerate(els):
            expected = [uni4.of(multiply(a, b)) for b in els]
            assert uni4.table[i].tolist() == expected

    def test_phi_aut_block_matches_symbolic_product(self):
        """The formula's phi x Aut block, phi(t, e) aut(g) = phi(t^g, e^g),
        against the composition table."""
        uni = get_universe(5)
        els = uni.elements
        auts = [els[j] for j in uni.aut_indices]
        for i in uni.phi_indices:
            expected = [uni.of(multiply(els[i], b)) for b in auts]
            assert uni.table[i, uni.aut_indices].tolist() == expected

    def test_aut_rows_and_one_phi_row_per_type_match_at_five(self):
        uni = get_universe(5)
        els = uni.elements
        rows = list(uni.aut_indices)
        for tag in TypeTag:
            rows += [i for i in uni.phi_indices if els[i].type_tag is tag][:1]
        assert len(rows) == 120 + 4
        for i in rows:
            expected = [uni.of(multiply(els[i], b)) for b in els]
            assert uni.table[i].tolist() == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_table_bytes_are_pinned(self, n):
        cells = get_universe(n).table.astype(np.int32).tobytes()
        assert hashlib.sha256(cells).hexdigest() == TABLE_SHA256[n]

    def test_table_cells_are_uint16(self):
        table = get_universe(5).table
        assert table.dtype == np.uint16
        assert table.nbytes == 2 * 3226**2

    @pytest.mark.parametrize("override", ["", "1"])
    def test_cell_bound_is_checked_before_the_table(self, monkeypatch, override):
        """A universe past 65,536 elements would wrap in uint16 cells: it is
        refused, override or not, before the table is built."""
        monkeypatch.setenv("ENDTN_CAPACITY_OVERRIDE", override)

        def too_many(self, n):
            self.n, self.size = n, MAX_TABLE_SIZE + 1

        def build(n):
            raise AssertionError("the table was built")

        monkeypatch.setattr(universe.ElementIndex, "__init__", too_many)
        monkeypatch.setattr(universe, "composition_table", build)
        assert MAX_TABLE_SIZE == 65_536
        with pytest.raises(CapacityError, match="65536"):
            Universe(3)

    def test_shared_arrays_are_read_only(self, uni4):
        for array in (uni4.table, uni4.right_bits, uni4.left_bits):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = array[0, 1]

    def test_identity_row_and_column(self, uni4):
        e = uni4.of(epsilon(4))
        assert np.array_equal(uni4.table[e], np.arange(uni4.size))
        assert np.array_equal(uni4.table[:, e], np.arange(uni4.size))

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            Universe(6)

    def test_the_index_serves_one_degree_past_the_table(self, monkeypatch):
        monkeypatch.delenv("ENDTN_CAPACITY_OVERRIDE", raising=False)
        with pytest.raises(CapacityError, match="product table construction"):
            get_universe(6)
        index = get_index(6)
        assert index is get_index(6) and index.elements is elements(6)
        assert index.aut_indices.tolist() == list(range(720))
        bits = index.pack(index.phi_indices)
        assert index.members(bits).tolist() == list(range(720, 38_503))
        with pytest.raises(CapacityError):
            get_index(7)


class TestDerivedSets:
    def test_principal_ideals_contain_generator_products(self, uni4):
        rng = random.Random(5)
        for _ in range(30):
            i = rng.randrange(uni4.size)
            right = set(uni4.members(uni4.right_bits[i]).tolist())
            left = set(uni4.members(uni4.left_bits[i]).tolist())
            two = uni4.two_sided_ideal(i)
            assert right <= two and left <= two
            assert uni4.is_two_sided_closed(uni4.pack(two))
            j = rng.randrange(uni4.size)
            assert int(uni4.table[i, j]) in right
            assert int(uni4.table[j, i]) in left

    def test_closure_check_rejects_non_ideal(self, uni4):
        assert not uni4.is_two_sided_closed(uni4.pack([uni4.of(epsilon(4))]))


class TestBitsets:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_principal_ideals_match_references(self, n):
        uni = get_universe(n)
        for i in range(uni.size):
            right, left = uni.members(uni.right_bits[i]), uni.members(uni.left_bits[i])
            assert np.array_equal(right, reference_right_ideal(uni.table, i))
            assert np.array_equal(left, reference_left_ideal(uni.table, i))
            assert uni.two_sided_ideal(i) == reference_two_sided_ideal(uni.table, i)
            # One-sided ideals are closed on one side only, unless two-sided.
            for one_sided in (right, left):
                assert uni.is_two_sided_closed(uni.pack(one_sided)) == (
                    reference_is_two_sided_closed(uni.table, one_sided)
                )

    def test_row_and_column_sets_at_five(self):
        uni = get_universe(5)
        table = uni.table
        for i in range(uni.size):
            right, left = uni.members(uni.right_bits[i]), uni.members(uni.left_bits[i])
            assert np.array_equal(right, reference_right_ideal(table, i))
            assert np.array_equal(left, reference_left_ideal(table, i))

    def test_pack_and_members_round_trip(self, uni4):
        rng = random.Random(7)
        for _ in range(50):
            subset = sorted(rng.sample(range(uni4.size), rng.randrange(uni4.size)))
            assert uni4.members(uni4.pack(subset)).tolist() == subset

    def test_pack_reads_arrays_lists_and_sets_alike(self, uni4):
        rng = random.Random(11)
        for size in (0, 1, 17, uni4.size):
            subset = rng.sample(range(uni4.size), size)
            packed = uni4.pack(np.array(subset, dtype=np.int64)).tobytes()
            assert uni4.pack(subset).tobytes() == packed
            assert uni4.pack(frozenset(subset)).tobytes() == packed

    @pytest.mark.parametrize("n", [3, 4])
    def test_closure_on_ideals_less_one_element(self, n):
        uni = get_universe(n)
        rng = random.Random(n)
        for desc in enumerate_ideals(n):
            ideal = frozenset(uni.members(desc.mask).tolist())
            assert uni.is_two_sided_closed(desc.mask)
            smaller = ideal - {rng.choice(sorted(ideal))}
            assert uni.is_two_sided_closed(uni.pack(smaller)) == (
                reference_is_two_sided_closed(uni.table, smaller)
            )

    def test_closure_on_random_subsets(self, uni4):
        rng = random.Random(11)
        for _ in range(300):
            size = rng.randrange(uni4.size + 1)
            subset = frozenset(rng.sample(range(uni4.size), size))
            assert uni4.is_two_sided_closed(uni4.pack(subset)) == (
                reference_is_two_sided_closed(uni4.table, subset)
            )

    def test_closure_at_five(self):
        """Every listed ideal, each less its least member or plus one
        element outside it, and each single J-class."""
        uni = get_universe(5)
        # Read once from the table: reference_is_two_sided_closed alone
        # takes about 16 s over the 610 ideals.
        reach = reference_reach(uni.table)
        rng = random.Random(5)
        for desc in enumerate_ideals(5):
            ideal = frozenset(uni.members(desc.mask).tolist())
            subsets = [ideal, ideal - {min(ideal)}]
            rest = sorted(set(range(uni.size)) - ideal)
            if rest:
                subsets.append(ideal | {rng.choice(rest)})
            for subset in subsets:
                assert uni.is_two_sided_closed(uni.pack(subset)) == (
                    reference_is_closed_by_reach(reach, subset)
                )
        _, label = uni.two_sided_ideals
        for c in np.unique(label):
            cls = frozenset(np.flatnonzero(label == c).tolist())
            expected = reference_is_two_sided_closed(uni.table, cls)
            assert reference_is_closed_by_reach(reach, cls) == expected
            assert uni.is_two_sided_closed(uni.pack(cls)) == expected
