import random

import numpy as np
import pytest

from endtn.endomorphisms import epsilon, multiply
from endtn.errors import CapacityError
from endtn.universe import Universe, get_universe


@pytest.fixture(scope="module")
def uni4():
    return get_universe(4)


class TestTable:
    def test_cached(self):
        assert get_universe(3) is get_universe(3)

    def test_sizes(self):
        assert get_universe(2).size == 7
        assert get_universe(3).size == 40
        assert get_universe(4).size == 345

    def test_table_matches_symbolic_product(self, uni4):
        rng = random.Random(3)
        for _ in range(2000):
            i = rng.randrange(uni4.size)
            j = rng.randrange(uni4.size)
            expected = multiply(uni4.elements[i], uni4.elements[j])
            assert uni4.elements[uni4.table[i, j]] is expected

    def test_identity_row_and_column(self, uni4):
        e = uni4.of(epsilon(4))
        assert np.array_equal(uni4.table[e], np.arange(uni4.size))
        assert np.array_equal(uni4.table[:, e], np.arange(uni4.size))

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            Universe(6)


class TestDerivedSets:
    def test_idempotents(self, uni4):
        idem = set(uni4.idempotent_indices.tolist())
        for i in range(uni4.size):
            assert (int(uni4.table[i, i]) == i) == (i in idem)
        assert len(idem) == 1 + 4 + 24 + 40 + 41

    def test_principal_ideals_contain_generator_products(self, uni4):
        rng = random.Random(5)
        for _ in range(30):
            i = rng.randrange(uni4.size)
            right = set(uni4.right_ideal(i).tolist())
            left = set(uni4.left_ideal(i).tolist())
            two = uni4.two_sided_ideal(i)
            assert right <= two and left <= two
            assert uni4.is_two_sided_closed(two)
            j = rng.randrange(uni4.size)
            assert int(uni4.table[i, j]) in right
            assert int(uni4.table[j, i]) in left

    def test_closure_check_rejects_non_ideal(self, uni4):
        assert not uni4.is_two_sided_closed(frozenset({uni4.of(epsilon(4))}))
