import itertools
import random

import numpy as np
import pytest

from endtn import action
from endtn.action import (
    action_matrix,
    check_homomorphisms,
    composition_table,
    product_mismatches,
)
from endtn.endomorphisms import apply, elements
from endtn.errors import CapacityError, VerificationError
from endtn.transformations import all_words, compose, generators
from endtn.universe import get_universe
from test_transformations import all_maps


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matrix_is_the_action(n):
    maps = all_maps(n)
    code = {s: i for i, s in enumerate(maps)}
    expected = [[code[apply(el, s)] for s in maps] for el in elements(n)]
    assert action_matrix(n).tolist() == expected


def test_matrix_is_the_action_sampled_at_five():
    maps = all_maps(5)
    code = {s: i for i, s in enumerate(maps)}
    els = elements(5)
    matrix = action_matrix(5)
    assert matrix.shape == (3_226, 3_125) and matrix.dtype == np.uint16
    rng = random.Random(5)
    for _ in range(20_000):
        i, x = rng.randrange(len(els)), rng.randrange(len(maps))
        assert matrix[i, x] == code[apply(els[i], maps[x])]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_composition_codes(n):
    maps = all_maps(n)
    code = {s: i for i, s in enumerate(maps)}
    expected = [[code[compose(s, u)] for u in maps] for s in maps]
    assert action._composition(n).tolist() == expected


@pytest.mark.parametrize(
    "n, checks", [(1, 1), (2, 56), (3, 3_240), (4, 264_960), (5, 30_243_750)]
)
def test_every_element_is_a_homomorphism(n, checks):
    assert checks == len(elements(n)) * n**n * len(generators(n))
    assert check_homomorphisms(n) == checks


def test_a_corrupted_entry_is_caught(monkeypatch):
    matrix = action_matrix(4)
    # An automorphism row, at the map [1, 1, 1, 2]: sent to itself.
    corrupted = matrix.copy()
    corrupted[5, 1] = 1
    assert matrix[5, 1] != 1
    monkeypatch.setattr(action, "action_matrix", lambda n: corrupted)
    with pytest.raises(VerificationError, match="homomorphism"):
        check_homomorphisms(4)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_product_table_has_no_mismatch(n):
    assert product_mismatches(get_universe(n).table, n).shape == (0, 2)


def test_a_corrupted_cell_is_the_one_mismatch():
    table = get_universe(4).table.copy()
    size = len(table)
    for i, j in itertools.islice(
        zip(range(0, size, 7), range(size - 1, -1, -11)), 20
    ):
        corrupted = table.copy()
        corrupted[i, j] = (table[i, j] + 1) % size
        assert product_mismatches(corrupted, 4).tolist() == [[i, j]]


def test_dense_matrix_is_guarded(monkeypatch):
    monkeypatch.delenv("ENDTN_CAPACITY_OVERRIDE", raising=False)
    with pytest.raises(CapacityError):
        action_matrix(6)
    with pytest.raises(CapacityError):
        check_homomorphisms(6)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_composition_table_is_the_universe_table(n):
    table = composition_table(n)
    assert table.dtype == np.uint16
    assert np.array_equal(table, get_universe(n).table)
    assert product_mismatches(table, n).shape == (0, 2)


def _corrupt_call(monkeypatch, which, corrupt):
    """Patch ``act`` so that its call number ``which`` (0: the generators,
    1: the codes that signatures use) returns ``corrupt`` of its result."""
    real, calls = action.act, []

    def patched(words):
        out = real(words)
        calls.append(words)
        return corrupt(out) if len(calls) - 1 == which else out

    monkeypatch.setattr(action, "act", patched)


def test_a_shared_signature_is_refused(monkeypatch):
    els = elements(3)

    def shared(out):
        out[11] = out[10]
        return out

    _corrupt_call(monkeypatch, 0, shared)
    with pytest.raises(VerificationError, match="one signature") as err:
        composition_table(3)
    assert set(err.value.counterexample) == {els[10].key(), els[11].key()}


def test_an_unlisted_product_is_refused(monkeypatch):
    els = elements(3)
    assert els[0].g.is_identity and els[1].is_aut
    signatures = action.act(all_words(3)[action._codes(generators(3))])
    unused = min(set(range(27)) - set(signatures.ravel().tolist()))

    def unlisted(out):
        # aut row 1 sends every code that signatures use to one they don't.
        out[1] = unused
        return out

    _corrupt_call(monkeypatch, 1, unlisted)
    with pytest.raises(VerificationError, match="not a listed element") as err:
        composition_table(3)
    assert err.value.counterexample == (els[0].key(), els[1].key())
