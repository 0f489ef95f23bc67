import hashlib
import math

import numpy as np
import pytest

from endtn.errors import VerificationError
from endtn.pairs import (
    PermissiblePair,
    _check_pairs,
    _checked_pairs,
    _roots,
    brute_force_partners,
    count_pairs_for,
    enumerate_P,
    is_in_U,
    is_permissible,
    pair_counts,
    u_words,
)
from endtn.transformations import Transformation, compose
from test_transformations import all_maps


def u_elements(n):
    return [t for t in all_maps(n) if is_in_U(t)]


class TestPermissibility:
    def test_identity_pairs(self):
        t = Transformation.identity(3)
        assert is_permissible(t, Transformation.constant(3, 2))
        assert is_permissible(t, t)

    def test_requires_cube_root_property(self):
        t = Transformation.from_images([2, 3, 1, 4])  # order 3, t^3 = id != t
        assert not is_permissible(t, Transformation.constant(4, 4))

    def test_e_must_commute(self):
        t = Transformation.from_images([1, 1, 3])
        assert is_permissible(t, Transformation.constant(3, 1))
        assert not is_permissible(t, Transformation.constant(3, 2))

    def test_array_check_agrees_with_the_scalar_one(self):
        maps = all_maps(3)
        for t in maps:
            for e in maps:
                words = np.array([t.word]), np.array([e.word])
                if is_permissible(t, e):
                    _check_pairs(*words)
                else:
                    with pytest.raises(
                        VerificationError, match="not a permissible pair"
                    ) as raised:
                        _check_pairs(*words)
                    assert raised.value.counterexample == (t, e)

    def test_pair_constructor_validates(self):
        with pytest.raises(ValueError):
            PermissiblePair(
                Transformation.from_images([2, 3, 1]), Transformation.constant(3, 1)
            )


def fixed_and_low(t):
    """J and I of t, as the construction's base pattern labels them."""
    pattern = _roots(np.array([t.word], dtype=np.int8))[0][0]
    return np.flatnonzero(pattern == 1).tolist(), np.flatnonzero(pattern == 2).tolist()


class TestDecomposition:
    def test_fixed_points_are_J(self):
        t = Transformation.from_images([1, 3, 2, 1, 5])
        J, I = fixed_and_low(t)
        assert J == [0, 4]
        # 2 <-> 3 is the one 2-cycle; 4 maps straight into J.
        assert I == [1]

    def test_two_cycles_split_between_I_and_It(self):
        for t in u_elements(5):
            J, I = fixed_and_low(t)
            assert J == [x for x in range(5) if t.word[x] == x]
            cycled = {x for x in range(5) if t.word[x] != x == t.word[t.word[x]]}
            high = {t.word[x] for x in I}
            assert set(I) | high == cycled and len(I) == len(high) == len(cycled) / 2
            assert all(x < y for x, y in zip(I, map(t.word.__getitem__, I)))


class TestCounting:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_formula_matches_both_enumerations(self, n):
        # Every pair of U_n from one build, grouped by t.
        constructive = {}
        for pair in _checked_pairs(u_words(n)):
            constructive.setdefault(pair.t, []).append(pair.e)
        ts = u_elements(n)
        assert set(constructive) == set(ts)
        for t in ts:
            formula = count_pairs_for(t)
            brute = brute_force_partners(t)
            assert formula == len(constructive[t]) == len(brute)
            assert set(constructive[t]) == set(brute)

    def test_pair_counts_tell_J_from_I(self):
        """|J| = 2 and |I| = 1 give 2 + 2 = 4 partners; with the two
        swapped the formula gives 1."""
        t = Transformation.from_images([1, 3, 2, 1, 5])
        assert len(brute_force_partners(t)) == count_pairs_for(t) == 4
        words = u_words(5)
        expected = [len(brute_force_partners(Transformation(tuple(w)))) for w in words]
        assert pair_counts(words).tolist() == expected

    def test_pair_counts_are_exact_past_int64(self):
        # The identity of T_23: every idempotent of T_23 is a partner.
        count = pair_counts(np.arange(23, dtype=np.int8)[np.newaxis])[0]
        assert count == sum(math.comb(23, r) * r ** (23 - r) for r in range(1, 24))
        assert count > np.iinfo(np.int64).max

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_brute_scan_matches_the_definition(self, n):
        maps = all_maps(n)
        for t in maps:
            assert brute_force_partners(t) == [e for e in maps if is_permissible(t, e)]

    def test_formula_not_in_U_rejected(self):
        with pytest.raises(ValueError):
            count_pairs_for(Transformation.from_images([2, 3, 1]))

    # t^3 != t; and t^3 = t, but (1 2) fixes no point.  Neither has a
    # partner, and the counting entry point refuses both.
    @pytest.mark.parametrize("images", [[2, 3, 1], [2, 1]])
    def test_enumeration_rejects_t_outside_U(self, images):
        t = Transformation.from_images(images)
        assert brute_force_partners(t) == []
        with pytest.raises(ValueError, match="not in U_n"):
            count_pairs_for(t)

    def test_identity_t_counts_idempotents(self):
        # e ranges over the idempotents of T_n when t is the identity.
        for n in (2, 3, 4, 5):
            t = Transformation.identity(n)
            idempotents = sum(
                1 for e in all_maps(n) if compose(e, e) == e
            )
            assert count_pairs_for(t) == idempotents

    def test_total_sizes(self):
        assert sum(1 for _ in enumerate_P(2)) == 5
        assert sum(1 for _ in enumerate_P(3)) == 34

    def test_enumeration_is_sorted_and_distinct(self):
        pairs = list(enumerate_P(3))
        t_keys = [p.t.word for p in pairs]
        assert t_keys == sorted(t_keys)
        keys = [p.sort_key() for p in pairs]
        assert len(set(keys)) == len(keys)

    # sha256 of the (t, e) image words of enumerate_P(n), concatenated in
    # enumeration order, recorded from the per-part construction (n = 5, 6)
    # and from the scalar U_n test with per-pair checks (n = 1..4).
    PAIR_SEQUENCE_SHA256 = {
        1: "96a296d224f285c67bee93c30f8a309157f0daa35dc5b87e410b78630a09cfc7",
        2: "4e5954fac1fb67816047df4d4352fd41f64f1c875eb3fa338d62f1a3ce5f1bfc",
        3: "acca8c47ac2670bef78ed3c20501c5a202daa0de96eb32641f36ffb740530e41",
        4: "6989baa50e9a8998db6b071705a769e3e85882eb1a22f2aed26689ecf2ac8452",
        5: "3e0a21a7a1ddb53fc4a96c4ea50d13e91f715f5f614b50f05fa6d2cce2eb71c7",
        6: "a6436e5bf1f3d75c887577251b351b7672db34d71b396aa5d3da8c385245a4a9",
    }

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_pair_sequence_is_pinned(self, n):
        data = bytes(x for p in enumerate_P(n) for x in p.t.word + p.e.word)
        assert hashlib.sha256(data).hexdigest() == self.PAIR_SEQUENCE_SHA256[n]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_array_U_test_matches_the_scalar_one(self, n):
        words = u_words(n)
        assert words.dtype == np.int8
        assert [tuple(w) for w in words.tolist()] == [t.word for t in u_elements(n)]

    def test_U6_has_4927_members(self):
        assert u_words(6).shape == (4_927, 6)

    def test_only_U_is_interned(self, monkeypatch):
        import endtn.transformations as transformations

        # Every e is idempotent, so it lies in U_6 too.
        monkeypatch.setattr(transformations, "_intern", {})
        pairs = list(enumerate_P(6))
        assert len(pairs) == 37_783
        assert len(transformations._intern) == 4_927

    def test_every_enumerated_pair_is_permissible(self):
        for pair in enumerate_P(4):
            assert is_permissible(pair.t, pair.e)
