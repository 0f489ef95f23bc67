import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from endtn.errors import CapacityError
from endtn.transformations import (
    MAX_ENUM_DEGREE,
    Transformation,
    all_words,
    check_capacity,
    compose,
    conjugate,
    enumerate_permutations,
    generators,
    permutation_parity,
)


def all_maps(n):
    """Every map of T_n, one scalar ``Transformation`` per image word in
    lexicographic order: the reference that ``all_words`` is checked
    against, made with no array."""
    return [Transformation(word) for word in itertools.product(range(n), repeat=n)]


def words(n):
    return st.lists(
        st.integers(min_value=1, max_value=n), min_size=n, max_size=n
    ).map(Transformation.from_images)


class TestConstruction:
    def test_from_images_round_trip(self):
        t = Transformation.from_images([1, 3, 2, 1, 5])
        assert t.images == (1, 3, 2, 1, 5)
        assert t.to_text() == "1 3 2 1 5"
        assert Transformation.from_text("1 3 2 1 5") is t

    def test_interning(self):
        assert Transformation.from_images([2, 1, 3]) is Transformation.from_images(
            [2, 1, 3]
        )

    def test_out_of_range_rejected(self):
        # The point is named as given, 1-indexed.
        for images, point in (([1, 4, 2], 4), ([0, 1, 1], 0)):
            with pytest.raises(ValueError, match=f"^image point {point} out of"):
                Transformation.from_images(images)
        with pytest.raises(ValueError):
            Transformation(())

    def test_immutability(self):
        t = Transformation.identity(3)
        with pytest.raises(AttributeError):
            t.word = (0, 0, 0)

    def test_named_constructors(self):
        assert Transformation.identity(4).images == (1, 2, 3, 4)
        assert Transformation.constant(3, 2).images == (2, 2, 2)
        assert Transformation.transposition(4, 2, 4).images == (1, 4, 3, 2)
        assert Transformation.cycle(5, (1, 2, 3)).images == (2, 3, 1, 4, 5)


class TestAlgebra:
    @given(words(4), words(4), words(4))
    def test_compose_associative(self, a, b, c):
        assert compose(compose(a, b), c) == compose(a, compose(b, c))

    @given(words(5))
    def test_identity_is_neutral(self, t):
        e = Transformation.identity(5)
        assert compose(e, t) == t == compose(t, e)

    def test_compose_is_left_to_right(self):
        s = Transformation.from_images([2, 2, 3])
        t = Transformation.from_images([3, 1, 1])
        # (x)s then t.
        assert compose(s, t).images == (1, 1, 1)

    def test_parity(self):
        assert permutation_parity(Transformation.identity(4)) == "even"
        assert permutation_parity(Transformation.transposition(4, 1, 2)) == "odd"
        assert permutation_parity(Transformation.cycle(4, (1, 2, 3))) == "even"
        with pytest.raises(ValueError):
            permutation_parity(Transformation.constant(3, 1))

    def test_parity_multiplicative(self):
        for g, h in itertools.product(enumerate_permutations(4), repeat=2):
            sign = {"even": 1, "odd": -1}
            assert sign[permutation_parity(compose(g, h))] == sign[
                permutation_parity(g)
            ] * sign[permutation_parity(h)]

    @given(words(4))
    def test_conjugation_by_identity(self, t):
        assert conjugate(t, Transformation.identity(4)) == t

    def test_conjugation_is_an_action(self):
        t = Transformation.from_images([1, 1, 3, 2])
        for g in enumerate_permutations(4):
            for h in enumerate_permutations(4):
                assert conjugate(conjugate(t, g), h) == conjugate(t, compose(g, h))

    def test_conjugation_preserves_kernel_shape(self):
        t = Transformation.from_images([1, 1, 2, 3])
        for g in enumerate_permutations(4):
            assert conjugate(t, g).rank == t.rank

    def test_inverse(self):
        g = Transformation.cycle(5, (1, 4, 2))
        assert compose(g, g.inverse()).is_identity
        with pytest.raises(ValueError):
            Transformation.constant(3, 1).inverse()


class TestGenerators:
    def test_listed_once_each(self):
        assert [g.to_text() for g in generators(1)] == ["1"]
        assert [g.to_text() for g in generators(2)] == ["2 1", "1 1"]
        assert [g.to_text() for g in generators(4)] == [
            "2 1 3 4",
            "2 3 4 1",
            "1 1 3 4",
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_generate_the_full_semigroup(self, n):
        reached = frontier = set(generators(n))
        while frontier:
            frontier = {compose(s, g) for s in frontier for g in generators(n)}
            frontier -= reached
            reached = reached | frontier
        assert reached == set(all_maps(n))


class TestClassify:
    def test_idempotent_flag(self):
        t = Transformation.from_images([1, 1, 3])
        assert compose(t, t) == t
        t = Transformation.from_images([2, 1, 3])
        assert compose(t, t) != t

    def test_permutation_fields(self):
        t = Transformation.cycle(4, (1, 2))
        assert t.is_permutation and permutation_parity(t) == "odd" and t.rank == 4
        t = Transformation.constant(4, 3)
        assert not t.is_permutation and t.rank == 1
        with pytest.raises(ValueError):
            permutation_parity(t)


def _parity_by_inversions(word):
    inversions = sum(1 for i, j in itertools.combinations(word, 2) if i > j)
    return "odd" if inversions % 2 else "even"


def _check_invariants(t):
    """Compare every invariant a Transformation holds against a
    recomputation from its word; read twice, so that the values filled on
    first use are compared as well."""
    word = t.word
    is_perm = sorted(word) == list(range(len(word)))
    for _ in range(2):
        assert t.n == len(word)
        assert t.rank == len(set(word))
        assert t.is_permutation is is_perm
        assert t.square().word == tuple(word[x] for x in word)
        if is_perm:
            assert permutation_parity(t) == _parity_by_inversions(word)
            assert t.inverse().word == tuple(word.index(x) for x in range(len(word)))
        else:
            with pytest.raises(ValueError):
                permutation_parity(t)
            with pytest.raises(ValueError):
                t.inverse()


class TestCachedInvariants:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_word(self, n):
        for t in all_maps(n):
            _check_invariants(t)

    @pytest.mark.parametrize("n", [5, 6])
    def test_every_permutation(self, n):
        for t in enumerate_permutations(n):
            _check_invariants(t)

    def test_every_slot_is_read_only(self):
        t = Transformation.cycle(4, (1, 2, 3))
        # Fill the slots that are computed on first use.
        permutation_parity(t)
        t.inverse()
        t.square()
        for name in Transformation.__slots__:
            with pytest.raises(AttributeError):
                setattr(t, name, getattr(t, name))
            with pytest.raises(AttributeError):
                delattr(t, name)
        with pytest.raises(AttributeError):
            t.extra = 1
        _check_invariants(t)


class TestEnumeration:
    def test_counts(self):
        assert len(all_words(3)) == 27
        assert sum(1 for _ in enumerate_permutations(4)) == 24

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_all_words_match_the_scalar_reference(self, n):
        words = all_words(n)
        assert words.dtype == np.int8
        assert words.tolist() == [list(t.word) for t in all_maps(n)]

    def test_permutations_are_sorted_and_distinct(self):
        perms = list(enumerate_permutations(4))
        assert perms == sorted(perms)
        assert len(set(perms)) == 24

    def test_capacity_guard(self, monkeypatch):
        monkeypatch.delenv("ENDTN_CAPACITY_OVERRIDE", raising=False)
        with pytest.raises(CapacityError):
            all_words(8)

    def test_capacity_override(self, monkeypatch):
        # all_words(8) itself would allocate 8^8 rows, about 134 MB.
        monkeypatch.setenv("ENDTN_CAPACITY_OVERRIDE", "1")
        check_capacity(8, MAX_ENUM_DEGREE, "full transformation enumeration")
        monkeypatch.setenv("ENDTN_CAPACITY_OVERRIDE", "0")
        with pytest.raises(CapacityError):
            check_capacity(8, MAX_ENUM_DEGREE, "full transformation enumeration")
