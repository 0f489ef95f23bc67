import dataclasses
import gc
import hashlib
import importlib
import json
import random
import types
from collections import Counter

import pytest

from endtn import cli
from endtn.cosets import get_cosets
from endtn.endomorphisms import TypeTag, enumerate_End, multiply, oracle_multiply
from endtn.errors import CapacityError, VerificationError
from endtn.presentation import (
    Relation,
    canonical_word,
    check_normal_forms,
    essential_orbits,
    minimal_generating_set,
    normal_form,
    orbits,
    presentation,
    rank_counts,
    theta_eval,
    verify_generates,
)
from endtn.transformations import Transformation, compose, enumerate_permutations


class TestOrbits:
    def test_counts(self):
        assert len(orbits(3)) == 9
        assert len(orbits(4)) == 23
        assert len(orbits(5)) == 53

    def test_orbits_partition_the_monoid(self):
        from endtn.endomorphisms import enumerate_End

        all_members = [el for o in orbits(4) for el in o.members]
        assert len(all_members) == len(set(all_members)) == 345

    def test_members_share_rank_and_type(self):
        for orbit in orbits(4):
            for el in orbit.members:
                assert el.rank == orbit.rank

    def test_representative_is_minimal(self):
        for orbit in orbits(4):
            assert orbit.representative is min(orbit.members)

    def test_closed_under_automorphism_postcomposition(self):
        from endtn.endomorphisms import aut

        for orbit in orbits(3):
            for el in orbit.members:
                for g in enumerate_permutations(3):
                    assert multiply(el, aut(g)) in orbit.members

    def test_rank_counts(self):
        assert rank_counts(5) == (15, 17)
        assert rank_counts(6) == (46, 37)

    def test_rank_three_orbits_are_essential(self):
        for orbit in orbits(5):
            if orbit.rank == 3:
                assert orbit.essential

    def test_capacity(self):
        with pytest.raises(CapacityError):
            orbits(7)


class TestGeneratingSet:
    def test_size_formula(self):
        gens = minimal_generating_set(5)
        r3, r2 = rank_counts(5)
        assert len(gens) == 3 + r3 + r2

    def test_generates(self):
        assert verify_generates(minimal_generating_set(5), 5)

    def test_automorphisms_alone_do_not_generate(self):
        from endtn.endomorphisms import aut

        gens = [aut(g) for g in enumerate_permutations(4)]
        assert not verify_generates(gens, 4)

    def test_guarded_degrees(self):
        with pytest.raises(CapacityError):
            minimal_generating_set(4)


class TestCanonicalWords:
    def test_identity_is_empty(self):
        assert canonical_word(Transformation.identity(4)) == ()

    def test_words_evaluate_back(self):
        pres = presentation(5)
        for g in enumerate_permutations(5):
            word = canonical_word(g)
            assert theta_eval(word, 5).g is g
            assert len(word) <= 10  # n(n-1)/2 for n = 5

    def test_words_are_lexicographically_least(self):
        # (1 3) = q1 q2 q1 = q2 q1 q2; the first is smaller.
        g = Transformation.transposition(5, 1, 3)
        assert canonical_word(g) == ("q:1-2", "q:2-3", "q:1-2")


@pytest.fixture(scope="module")
def pres():
    return presentation(5)


class TestPresentation:
    def test_alphabet(self, pres):
        assert len(pres.q_symbols) == 4
        # One generator per essential singular orbit: the rank-3 and
        # rank-2 ones plus the single rank-1 orbit.
        assert len(pres.p_symbols) == sum(rank_counts(5)) + 1
        for marker in ("p^od", "p^ev", "p^np", "p^tr"):
            assert marker in pres.p_symbols
            assert marker in pres.images

    def test_marker_types(self, pres):
        assert pres.images["p^od"].type_tag == TypeTag.ODD
        assert pres.images["p^ev"].type_tag == TypeTag.EVEN
        assert pres.images["p^np"].type_tag == TypeTag.NON_PERMUTATION
        assert pres.images["p^tr"].type_tag == TypeTag.TRIVIAL

    def test_relations_are_sound(self, pres):
        for rel in pres.relations:
            assert pres.theta(rel.lhs) is pres.theta(rel.rhs), rel

    def test_families_present(self, pres):
        families = {rel.family for rel in pres.relations}
        assert families == {
            "RPi", "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10",
        }

    def test_theta_rejects_unknown_symbols(self):
        with pytest.raises(ValueError):
            theta_eval(("nonsense",), 5)

    def test_theta_of_empty_word_is_identity(self):
        from endtn.endomorphisms import epsilon

        assert theta_eval((), 5) is epsilon(5)

    def test_theta_looks_up_every_symbol(self, pres):
        assert pres.theta(("p^od",)) is pres.images["p^od"]
        for word in (("q:1-2", "nonsense"), ("nonsense", "q:1-2")):
            with pytest.raises(ValueError):
                pres.theta(word)

    def test_theta_multiplies_k_minus_two_times(self, pres, monkeypatch):
        from endtn.endomorphisms import epsilon

        # ``endtn.presentation`` as an attribute is the function.
        module = importlib.import_module("endtn.presentation")

        calls = []

        def counting(a, b):
            calls.append((a, b))
            return multiply(a, b)

        monkeypatch.setattr(module, "multiply", counting)
        symbols = sorted(pres.images)
        rng = random.Random(13)
        for k in [0, 1, 1, 2, 3, 5, 8, 13]:
            word = tuple(rng.choice(symbols) for _ in range(k))
            calls.clear()
            value = pres.theta(word)
            # The first two symbols are one read of the product table.
            assert len(calls) == max(k - 2, 0)
            expected = epsilon(5)
            for symbol in word:
                expected = multiply(expected, pres.images[symbol])
            assert value is expected

    @pytest.mark.parametrize("position", [0, 1, 2, 4])
    def test_theta_names_the_first_unknown_symbol(self, pres, position):
        word = ["q:1-2", "p^od", "q:2-3", "p^tr", "p^ev"]
        word[position] = "p:bogus"
        for bad in (tuple(word), word):
            with pytest.raises(ValueError, match=r"unknown symbol 'p:bogus'"):
                pres.theta(bad)

    def test_theta_accepts_a_list(self, pres):
        for word in (["q:1-2", "p^od"], ["p^od", "q:1-2", "p^ev"], ["p^tr"], []):
            assert pres.theta(word) is pres.theta(tuple(word))

    def test_theta_reads_two_letter_words_from_the_table(self, pres, monkeypatch):
        module = importlib.import_module("endtn.presentation")
        calls = []
        monkeypatch.setattr(module, "multiply", lambda a, b: calls.append((a, b)))
        for word, value in pres.products.items():
            assert pres.theta(word) is value
            assert pres.theta(list(word)) is value
        assert calls == []
        for word in (("q:1-2", "p:bogus"), ("p:bogus", "q:1-2")):
            for bad in (word, list(word)):
                with pytest.raises(ValueError, match=r"unknown symbol 'p:bogus'"):
                    pres.theta(bad)


class TestRelationsAtSix:
    """``Presentation.relations`` keeps R4 as its same-type pairs and makes
    the R4 records while iterating."""

    def test_is_sized_and_re_iterable(self):
        relations = presentation(6).relations
        families = Counter()
        for first, second in zip(relations, relations, strict=True):
            assert first == second and type(first) is Relation
            families[first.family] += 1
        assert sum(families.values()) == len(relations)
        assert families == {
            "R4": 411_768, "R3": 6_110, "R2": 971, "R1": 420, "R8": 252,
            "R10": 97, "R5": 84, "R7": 84, "R6": 37, "RPi": 15, "R9": 3,
        }

    def test_stores_no_r4_record(self):
        relations = presentation(6).relations
        stored = relations.head + relations.tail
        assert len(stored) == 8_073 and len(relations.r4_pairs) == 4_902
        assert "R4" not in {rel.family for rel in stored}


@pytest.mark.parametrize("n", [5, 6])
def test_product_table_is_attested(n):
    """Every entry of the generators' product table is ``multiply`` of the
    two images, and the composition oracle gives the same element."""
    pres = presentation(n)
    images = pres.images
    assert len(pres.products) == len(images) ** 2
    assert set(pres.products) == {(a, b) for a in images for b in images}
    for (a, b), value in pres.products.items():
        assert value is multiply(images[a], images[b])
        assert value is oracle_multiply(images[a], images[b])


def test_relation_check_sees_a_corrupted_product(monkeypatch):
    pres = presentation(5)
    r4 = next(rel for rel in pres.relations if rel.family == "R4")
    # Swap the table entry of one R4 left side for another product.
    right = pres.products[r4.lhs]
    wrong = next(value for value in pres.products.values() if value is not right)
    corrupted = dataclasses.replace(pres, products={**pres.products, r4.lhs: wrong})
    assert corrupted.theta(r4.lhs) is wrong
    monkeypatch.setattr(cli, "presentation", lambda n: corrupted)
    args = types.SimpleNamespace(n=5)
    with pytest.raises(VerificationError, match="relation is not theta-sound") as raised:
        cli.cmd_presentation_check(args)
    family, lhs, rhs = raised.value.counterexample
    assert lhs[:2] == r4.lhs or rhs[:2] == r4.lhs


class TestNormalForm:
    def test_pure_q_words(self):
        word = ("q:1-2", "q:2-3")
        g = theta_eval(word, 5).g
        assert g == Transformation.cycle(5, (1, 3, 2))
        assert normal_form(word + canonical_word(g.inverse()), 5) == ()

    def test_shape_and_soundness(self):
        pres = presentation(5)
        rng = random.Random(42)
        alphabet = list(pres.q_symbols) + list(pres.p_symbols)
        for _ in range(300):
            word = tuple(
                rng.choice(alphabet) for _ in range(rng.randrange(0, 14))
            )
            reduced = normal_form(word, 5)
            assert theta_eval(reduced, 5) is theta_eval(word, 5)
            p_positions = [
                i for i, s in enumerate(reduced) if not s.startswith("q:")
            ]
            assert len(p_positions) <= 2
            assert p_positions == list(range(len(p_positions)))

    def test_is_canonical_per_element(self):
        pres = presentation(5)
        rng = random.Random(9)
        alphabet = list(pres.q_symbols) + list(pres.p_symbols)
        by_value = {}
        for _ in range(500):
            word = tuple(rng.choice(alphabet) for _ in range(rng.randrange(0, 10)))
            value = theta_eval(word, 5)
            reduced = normal_form(word, 5)
            assert by_value.setdefault(value, reduced) == reduced

    def test_long_words_stay_within_budget(self):
        pres = presentation(5)
        rng = random.Random(17)
        alphabet = list(pres.q_symbols) + list(pres.p_symbols)
        word = tuple(rng.choice(alphabet) for _ in range(3000))
        reduced = normal_form(word, 5)
        assert theta_eval(reduced, 5) is theta_eval(word, 5)

    def test_rejects_unknown_symbols(self):
        with pytest.raises(ValueError):
            normal_form(("p:bogus",), 5)


class TestNormalFormSet:
    """The normal-form words: one per element, each its own normal form."""

    def test_exhaustive_at_five(self, pres):
        assert check_normal_forms(pres) == 3226
        cosets = get_cosets(5)
        essential = {o.representative for o in essential_orbits(5)}
        words = set()
        for value in enumerate_End(5):
            word = pres.word_of(value)
            prefix = ()
            if not value.is_aut:
                rep = cosets.representative(value)
                prefix = pres.prefixes[rep]
                assert len(prefix) == (1 if rep in essential else 2)
                assert word[: len(prefix)] == prefix
            assert pres.theta(word) is value
            assert normal_form(word, 5) == word
            assert all(s in pres.p_symbols for s in prefix)
            assert all(s in pres.q_symbols for s in word[len(prefix):])
            words.add(word)
        assert len(words) == 3226

    @pytest.mark.parametrize("corruption", ["swapped", "missing"])
    def test_a_corrupted_prefix_is_named(self, pres, monkeypatch, capsys, corruption):
        """Two orbits' prefixes swapped, so that no q-word conjugates the
        other prefix onto the lesser representative, or that one's prefix
        missing: the check names that representative, and so does the verb,
        with exit status 1."""
        first, second = [r for r in get_cosets(5).representatives if r.rank == 2][:2]
        prefixes = dict(pres.prefixes)
        if corruption == "swapped":
            prefixes[first], prefixes[second] = prefixes[second], prefixes[first]
        else:
            del prefixes[first]
        corrupted = dataclasses.replace(pres, prefixes=prefixes)
        with pytest.raises(VerificationError, match="normal form changed") as raised:
            check_normal_forms(corrupted)
        assert raised.value.counterexample == (first.key(), None)
        monkeypatch.setattr(cli, "presentation", lambda n: corrupted)
        assert cli.main(["presentation-check", "--n", "5"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and first.key() in err

    def test_a_wrong_evaluation_is_named(self, pres):
        """The q-tail of some normal form starts in a corrupted table entry,
        so that word evaluates to another element."""
        key = (pres.p_symbols[0], pres.q_symbols[0])
        wrong = pres.products[pres.p_symbols[1], pres.q_symbols[0]]
        corrupted = dataclasses.replace(pres, products={**pres.products, key: wrong})
        with pytest.raises(VerificationError, match="normal form changed") as raised:
            check_normal_forms(corrupted)
        element, word = raised.value.counterexample
        assert word[:2] == key and corrupted.theta(word).key() != element

    def test_prefix_table_at_six(self):
        pres = presentation(6)
        cosets = get_cosets(6)
        assert set(pres.prefixes) == set(cosets.representatives)
        for rep, prefix in pres.prefixes.items():
            assert 1 <= len(prefix) <= 2
            assert cosets.representative(pres.theta(prefix)) is rep


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """Set the cyclic collector on or off for one test, then restore it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class TestCollectorPause:
    """``presentation`` builds with the cyclic collector paused and leaves
    it as the caller had it."""

    def test_restores_the_callers_state(self, collector):
        presentation.cache_clear()
        presentation(5)
        assert gc.isenabled() is collector

    def test_restores_the_state_when_the_build_raises(self, collector, monkeypatch):
        def failing(n):
            raise RuntimeError("build failed")

        module = importlib.import_module("endtn.presentation")
        monkeypatch.setattr(module, "essential_orbits", failing)
        presentation.cache_clear()
        with pytest.raises(RuntimeError, match="build failed"):
            presentation(5)
        assert gc.isenabled() is collector

    def test_no_collection_during_a_cold_build(self, collector):
        started = []

        def count(phase, info):
            if phase == "start":
                started.append(info["generation"])

        gc.callbacks.append(count)
        try:
            presentation.cache_clear()
            presentation(5)
            during = len(started)
        finally:
            gc.callbacks.remove(count)
        assert during == 0


def _sha256(data) -> str:
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


class TestPinnedOutput:
    """Digests recorded before orbits, stabilisers and conjugators moved to
    endtn.cosets; the move must leave the output byte-identical."""

    def test_relations(self, pres):
        assert len(pres.relations) == 21_778
        assert _sha256([rel.to_json() for rel in pres.relations]) == (
            "d5030a7181b4ec9e494189640901843e8380e552fa06308eaeb3adfb2e7ba486"
        )

    def test_relations_at_six(self):
        """The n = 6 sequence, recorded while each R4 record was still made
        by ``Relation.__new__`` and ``relations`` was a tuple."""
        relations = presentation(6).relations
        assert len(relations) == 419_841
        assert _sha256(list(relations)) == (
            "16d3bb0536745f820f6c45ec4773c7919664893db22d2ca61dbfa4d106de2d7e"
        )

    def test_normal_forms(self, pres):
        rng = random.Random(0)
        alphabet = list(pres.q_symbols) + list(pres.p_symbols)
        forms = []
        for _ in range(200):
            word = tuple(rng.choice(alphabet) for _ in range(rng.randrange(0, 16)))
            forms.append(list(normal_form(word, 5)))
        assert _sha256(forms) == (
            "1e23ad14e6df1b2da7703cc32dd286c4b153ee9c36c99090117d452a138df72d"
        )
