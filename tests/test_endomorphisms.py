import collections
import functools
import itertools
import random

import numpy as np
import pytest

import endtn.endomorphisms as endomorphisms
from endtn.endomorphisms import (
    Endomorphism,
    TypeTag,
    apply,
    aut,
    coset_rep_fixing_4,
    elements,
    enumerate_End,
    epsilon,
    identify,
    klein_four,
    multiply,
    oracle_multiply,
    phi,
    phi_trivial,
    sigma4,
    singular_words,
    star_map,
)
from endtn.errors import CapacityError, NotAnEndomorphismError, VerificationError
from endtn.transformations import (
    Transformation,
    compose,
    enumerate_permutations,
    generators,
)
from test_transformations import all_maps


def sample_elements(n, k, seed=0):
    els = sorted(enumerate_End(n))
    rng = random.Random(seed)
    return [els[rng.randrange(len(els))] for _ in range(k)]


class TestElements:
    def test_interning(self):
        t = Transformation.from_images([1, 1, 3])
        e = Transformation.constant(3, 1)
        assert phi(t, e) is phi(t, e)
        assert aut(Transformation.identity(3)) is epsilon(3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_epsilon_is_the_interned_identity(self, n):
        assert epsilon(n) is aut(Transformation.identity(n))
        assert epsilon(n) is epsilon(n)

    def test_phi_validates(self):
        with pytest.raises(ValueError):
            phi(Transformation.from_images([2, 3, 1]), Transformation.constant(3, 1))

    def test_ranks(self):
        assert epsilon(3).rank == 27
        assert sigma4(Transformation.identity(4)).rank == 7
        t = Transformation.transposition(3, 1, 2)
        assert phi(t, Transformation.constant(3, 3)).rank == 3
        assert phi(Transformation.identity(3), Transformation.constant(3, 1)).rank == 2
        assert phi_trivial(3).rank == 1

    def test_type_tags(self):
        t_odd = Transformation.transposition(4, 1, 2)
        assert phi(t_odd, Transformation.constant(4, 4)).type_tag == TypeTag.ODD
        # An even t must be a non-identity involution with a fixed point,
        # so the smallest degree carrying the even type is five.
        t_even = Transformation.from_images([2, 1, 4, 3, 5])
        assert phi(t_even, Transformation.constant(5, 5)).type_tag == TypeTag.EVEN
        c = Transformation.constant(4, 1)
        assert phi(Transformation.from_images([1, 1, 3, 4]), c).type_tag == (
            TypeTag.NON_PERMUTATION
        )
        assert phi_trivial(4).type_tag == TypeTag.TRIVIAL

    def test_degree_one_collapses(self):
        one = Transformation.identity(1)
        assert phi(one, one) is epsilon(1)
        assert list(enumerate_End(1)) == [epsilon(1)]


class TestApply:
    @pytest.mark.parametrize("n", [2, 3])
    def test_every_element_acts_as_homomorphism(self, n):
        els = list(enumerate_End(n))
        maps = all_maps(n)
        for alpha in els:
            for s, u in itertools.product(maps, repeat=2):
                assert apply(alpha, compose(s, u)) == compose(
                    apply(alpha, s), apply(alpha, u)
                )

    def test_aut_acts_by_conjugation(self):
        g = Transformation.cycle(4, (1, 2, 3))
        s = Transformation.from_images([1, 1, 2, 4])
        image = apply(aut(g), s)
        assert image == compose(compose(g.inverse(), s), g)

    def test_phi_sends_parity_classes(self):
        t = Transformation.transposition(3, 1, 3)
        e = Transformation.constant(3, 2)
        alpha = phi(t, e)
        assert apply(alpha, Transformation.transposition(3, 1, 2)) == t
        assert apply(alpha, Transformation.cycle(3, (1, 2, 3))) == compose(t, t)
        assert apply(alpha, Transformation.constant(3, 1)) == e

    def test_sigma4_on_klein_coset_reps(self):
        alpha = sigma4(Transformation.identity(4))
        for s in enumerate_permutations(4):
            image = apply(alpha, s)
            assert image(4) == 4
            assert image.is_permutation

    def test_sigma4_identity_has_seven_images(self):
        alpha = sigma4(Transformation.identity(4))
        images = {apply(alpha, s) for s in all_maps(4)}
        assert len(images) == 7


class TestKlein:
    def test_klein_four_is_a_group(self):
        K = set(klein_four())
        assert len(K) == 4
        for a, b in itertools.product(K, repeat=2):
            assert compose(a, b) in K

    def test_coset_reps_fix_4(self):
        seen = set()
        for s in enumerate_permutations(4):
            p = coset_rep_fixing_4(s)
            assert p(4) == 4
            assert any(compose(k, s) == p for k in klein_four())
            seen.add(p)
        assert len(seen) == 6


class TestMultiplication:
    def test_aut_multiplication_is_composition(self):
        for g, h in itertools.product(enumerate_permutations(3), repeat=2):
            assert multiply(aut(g), aut(h)) is aut(compose(g, h))

    def test_epsilon_is_identity(self):
        for el in sample_elements(4, 100):
            assert multiply(epsilon(4), el) is el
            assert multiply(el, epsilon(4)) is el

    def test_associativity_sampled(self):
        els = sample_elements(4, 60, seed=7)
        for a, b, c in zip(els[::3], els[1::3], els[2::3]):
            assert multiply(multiply(a, b), c) is multiply(a, multiply(b, c))

    def test_star_companions(self):
        t = Transformation.from_images([1, 3, 2, 1])
        e = Transformation.constant(4, 1)
        alpha = phi(t, e)
        assert star_map(alpha, "+") is phi(compose(t, t), e)
        assert star_map(alpha, "-") is phi(e, e)
        assert star_map(alpha, "0") is phi(compose(t, t), compose(t, t))

    def test_star_companions_are_stored_on_first_use(self, monkeypatch):
        import endtn.endomorphisms as endomorphisms

        # A fresh intern table, so that alpha is made here.
        monkeypatch.setattr(endomorphisms, "_intern", {})
        alpha = phi(
            Transformation.from_images([1, 3, 2, 1]), Transformation.constant(4, 1)
        )
        assert not hasattr(alpha, "_star")
        plus = star_map(alpha, "+")
        assert alpha._star == {"+": plus}
        assert star_map(alpha, "+") is plus

    def test_keys_are_stored_on_first_use(self, monkeypatch):
        # A fresh intern table, so that each element is made here.
        monkeypatch.setattr(endomorphisms, "_intern", {})
        g = Transformation.from_images([2, 1, 4, 3])
        made = {
            "aut:g=2,1,4,3": aut(g),
            "phi:t=1,3,2,1;e=1,1,1,1": phi(
                Transformation.from_images([1, 3, 2, 1]), Transformation.constant(4, 1)
            ),
            "sigma4:g=2,1,4,3": sigma4(g),
        }
        for expected, alpha in made.items():
            assert not hasattr(alpha, "_key")
            key = alpha.key()
            assert key == expected and alpha._key is key
            assert alpha.key() is key and repr(alpha) == f"<{expected}>"

    def test_left_type_decides_phi_products(self):
        c = Transformation.constant(5, 1)
        odd = phi(Transformation.transposition(5, 2, 3), c)
        even = phi(
            Transformation.from_images([2, 1, 4, 3, 5]), Transformation.constant(5, 5)
        )
        beta = phi(Transformation.from_images([1, 3, 2, 1, 5]), c)
        assert multiply(odd, beta) is beta
        assert multiply(even, beta) is star_map(beta, "+")
        assert multiply(beta, beta) is star_map(beta, "-")
        assert multiply(phi_trivial(5), beta) is star_map(beta, "0")


class TestIdentify:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_recovers_every_element(self, n):
        for el in enumerate_End(n):
            assert identify(lambda s: apply(el, s), n) is el

    def test_rejects_non_homomorphism(self):
        # a and b fixed, as by epsilon, but c sent to the constant c_1:
        # no element has these values on the generators.
        a, b, c = generators(3)
        const = Transformation.constant(3, 1)

        def bogus(s):
            return const if s is c else s

        with pytest.raises(NotAnEndomorphismError):
            identify(bogus, 3)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_probes_separate_every_element(self, n):
        # identify reads an element off its values on the generators of
        # T_n, so that is exact only if no two elements agree on all of
        # them.
        els = elements(n)
        values = {tuple(apply(el, s) for s in generators(n)) for el in els}
        assert len(values) == len(els)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_evaluates_each_distinct_probe_once(self, n):
        # The probes are the generators of T_n: (a, b, c), (a, c) at n = 2
        # and (id,) at n = 1.
        probes = dict.fromkeys(generators(n), 1)
        tables = [lambda s, el=el: apply(el, s) for el in enumerate_End(n)]
        if n >= 2:
            a, *_, c = generators(n)
            ident = Transformation.identity(n)
            tables += [
                # a and b as under epsilon, but c sent to id, which moves
                # no point
                lambda s: ident if s is c else s,
                # no automorphism: phi(id, a), and a is not idempotent
                lambda s: a if s is c else ident,
            ]
        if n >= 3:
            # epsilon, read off b and c, but a sent to c_1
            const = Transformation.constant(n, 1)
            tables.append(lambda s: const if s is a else s)
        for k, table in enumerate(tables):
            calls = []

            def counting(s):
                calls.append(s)
                return table(s)

            if k < len(elements(n)):
                identify(counting, n)
            else:
                with pytest.raises(NotAnEndomorphismError):
                    identify(counting, n)
            assert collections.Counter(calls) == probes

    def test_oracle_composes_on_every_call(self, monkeypatch):
        # No product is remembered: every call composes both actions on the
        # generators again.
        import endtn.endomorphisms as endomorphisms

        real = endomorphisms.apply
        applied = []

        def counting(alpha, s):
            applied.append(s)
            return real(alpha, s)

        monkeypatch.setattr(endomorphisms, "apply", counting)
        for a, b in zip(sample_elements(5, 50, seed=3), sample_elements(5, 50, seed=4)):
            counts = []
            for _ in range(2):
                applied.clear()
                assert oracle_multiply(a, b) is multiply(a, b)
                counts.append(len(applied))
            assert counts[0] == counts[1] >= 2 * len(generators(5))

    @pytest.mark.parametrize("n", [4, 5])
    def test_oracle_is_independent_of_multiply(self, n, monkeypatch):
        import endtn.endomorphisms as endomorphisms
        import endtn.universe as universe

        rng = random.Random(n)
        els = sorted(enumerate_End(n))
        pairs = [(rng.choice(els), rng.choice(els)) for _ in range(2_000)]
        expected = [multiply(a, b) for a, b in pairs]

        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle must not use the symbolic product")

        monkeypatch.setattr(endomorphisms, "multiply", forbidden)
        monkeypatch.setattr(universe, "get_universe", forbidden)
        assert [oracle_multiply(a, b) for a, b in pairs] == expected

    def test_oracle_agrees_exhaustively_small(self):
        els = list(enumerate_End(3))
        for a, b in itertools.product(els, repeat=2):
            assert oracle_multiply(a, b) is multiply(a, b)

    def test_oracle_capacity_guard_honours_override(self, monkeypatch):
        trivial = phi_trivial(7)
        monkeypatch.delenv("ENDTN_CAPACITY_OVERRIDE", raising=False)
        with pytest.raises(CapacityError):
            oracle_multiply(trivial, trivial)
        monkeypatch.setenv("ENDTN_CAPACITY_OVERRIDE", "1")
        assert oracle_multiply(trivial, trivial) is trivial


class TestEnumeration:
    def test_sizes(self):
        assert sum(1 for _ in enumerate_End(2)) == 7
        assert sum(1 for _ in enumerate_End(3)) == 40
        assert sum(1 for _ in enumerate_End(4)) == 345

    def test_no_duplicates(self):
        els = list(enumerate_End(4))
        assert len(set(els)) == len(els)

    def test_sigma_only_at_four(self):
        assert not any(el.is_sigma4 for el in enumerate_End(3))
        assert sum(1 for el in enumerate_End(4) if el.is_sigma4) == 24

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_elements_are_enumerated_once_in_sort_order(self, n):
        members = elements(n)
        assert isinstance(members, tuple)
        assert members == tuple(sorted(enumerate_End(n), key=Endomorphism.sort_key))
        assert elements(n) is members

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_singular_words_follow_the_elements(self, n):
        t, e = singular_words(n)
        phis = [el for el in elements(n) if el.is_phi]
        assert t.dtype == e.dtype == np.int8
        assert t.shape == e.shape == (len(phis), n)
        assert t.tolist() == [list(el.t.word) for el in phis]
        assert e.tolist() == [list(el.e.word) for el in phis]
        assert not (t.flags.writeable or e.flags.writeable)
        assert singular_words(n)[0] is t

    def test_each_square_is_composed_once(self, monkeypatch):
        import endtn.endomorphisms as endomorphisms
        import endtn.transformations as transformations

        # Fresh intern tables, so every map and every element is made anew.
        monkeypatch.setattr(transformations, "_intern", {})
        monkeypatch.setattr(endomorphisms, "_intern", {})
        real = transformations.compose
        calls = []

        def counting(s, t):
            calls.append((s, t))
            return real(s, t)

        monkeypatch.setattr(transformations, "compose", counting)
        monkeypatch.setattr(endomorphisms, "compose", counting)
        phis = [el for el in enumerate_End(5) if el.is_phi]
        squared = {el.t for el in phis}
        assert (len(phis), len(squared)) == (3_106, 611)
        assert sorted(s for s, _ in calls) == sorted(squared)
        assert all(s is t for s, t in calls)
        for el in phis:
            assert el.t2 is el.t.square() is real(el.t, el.t)

    def test_a_bad_pair_in_the_batch_is_named(self, extra_partner):
        import endtn.pairs as pairs

        # t = [1, 1, 3, 4] gets one partner that is not idempotent, after
        # its good ones: either enumeration checks its whole batch before
        # it yields the first pair.
        bad_t, bad_e = (0, 0, 2, 3), (1, 0, 2, 3)
        extra_partner(bad_t, bad_e)
        one_row = np.array([bad_t], dtype=np.int8)
        batches = pairs.enumerate_P(4), pairs._checked_pairs(one_row)
        for batch in batches:
            with pytest.raises(VerificationError) as raised:
                next(batch)
            assert str(raised.value) == "(1 1 3 4, 2 1 3 4) is not a permissible pair"
            assert raised.value.counterexample == tuple(map(Transformation, (bad_t, bad_e)))

    def test_the_array_check_covers_every_pair_yielded(self, monkeypatch):
        import endtn.pairs as pairs

        checked = []
        real = pairs._check_pairs

        def recording(t, e):
            checked.extend(zip(map(tuple, t.tolist()), map(tuple, e.tolist())))
            return real(t, e)

        monkeypatch.setattr(pairs, "_check_pairs", recording)
        yielded = [(p.t.word, p.e.word) for p in pairs.enumerate_P(4)]
        assert checked == yielded and len(set(yielded)) == 297

    def test_a_pair_built_alone_is_still_checked(self):
        from endtn.pairs import PermissiblePair

        # t^3 = t, but e = c_2 does not commute with t = [1, 1, 3].
        t = Transformation.from_images([1, 1, 3])
        with pytest.raises(ValueError, match="is not a permissible pair"):
            PermissiblePair(t, Transformation.constant(3, 2))
        with pytest.raises(ValueError, match="is not a permissible pair"):
            phi(t, Transformation.constant(3, 2))

    @pytest.mark.parametrize("n", [4, 5])
    def test_every_singular_element_was_checked(self, monkeypatch, n):
        import endtn.pairs as pairs

        fresh_element_caches(monkeypatch)
        checked = set()
        real = pairs._check_pairs

        def recording(t, e):
            checked.update(zip(map(tuple, t.tolist()), map(tuple, e.tolist())))
            return real(t, e)

        monkeypatch.setattr(pairs, "_check_pairs", recording)
        phis = [(el.t.word, el.e.word) for el in endomorphisms.elements(n) if el.is_phi]
        assert len(phis) == {4: 297, 5: 3_106}[n] and set(phis) <= checked

    def test_elements_make_no_pair_objects(self, monkeypatch):
        import endtn.pairs as pairs
        import endtn.transformations as transformations

        def forbidden(*args):
            raise AssertionError("a pair object was made")

        cached = {n: [el.key() for el in elements(n)] for n in range(2, 7)}
        monkeypatch.setattr(transformations, "_intern", {})
        monkeypatch.setattr(endomorphisms, "_intern", {})
        monkeypatch.setattr(pairs.PermissiblePair, "_checked", forbidden)
        monkeypatch.setattr(pairs.PermissiblePair, "__post_init__", forbidden)
        monkeypatch.setattr(endomorphisms, "phi", forbidden)
        for n in range(2, 7):
            fresh_element_caches(monkeypatch)
            assert [el.key() for el in endomorphisms.elements(n)] == cached[n]

    def test_a_partner_outside_U_is_refused(self, monkeypatch):
        import endtn.pairs as pairs

        # U_3 without c_1, a partner of the identity.
        u = pairs.u_words(3)
        short = u[(u != 0).any(axis=1)]
        monkeypatch.setattr(pairs, "u_words", lambda n: short)
        identity = np.array([[0, 1, 2]], dtype=np.int8)
        with pytest.raises(VerificationError, match="^1 1 1 is not in U_n$") as raised:
            next(pairs._checked_pairs(identity))
        assert raised.value.counterexample == Transformation.constant(3, 1)


def fresh_element_caches(monkeypatch):
    """Empty caches of ``elements`` and ``singular_words`` for one test, so
    that the next call builds End(T_n) again; the shared ones come back
    afterwards."""
    for name in ("elements", "singular_words"):
        cached = getattr(endomorphisms, name)
        monkeypatch.setattr(endomorphisms, name, functools.lru_cache(cached.__wrapped__))
