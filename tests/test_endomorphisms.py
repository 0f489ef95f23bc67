import itertools
import random

import pytest

from endtn.endomorphisms import (
    TypeTag,
    _constants,
    _probe_set,
    apply,
    aut,
    coset_rep_fixing_4,
    enumerate_End,
    epsilon,
    identify,
    klein_four,
    multiply,
    oracle_multiply,
    phi,
    phi_trivial,
    sigma4,
    star_map,
)
from endtn.errors import CapacityError, NotAnEndomorphismError
from endtn.transformations import (
    Transformation,
    compose,
    enumerate_all,
    enumerate_permutations,
)


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
        maps = list(enumerate_all(n))
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
        images = {apply(alpha, s) for s in enumerate_all(4)}
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
        flip = Transformation.transposition(3, 1, 2)

        def bogus(s):
            return flip if s.is_constant else s

        with pytest.raises(NotAnEndomorphismError):
            identify(bogus, 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_probes_separate_every_element(self, n):
        # identify reads an element off its values on the n constants and
        # the probe set, so that is exact only if no two elements agree on
        # all of them.  The probe set alone does not separate: at n >= 5,
        # aut((4 5)) and epsilon agree on it.
        probes = _constants(n) + _probe_set(n)
        els = list(enumerate_End(n))
        values = {tuple(apply(el, s) for s in probes) for el in els}
        assert len(values) == len(els)

    def test_oracle_composes_on_every_call(self, monkeypatch):
        # No product is remembered: every call composes both actions on the
        # constants and the probe set again.
        import endtn.endomorphisms as endomorphisms

        real = endomorphisms.apply
        applied = []

        def counting(alpha, s):
            applied.append(s)
            return real(alpha, s)

        monkeypatch.setattr(endomorphisms, "apply", counting)
        probes = len(_constants(5)) + len(_probe_set(5))
        for a, b in zip(sample_elements(5, 50, seed=3), sample_elements(5, 50, seed=4)):
            counts = []
            for _ in range(2):
                applied.clear()
                assert oracle_multiply(a, b) is multiply(a, b)
                counts.append(len(applied))
            assert counts[0] == counts[1] >= 2 * probes

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

    def test_each_pair_is_checked_once(self, monkeypatch):
        import endtn.endomorphisms as endomorphisms
        import endtn.pairs as pairs

        checked = []
        real = pairs.is_permissible

        def counting(t, e):
            checked.append((t, e))
            return real(t, e)

        monkeypatch.setattr(pairs, "is_permissible", counting)
        monkeypatch.setattr(endomorphisms, "is_permissible", counting)
        # A fresh intern table, so that no element is already built.
        monkeypatch.setattr(endomorphisms, "_intern", {})
        singular = [el for el in endomorphisms.enumerate_End(4) if el.is_phi]
        assert len(checked) == len(set(checked)) == len(singular) == 297
