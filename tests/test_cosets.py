import random

import pytest

from endtn.cosets import get_cosets
from endtn.endomorphisms import aut, multiply, phi
from endtn.pairs import PermissiblePair, enumerate_P
from endtn.structure import fix_set
from endtn.transformations import enumerate_permutations
from endtn.universe import get_universe


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_orbits_are_table_cosets(n):
    """Orbits read off the product table, alpha Aut = table[i, aut_indices],
    are the reference for the coset pass."""
    uni = get_universe(n)
    cosets = get_cosets(n)
    seen = set()
    for i in uni.phi_indices:
        alpha = uni.elements[i]
        coset = frozenset(uni.table[i, uni.aut_indices].tolist())
        assert frozenset(map(uni.of, cosets.orbit(alpha))) == coset
        assert cosets.representative(alpha) is uni.elements[min(coset)]
        seen.add(cosets.representative(alpha))
    assert tuple(sorted(seen)) == cosets.representatives


def test_least_conjugator_matches_scan():
    cosets = get_cosets(5)
    perms = list(enumerate_permutations(5))
    singular = sorted(get_universe(5).elements[i] for i in get_universe(5).phi_indices)
    rng = random.Random(7)
    for _ in range(300):
        alpha = rng.choice(singular)
        beta = rng.choice(sorted(cosets.orbit(alpha)))
        least = next(g for g in perms if multiply(alpha, aut(g)) is beta)
        assert cosets.least_conjugator(alpha, beta) is least


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_least_conjugator_of_every_member(n):
    """From each representative r, a scan of S_n in lexicographic order by
    the symbolic product, independent of the word gathers of ``Cosets``,
    reaches every member of r's orbit, and first at its least conjugator."""
    cosets = get_cosets(n)
    perms = list(enumerate_permutations(n))
    for rep in cosets.representatives:
        first = {}
        for g in perms:
            first.setdefault(multiply(rep, aut(g)), g)
        assert first.keys() == cosets.orbit(rep)
        for beta, g in first.items():
            assert cosets.least_conjugator(rep, beta) is g


def test_least_conjugator_rejects_other_orbits():
    cosets = get_cosets(4)
    first, second = cosets.representatives[:2]
    with pytest.raises(ValueError):
        cosets.least_conjugator(first, second)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_stabiliser_matches_fix_set(n):
    uni = get_universe(n)
    cosets = get_cosets(n)
    singular = [uni.elements[i] for i in uni.phi_indices]
    if n == 5:
        singular = random.Random(5).sample(singular, 300)
    for alpha in singular:
        expected = fix_set(PermissiblePair(alpha.t, alpha.e)).elements
        assert cosets.stabiliser(alpha) == expected


@pytest.fixture(scope="module")
def six():
    singular = sorted(phi(p.t, p.e) for p in enumerate_P(6))
    return get_cosets(6), singular, list(enumerate_permutations(6))


def test_orbits_at_six_are_aut_orbits(six):
    # No table exists at n = 6: each orbit is checked against rep psi_g
    # over all of S_6, and the orbits against every singular element.
    cosets, singular, perms = six
    assert len(cosets.representatives) == 130 and len(singular) == 37_783
    covered = set()
    for rep in cosets.representatives:
        orbit = cosets.orbit(rep)
        assert orbit == {multiply(rep, aut(g)) for g in perms}
        assert min(orbit) is rep and cosets.representative(rep) is rep
        assert len(orbit) * len(cosets.stabiliser(rep)) == 720
        assert covered.isdisjoint(orbit)
        covered |= orbit
        assert all(cosets.representative(alpha) is rep for alpha in orbit)
    assert covered == set(singular)
    assert list(cosets.representatives) == sorted(cosets.representatives)


def test_lookups_at_six_match_scans(six):
    cosets, singular, perms = six
    rng = random.Random(6)
    for alpha in rng.sample(singular, 200):
        expected = fix_set(PermissiblePair(alpha.t, alpha.e)).elements
        assert cosets.stabiliser(alpha) == expected
        beta = rng.choice(sorted(cosets.orbit(alpha)))
        least = next(g for g in perms if multiply(alpha, aut(g)) is beta)
        assert cosets.least_conjugator(alpha, beta) is least


def test_degree_one_has_no_singular_orbits():
    assert get_cosets(1).representatives == ()
