import random

import pytest

from endtn.cosets import get_cosets
from endtn.endomorphisms import aut, multiply
from endtn.pairs import PermissiblePair
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


def test_degree_one_has_no_singular_orbits():
    assert get_cosets(1).representatives == ()
