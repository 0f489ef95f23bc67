"""Top-level acceptance suite.

One test per criterion; running ``pytest -v`` prints a pass/fail line
for each.  These deliberately re-derive expectations from independent
brute-force oracles rather than trusting the library's own formulas.
"""

import collections
import itertools
import random

import numpy as np
import pytest

from endtn.action import product_mismatches
from endtn.endomorphisms import (
    TypeTag,
    aut,
    enumerate_End,
    epsilon,
    klein_four,
    multiply,
    oracle_multiply,
)
from endtn.pairs import (
    PermissiblePair,
    _checked_pairs,
    count_pairs_for,
    is_in_U,
    u_words,
)
from endtn.presentation import (
    minimal_generating_set,
    normal_form,
    presentation,
    rank_counts,
    theta_eval,
    verify_generates,
)
from endtn.structure import (
    EXTENDED_RELATIONS,
    GREEN_RELATIONS,
    abundance_report,
    component_of,
    enumerate_ideals,
    extended_partition,
    extended_probe_check,
    fix_set,
    green_partition,
    idempotent_partition,
    regular_elements,
)
from endtn.transformations import (
    Transformation,
    compose,
    enumerate_permutations,
)
from endtn.universe import get_universe
from test_transformations import all_maps


def test_criterion_01_symbolic_product_matches_composition_oracle():
    # Every cell of the n = 5 table against composition on the generators
    # of T_5: with the homomorphism check of ``tests/test_action.py``,
    # this proves that the table is the composition table.
    uni = get_universe(5)
    assert product_mismatches(uni.table, 5).size == 0
    for n in (2, 3, 4):
        for a, b in itertools.product(enumerate_End(n), repeat=2):
            assert multiply(a, b) is oracle_multiply(a, b)
    # The sampled n = 5 pairs: the symbolic product against the certified
    # table, and the first 5,000 of them against the oracle as well.
    els = sorted(enumerate_End(5))
    assert list(uni.elements) == els
    rng = random.Random(0)
    rows, cols = np.array(
        [(rng.randrange(len(els)), rng.randrange(len(els))) for _ in range(1_000_000)]
    ).T
    cells = uni.table[rows, cols].tolist()
    for k, (i, j, cell) in enumerate(zip(rows.tolist(), cols.tolist(), cells)):
        a, b = els[i], els[j]
        assert multiply(a, b) is els[cell]
        if k < 5_000:
            assert multiply(a, b) is oracle_multiply(a, b)


def _brute_partner_counts(n):
    """Number of permissible partners per t, by scanning all of T_n with
    no knowledge of the domain decomposition."""
    E = np.array(
        list(itertools.product(range(n), repeat=n)), dtype=np.int16
    )
    E = E[(np.take_along_axis(E, E.astype(np.int64), axis=1) == E).all(axis=1)]
    counts = {}
    for t in all_maps(n):
        if not is_in_U(t):
            continue
        tw = np.array(t.word, dtype=np.int16)
        te = E[:, t.word]  # x -> e(t(x))
        et = tw[E.astype(np.int64)]  # x -> t(e(x))
        counts[t] = int(((te == E).all(axis=1) & (et == E).all(axis=1)).sum())
    return counts


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_criterion_02_pair_counting_formula(n):
    brute = _brute_partner_counts(n)
    assert brute  # U_n is never empty (identity at least)
    # Every pair of U_n from one build, counted per t.
    constructive = collections.Counter(pair.t for pair in _checked_pairs(u_words(n)))
    assert set(constructive) == set(brute)
    for t, brute_count in brute.items():
        assert count_pairs_for(t) == brute_count == constructive[t]


def test_criterion_03_cardinality_identities():
    for n in (1, 2, 3, 4):
        units = [el for el in enumerate_End(n) if el.is_aut]
        import math

        assert len(units) == math.factorial(n)
        for g, h in itertools.product(enumerate_permutations(n), repeat=2):
            assert multiply(aut(g), aut(h)) is aut(compose(g, h))
    # Degree one is excluded: End(T_1) is trivial and has no singular
    # idempotents for the bijection to act on.
    for n in (2, 3, 4, 5, 6):
        part = idempotent_partition(n)
        idempotents_of_Tn = sum(
            1 for e in all_maps(n) if compose(e, e) == e
        )
        assert len(part.E_1) == len(part.E_2) + 1 == idempotents_of_Tn
    rank7 = [el for el in enumerate_End(4) if el.rank == 7]
    assert len(rank7) == 24
    idem7 = [el for el in rank7 if multiply(el, el) is el]
    assert len(idem7) == 4
    assert {el.g for el in idem7} == set(klein_four())


# The chain is rank-ordered: 1 < 2 < 3 < 7, capped by the identity.
LEVELS = {"E_1": 1, "E_2": 2, "E_3": 3, "E_7": 4, "epsilon": 5}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_criterion_04_idempotent_band_chain(n):
    part = idempotent_partition(n)
    family_of = {
        el: name
        for name in LEVELS
        for el in getattr(part, name)
    }
    idem = sorted(part.all)
    for x, y in itertools.product(idem, repeat=2):
        xy = multiply(x, y)
        assert multiply(xy, xy) is xy
        assert multiply(xy, x) is multiply(y, x)  # xyx = yx
        lower, higher = sorted((family_of[x], family_of[y]), key=LEVELS.get)
        assert family_of[xy] == lower
        # Right-zero chain: anything at or above y's level absorbs into y.
        assert (xy is y) == (LEVELS[family_of[x]] >= LEVELS[family_of[y]])


def test_criterion_05_regular_elements():
    for n in (1, 2):
        assert regular_elements(n) == frozenset(get_universe(n).elements)
    for n in (3, 4, 5):
        regular = regular_elements(n)
        assert regular != frozenset(get_universe(n).elements)
    regular5 = regular_elements(5)
    idem5 = idempotent_partition(5).all
    units5 = frozenset(el for el in get_universe(5).elements if el.is_aut)
    assert regular5 == units5 | idem5


@pytest.mark.parametrize("n", [3, 4, 5])
def test_criterion_06_green_relations(n):
    parts = {rel: green_partition(n, rel) for rel in GREEN_RELATIONS}
    assert parts["H"].classes == parts["L"].classes
    assert parts["R"].classes == parts["D"].classes == parts["J"].classes
    # Every L-class refines its R-class.
    r_class_of = {el: cls for cls in parts["R"].classes for el in cls}
    for cls in parts["L"].classes:
        assert len({r_class_of[el] for el in cls}) == 1
    if n == 4:
        sigma_classes = [
            cls for cls in parts["L"].classes if any(el.is_sigma4 for el in cls)
        ]
        for cls in sigma_classes:
            images = {el.g(4) for el in cls}
            assert len(images) == 1 and len(cls) == 6
        assert len(sigma_classes) == 4
    if n in (3, 5):
        for cls in green_partition(n, "L").classes:
            if not any(el.is_aut for el in cls):
                assert len(cls) == 1


def test_criterion_07_ideals():
    for n in (3, 4):
        # enumerate_ideals cross-checks against the brute-force downset
        # enumeration internally and raises on mismatch.
        descriptions = enumerate_ideals(n)
        uni = get_universe(n)
        for desc in descriptions:
            assert uni.is_two_sided_closed(frozenset(map(uni.of, desc.elements)))
    uni5 = get_universe(5)
    for desc in enumerate_ideals(5):
        assert uni5.is_two_sided_closed(frozenset(map(uni5.of, desc.elements)))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_criterion_08_extended_relations(n):
    for rel in EXTENDED_RELATIONS:
        extended_partition(n, rel)  # raises on formula/brute mismatch
    by_rank = {}
    for el in get_universe(n).elements:
        by_rank.setdefault(el.rank, set()).add(el)
    rank_classes = {frozenset(cls) for cls in by_rank.values()}
    assert set(extended_partition(n, "R*").classes) == rank_classes
    assert set(extended_partition(n, "R~").classes) == rank_classes
    extended_probe_check(n, "R*")
    extended_probe_check(n, "L*")
    if n == 5:
        t = Transformation.from_images([1, 3, 2, 1, 5])
        u = Transformation.from_images([1, 1, 1, 4, 4])
        c1 = Transformation.constant(5, 1)
        expected = {
            Transformation.identity(5),
            Transformation.transposition(5, 2, 3),
        }
        assert fix_set(PermissiblePair(t, c1)).elements == expected
        assert fix_set(PermissiblePair(u, c1)).elements == expected
        report = abundance_report(5)
        assert report.left_abundant
        assert not report.right_abundant
        assert report.left_fountain
        assert report.right_fountain


def test_criterion_09_minimal_generating_set():
    gens = sorted(minimal_generating_set(5))
    r3, r2 = rank_counts(5)
    assert len(gens) == 3 + r3 + r2
    assert verify_generates(gens, 5)
    for dropped in gens:
        remaining = [el for el in gens if el is not dropped]
        assert not verify_generates(remaining, 5)


def test_criterion_10_presentation_soundness_and_rewriting():
    pres = presentation(5)
    for rel in pres.relations:
        assert pres.theta(rel.lhs) is pres.theta(rel.rhs)
    rng = random.Random(0)
    alphabet = list(pres.q_symbols) + list(pres.p_symbols)
    for _ in range(10_000):
        word = tuple(
            rng.choice(alphabet) for _ in range(rng.randrange(0, 16))
        )
        # The normal form must keep the word's value and have the shape
        # q...q, p q...q or p p q...q.
        reduced = normal_form(word, 5)
        assert theta_eval(reduced, 5) is theta_eval(word, 5)
        p_positions = [i for i, s in enumerate(reduced) if not s.startswith("q:")]
        assert len(p_positions) <= 2
        assert p_positions == list(range(len(p_positions)))


def _partition(keys) -> set[frozenset[int]]:
    """The indices of ``keys`` grouped by equal key."""
    classes = {}
    for i, key in enumerate(keys):
        classes.setdefault(key, set()).add(i)
    return {frozenset(cls) for cls in classes.values()}


# |End(T_n)|, its regular elements and its idempotents at n = 1..5.
EDGE_COUNTS = {
    1: (1, 1, 1),
    2: (7, 7, 6),
    3: (40, 28, 23),
    4: (345, 153, 110),
    5: (3226, 691, 572),
}


@pytest.mark.parametrize("n", sorted(EDGE_COUNTS))
def test_criterion_11_abstract_edge_claims(n):
    """The abstract's claims with their edge cases, read off the product
    table alone: Reg is a subsemigroup, equal to End(T_n) iff n <= 2; E is
    a band, equal to End(T_n) iff n = 1; H = L and R = D = J, with L = R
    iff n = 1.  The library's sets and partitions must agree."""
    uni = get_universe(n)
    table = uni.table
    size = uni.size

    # a is regular when a x a = a for some x: (a x) a over the row of a.
    regular = np.flatnonzero([(table[table[a], a] == a).any() for a in range(size)])
    idempotents = np.flatnonzero(table[np.arange(size), np.arange(size)] == np.arange(size))
    assert (size, len(regular), len(idempotents)) == EDGE_COUNTS[n]
    for members, full_when in ((regular, n <= 2), (idempotents, n == 1)):
        inside = np.zeros(size, dtype=bool)
        inside[members] = True
        assert inside[table[np.ix_(members, members)]].all()
        assert inside.all() == full_when
    assert set(regular) == set(map(uni.of, regular_elements(n)))
    assert set(idempotents) == set(map(uni.of, idempotent_partition(n).all))

    # End(T_n) is a monoid, so aS^1 is the row of a and S^1a its column;
    # S^1aS^1 is the union of the rows of the members of S^1a.
    cells = np.broadcast_to(np.arange(size), (size, size))
    in_row = np.zeros((size, size), dtype=bool)
    in_row[cells.T, table] = True
    in_column = np.zeros((size, size), dtype=bool)
    in_column[cells, table] = True
    row_bits = np.packbits(in_row, axis=1)
    right = [bits.tobytes() for bits in row_bits]
    left = [bits.tobytes() for bits in np.packbits(in_column, axis=1)]
    two_sided = {}
    for a, key in enumerate(left):
        if key not in two_sided:
            members = np.flatnonzero(in_column[a])
            two_sided[key] = np.bitwise_or.reduce(row_bits[members]).tobytes()
    parent = list(range(size))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    classes = {"L": _partition(left), "R": _partition(right)}
    for cls in classes["L"] | classes["R"]:
        first, *rest = cls
        for other in rest:
            parent[find(other)] = find(first)
    classes["H"] = _partition(zip(left, right))
    classes["D"] = _partition(map(find, range(size)))
    classes["J"] = _partition(two_sided[key] for key in left)
    assert classes["H"] == classes["L"]
    assert classes["R"] == classes["D"] == classes["J"]
    assert (classes["L"] == classes["R"]) == (n == 1)
    for rel in GREEN_RELATIONS:
        library = green_partition(n, rel).classes
        assert {frozenset(map(uni.of, cls)) for cls in library} == classes[rel]
