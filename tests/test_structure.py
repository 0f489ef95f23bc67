import functools
import itertools
import random
import re
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from endtn import endomorphisms
from endtn.endomorphisms import (
    aut,
    enumerate_End,
    epsilon,
    multiply,
    phi,
    phi_trivial,
    sigma4,
)
from endtn.errors import VerificationError
from endtn.pairs import PermissiblePair
from endtn.structure import (
    COMPONENTS,
    EXTENDED_RELATIONS,
    GREEN_RELATIONS,
    _attested_ideals,
    _brute_labels,
    _formula_labels,
    _idempotents,
    _kernel_keys,
    _one_sided_labels,
    _RIGHT_IDEAL_COMPONENTS,
    _right_ideal_bits,
    _saturated_ideal,
    abundance_report,
    component_of,
    enumerate_ideals,
    extended_partition,
    fix_set,
    green_partition,
    idempotent_partition,
    j_leq,
    principal_ideals,
    regular_elements,
)
from endtn.transformations import Transformation
from endtn.universe import get_index, get_universe
from test_universe import (
    reference_is_two_sided_closed,
    reference_left_ideal,
    reference_right_ideal,
    reference_two_sided_ideal,
)


# Per-element readings of the table, kept as references for the bitset and
# sort-based brute side.


def reference_kernel_keys(rows):
    out = []
    for row in rows:
        _, first, inv = np.unique(row, return_index=True, return_inverse=True)
        relabel = np.argsort(np.argsort(first))
        out.append(relabel[inv].astype(np.int32).tobytes())
    return out


def unique_kernel_keys(rows, dtype):
    """The sort-based kernel keys: per row, one ``np.unique``, as bytes
    of ``dtype``."""
    for row in rows:
        _, first, inverse = np.unique(row, return_index=True, return_inverse=True)
        yield first[inverse].astype(dtype).tobytes()


def reference_green_classes(table, relation):
    right = [np.unique(table[i]).tobytes() for i in range(len(table))]
    left = [np.unique(table[:, i]).tobytes() for i in range(len(table))]
    keys = {"R": right, "L": left, "H": list(zip(left, right))}[relation]
    return partition_of(keys)


def reference_saturated_ideal(table, seed, class_of):
    current = set(seed)
    while True:
        idx = np.fromiter(current, dtype=np.int64)
        left = np.unique(table[:, idx])
        closed = set(np.unique(table[left, :]).tolist()) | set(left.tolist()) | current
        saturated = set()
        for i in closed:
            saturated.add(i)
            for cls in class_of[i]:
                saturated |= cls
        if saturated == current:
            return frozenset(current)
        current = saturated


def partition_of(keys):
    by_key = {}
    for i, key in enumerate(keys):
        by_key.setdefault(key, set()).add(i)
    return {frozenset(c) for c in by_key.values()}


def grouped(part):
    """Every idempotent an ``IdempotentPartition`` groups."""
    return part.epsilon | part.E_7 | part.E_3 | part.E_2 | part.E_1


def least_member_labels(classes, size):
    label = np.empty(size, dtype=np.int64)
    for cls in classes:
        label[sorted(cls)] = min(cls)
    return label


class TestComponents:
    def test_partition(self):
        for n in (2, 3, 4):
            uni = get_universe(n)
            counts = {name: 0 for name in COMPONENTS}
            for el in uni.elements:
                counts[component_of(el)] += 1
            assert sum(counts.values()) == uni.size
            assert counts["Aut"] == [2, 6, 24][n - 2]
            assert counts["D"] == (24 if n == 4 else 0)

    def test_examples(self):
        assert component_of(epsilon(3)) == "Aut"
        assert component_of(sigma4(Transformation.identity(4))) == "D"
        t = Transformation.transposition(3, 2, 3)
        c = Transformation.constant(3, 1)
        assert component_of(phi(t, c)) == "E_3"
        assert component_of(phi(Transformation.identity(3), c)) == "E_2"
        assert component_of(phi(c, c)) == "E_1"


def relabel(monkeypatch, moves):
    """Move each element of ``moves`` to the named component in the labels
    that the idempotent and regular closed forms read."""
    import endtn.structure as structure

    real = structure._component_labels

    def corrupted(n):
        labels, index = real(n).copy(), get_index(n)
        for el, name in moves.items():
            if el in index.index:
                labels[index.of(el)] = COMPONENTS.index(name)
        return labels

    monkeypatch.setattr(structure, "_component_labels", corrupted)


class TestIdempotents:
    def test_sizes_at_four(self):
        part = idempotent_partition(4)
        assert len(part.epsilon) == 1
        assert len(part.E_7) == 4
        assert len(part.E_3) == 24
        assert len(part.E_2) == 40
        assert len(part.E_1) == 41

    def test_E1_exceeds_E2_by_one(self):
        for n in (2, 3, 4, 5):
            part = idempotent_partition(n)
            assert len(part.E_1) == len(part.E_2) + 1

    def test_mismatch_names_first_element_in_enumeration_order(self, monkeypatch):
        """The counterexample is the first wrong element in the order of
        ``elements(4)``, the one element order."""
        elements = list(endomorphisms.elements(4))
        # Two idempotents dropped and two non-idempotents added, spread out.
        idempotents = [el for el in elements if multiply(el, el) is el]
        others = [el for el in elements if multiply(el, el) is not el]
        dropped, added = {idempotents[-1], idempotents[40]}, {others[-1], others[7]}
        relabel(monkeypatch, dict.fromkeys(dropped, "C") | dict.fromkeys(added, "E_1"))
        with pytest.raises(VerificationError, match="idempotents disagree") as err:
            idempotent_partition(4)
        wrong = dropped | added
        assert err.value.counterexample is next(el for el in elements if el in wrong)
        assert err.value.counterexample.key() == "aut:g=2,3,1,4"

    def test_ranks_are_attested(self, monkeypatch):
        victim = next(el for el in enumerate_End(3) if component_of(el) == "E_1")
        assert victim.key() == "phi:t=1,1,1;e=1,1,1"
        relabel(monkeypatch, {victim: "E_2"})
        with pytest.raises(VerificationError, match="idempotent ranks") as err:
            idempotent_partition(3)
        assert err.value.counterexample is victim

    def test_brute_set_is_the_table_diagonal(self):
        """``_idempotents`` reads a^2 = a off the action; the diagonal of
        the table, the same identity cell by cell, is its reference."""
        for n, size in zip(range(1, 6), (1, 6, 23, 1 + 4 + 24 + 40 + 41, 572)):
            uni = get_universe(n)
            diagonal = uni.table[np.arange(uni.size), np.arange(uni.size)]
            expected = np.flatnonzero(diagonal == np.arange(uni.size))
            assert _idempotents(n).tolist() == expected.tolist()
            assert len(expected) == size and not _idempotents(n).flags.writeable

    def test_all_are_idempotent(self):
        part = idempotent_partition(3)
        for el in grouped(part):
            assert multiply(el, el) is el

    def test_brute_side_reads_no_symbolic_product(self, monkeypatch):
        """a^2 = a is decided by the action on the generators, so the
        check runs with ``multiply`` refusing every call."""
        import endtn.structure as structure

        def refused(*args):
            raise AssertionError("multiply was called")

        monkeypatch.setattr(endomorphisms, "multiply", refused)
        assert not hasattr(structure, "multiply")
        # A fresh cache, so that the scan runs under the refusal.
        fresh = functools.lru_cache(structure._idempotents.__wrapped__)
        monkeypatch.setattr(structure, "_idempotents", fresh)
        sizes = [len(grouped(idempotent_partition(n))) for n in range(1, 7)]
        assert fresh.cache_info().misses == 6
        assert sizes == [1, 6, 23, 110, 572, 3_494]

    def test_formula_labels_are_built_once_per_degree(self):
        """The index and the universe of one degree share the component
        labels, so the idempotents (on the index) and a Green's relation
        (on the universe) compute them once."""
        import endtn.structure as structure

        structure._component_labels.cache_clear()
        idempotent_partition(4)
        green_partition(4, "R")
        info = structure._component_labels.cache_info()
        assert get_index(4) is not get_universe(4)
        assert (info.misses, info.currsize) == (1, 1)


class TestRegularity:
    def test_small_degrees_fully_regular(self):
        for n in (1, 2):
            assert regular_elements(n) == frozenset(get_universe(n).elements)

    def test_three_misses_only_C(self):
        regular = regular_elements(3)
        missing = set(get_universe(3).elements) - regular
        assert missing and all(component_of(el) == "C" for el in missing)

    def test_four(self):
        assert len(regular_elements(4)) == 153

    def test_formula_side_reads_the_closed_form_idempotents(self, monkeypatch):
        # The alpha beta alpha sweep of the table is the brute side; moving
        # one E_2 idempotent into C drops it from the closed form, which
        # must be caught.
        elements = get_universe(5).elements
        victim = next(el for el in elements if component_of(el) == "E_2")
        assert victim.key() == "phi:t=1,2,3,4,5;e=1,1,1,1,1"
        relabel(monkeypatch, {victim: "C"})
        with pytest.raises(VerificationError, match="regular elements") as err:
            regular_elements(5)
        assert err.value.counterexample is victim


class TestGreens:
    @pytest.mark.parametrize("relation", GREEN_RELATIONS)
    def test_formula_agrees_with_brute_force(self, relation):
        # green_partition raises VerificationError on any mismatch.
        for n in (2, 3, 4):
            green_partition(n, relation)

    def test_H_equals_L(self):
        for n in (3, 4):
            assert green_partition(n, "H").classes == green_partition(n, "L").classes

    def test_R_D_J_coincide(self):
        for n in (3, 4):
            r = green_partition(n, "R")
            assert r.classes == green_partition(n, "D").classes
            assert r.classes == green_partition(n, "J").classes

    def test_L_trivial_outside_units_at_three(self):
        part = green_partition(3, "L")
        for cls in part.classes:
            if not any(el.is_aut for el in cls):
                assert len(cls) == 1

    def test_rejects_unknown_relation(self):
        with pytest.raises(ValueError):
            green_partition(3, "Q")

    def test_labels_are_int32_on_both_sides(self):
        """Every label array ``_attest`` compares is ``int32``: the closed
        form's, its one-sided memo's and the table's, in all fifteen
        relations."""
        uni = get_universe(4)
        for relation in GREEN_RELATIONS + EXTENDED_RELATIONS:
            assert _formula_labels(uni, relation).dtype == np.int32, relation
            assert _brute_labels(uni, relation).dtype == np.int32, relation
        for relation in ("L", "R", "L*", "R*", "L~", "R~"):
            assert _one_sided_labels(4, relation).dtype == np.int32, relation

    def test_related(self):
        part = green_partition(3, "R")
        g = aut(Transformation.transposition(3, 1, 2))
        assert any(g in cls and epsilon(3) in cls for cls in part.classes)

    @pytest.mark.parametrize("relation", ["R", "L", "H"])
    def test_brute_classes_match_per_element_reference(self, relation):
        for n in (1, 2, 3, 4):
            uni = get_universe(n)
            reference = reference_green_classes(uni.table, relation)
            assert np.array_equal(
                _brute_labels(uni, relation),
                least_member_labels(reference, uni.size),
            )

    def test_each_element_lies_in_one_class(self):
        elements = get_universe(4).elements
        for relation in GREEN_RELATIONS:
            part = green_partition(4, relation)
            for el in elements:
                assert sum(el in cls for cls in part.classes) == 1
            assert sum(map(len, part.classes)) == len(elements)
            assert not any(epsilon(3) in cls for cls in part.classes)


class TestFormulaSidesAtSix:
    """The closed forms run on the n = 6 element index, past the product
    table's bound."""

    def test_partitions_without_a_table(self, monkeypatch):
        import endtn.structure as structure
        import endtn.universe as universe

        def refused(*args):
            raise AssertionError("a product table was built")

        monkeypatch.setattr(universe.Universe, "__init__", refused)
        monkeypatch.setattr(structure, "get_universe", refused)
        index = get_index(6)
        assert index.size == 38_503 and not isinstance(index, universe.Universe)
        # The class counts of the Cayley graphs of End(T_6) over its 86
        # generators, found without the closed form.
        counts = {
            rel: len(np.unique(_formula_labels(index, rel)))
            for rel in GREEN_RELATIONS
        }
        assert counts == {"L": 37_784, "R": 106, "H": 37_784, "D": 106, "J": 106}
        least = np.arange(index.size)
        for rel in EXTENDED_RELATIONS:
            label = _formula_labels(index, rel)
            assert len(label) == index.size
            assert (label <= least).all() and (label[label] == label).all()
        part = idempotent_partition(6)
        sizes = [len(getattr(part, k)) for k in ("epsilon", "E_7", "E_3", "E_2", "E_1")]
        assert sizes == [1, 0, 1_380, 1_056, 1_057]


class TestPrincipalIdeals:
    def test_unit_generates_everything(self):
        ideals = principal_ideals(epsilon(3))
        everything = frozenset(get_universe(3).elements)
        assert ideals.left == ideals.right == ideals.two_sided == everything

    def test_exhaustive_against_table(self):
        for n in (1, 2, 3, 4, 5):
            uni = get_universe(n)
            sets = {}  # reference index sets as element sets, built once each

            def as_elements(indices):
                key = tuple(sorted(indices))
                if key not in sets:
                    sets[key] = uni.element_set(key)
                return sets[key]

            # The two-sided ideal M a M depends on a only through a M.
            two_sided = {}
            for i, el in enumerate(uni.elements):
                right = reference_right_ideal(uni.table, i)
                key = right.tobytes()
                if key not in two_sided:
                    two_sided[key] = reference_two_sided_ideal(uni.table, i)
                ideals = principal_ideals(el)
                left = reference_left_ideal(uni.table, i)
                assert ideals.left == as_elements(left.tolist())
                assert ideals.right == as_elements(right.tolist())
                assert ideals.two_sided == as_elements(two_sided[key])

    def test_warm_caches_still_check_the_formula(self, monkeypatch):
        uni = get_universe(4)
        alpha = next(el for el in uni.elements if component_of(el) == "E_1")
        principal_ideals(alpha)  # fills the mask and element-set caches
        masks = _right_ideal_bits(uni.n)  # E_1's right ideal is E_1 itself
        members = set(uni.members(masks["E_1"]).tolist())
        wrong = uni.pack(members | {uni.of(epsilon(4))})
        monkeypatch.setitem(masks, "E_1", wrong)
        _attested_ideals.cache_clear()  # the next query attests every ideal again
        with pytest.raises(VerificationError, match="right principal ideal"):
            principal_ideals(alpha)

    def test_shared_right_ideal_masks_are_read_only(self):
        uni = get_universe(4)
        for el in uni.elements:
            principal_ideals(el)
            j_leq(el, el)
        for name, mask in _right_ideal_bits(uni.n).items():
            assert mask.tobytes() == uni.pack(
                i for i, el in enumerate(uni.elements)
                if component_of(el) in _RIGHT_IDEAL_COMPONENTS[name]
            ).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                mask |= 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_j_leq_matches_reference_inclusion(self, n):
        uni = get_universe(n)
        two_sided = [reference_two_sided_ideal(uni.table, i) for i in range(uni.size)]
        for a, alpha in enumerate(uni.elements):
            for b, beta in enumerate(uni.elements):
                assert j_leq(alpha, beta) == (two_sided[b] <= two_sided[a])

    def test_j_leq_attests_the_whole_ideal(self, monkeypatch):
        """Flipping a bit of alpha's formula mask away from beta is caught."""
        import endtn.structure as structure

        uni = get_universe(4)
        alpha = next(el for el in uni.elements if component_of(el) == "E_2")
        beta = next(el for el in uni.elements if component_of(el) == "E_1")
        flip = uni.of(epsilon(4))
        real = structure._formula_two_sided_ideal

        def flipped(u, el, name):
            bits = real(u, el, name).copy()
            if el is alpha:
                bits[flip >> 3] ^= 0x80 >> (flip & 7)
            return bits

        assert j_leq(alpha, beta)
        monkeypatch.setattr(structure, "_formula_two_sided_ideal", flipped)
        _attested_ideals.cache_clear()
        with pytest.raises(VerificationError, match="two-sided principal") as err:
            j_leq(alpha, beta)
        assert err.value.counterexample is epsilon(4)

    @pytest.mark.parametrize("n", [4, 5])
    def test_first_query_attests_every_ideal_once(self, monkeypatch, n):
        """The first query of a universe runs the closed form of all three
        principal ideals of every element; later queries run none."""
        import endtn.structure as structure

        uni = get_universe(n)
        seen = {}
        for side in ("left", "right", "two_sided"):
            name = f"_formula_{side}_ideal"
            real = getattr(structure, name)

            def recording(u, alpha, *rest, real=real, side=side):
                seen.setdefault(side, set()).add(u.of(alpha))
                return real(u, alpha, *rest)

            monkeypatch.setattr(structure, name, recording)
        _attested_ideals.cache_clear()
        alpha = uni.elements[len(uni.elements) // 2]
        principal_ideals(alpha)
        assert seen == dict.fromkeys(("left", "right", "two_sided"), set(range(uni.size)))
        seen.clear()
        for beta in uni.elements:
            principal_ideals(beta)
            j_leq(beta, alpha)
        assert seen == {}

    @pytest.mark.parametrize(
        "side, query",
        [
            ("left", principal_ideals),
            ("right", lambda a: j_leq(a, a)),
            ("two_sided", lambda a: j_leq(a, a)),
        ],
        ids=["left", "right", "two_sided"],
    )
    def test_first_query_attests_other_elements(self, monkeypatch, side, query):
        """A wrong closed-form mask of the last element is caught by the
        first query of the universe, which asks about the first."""
        import endtn.structure as structure

        uni = get_universe(5)
        last, flip = uni.elements[-1], uni.of(epsilon(5))
        name = f"_formula_{side}_ideal"
        real = getattr(structure, name)

        def flipped(u, alpha, *rest):
            bits = real(u, alpha, *rest)
            if alpha is last:
                bits = bits.copy()
                bits[flip >> 3] ^= 0x80 >> (flip & 7)
            return bits

        monkeypatch.setattr(structure, name, flipped)
        _attested_ideals.cache_clear()
        what = side.replace("_", "-") + " principal ideals"
        with pytest.raises(VerificationError, match=what) as err:
            query(epsilon(5))
        assert err.value.counterexample is epsilon(5)

    def test_j_leq_is_a_preorder(self):
        uni = get_universe(3)
        els = uni.elements
        for a in els:
            assert j_leq(a, a)
        rng = random.Random(2)
        for _ in range(200):
            a, b, c = (els[rng.randrange(len(els))] for _ in range(3))
            if j_leq(a, b) and j_leq(b, c):
                assert j_leq(a, c)


class TestIdeals:
    def test_counts(self):
        assert len(enumerate_ideals(2)) == 3
        assert len(enumerate_ideals(3)) == 7

    def test_all_forms_appear_at_three(self):
        forms = {d.form for d in enumerate_ideals(3)}
        assert forms == {"whole", "singular", "even-closed", "nonperm-closed"}

    def test_every_ideal_is_closed(self):
        uni = get_universe(3)
        for desc in enumerate_ideals(3):
            assert uni.is_two_sided_closed(desc.mask)

    def test_emitted_ideals_are_checked_closed(self, monkeypatch):
        import endtn.structure as structure

        uni = get_universe(4)
        ideals = list(structure._ideal_masks(uni))
        k, members = next(
            (k, m) for k, m in enumerate(map(uni.members, ideals)) if len(m) > 1
        )
        ideals[k] = uni.pack(members[:-1])  # the greatest member dropped
        assert not reference_is_two_sided_closed(uni.table, members[:-1])
        monkeypatch.setattr(structure, "_ideal_masks", lambda u: ideals)
        with pytest.raises(VerificationError, match="not two-sided closed"):
            enumerate_ideals(4)

    def test_ideals_are_kept_as_masks_until_read(self, monkeypatch):
        """Listing the ideals and rendering them builds no element set:
        each ideal is a packed mask with its size, and its members are
        read off the mask."""
        from endtn.universe import Universe

        uni = get_universe(4)
        calls = []
        real = Universe.element_set

        def counting(self, indices):
            calls.append(len(indices))
            return real(self, indices)

        monkeypatch.setattr(Universe, "element_set", counting)
        descs = enumerate_ideals(4)
        sizes = [d.to_json()["size"] for d in descs]
        assert len(descs) == 583 and calls == []
        for desc, size in zip(descs, sizes):
            assert desc.mask.dtype == np.uint8 and len(desc.mask) == 44
            assert len(uni.members(desc.mask)) == desc.size == size

    def test_ideals_are_ordered_by_size_growth(self):
        descs = enumerate_ideals(3)
        whole = [d for d in descs if d.form == "whole"]
        uni = get_universe(3)
        assert len(whole) == 1 and len(uni.members(whole[0].mask)) == uni_size(3)

    def test_brute_cross_check_runs_at_five(self, monkeypatch):
        import endtn.structure as structure

        real = structure._brute_labels

        def skewed(uni, relation):
            label = real(uni, relation).copy()
            classes = np.unique(label)
            label[label == classes[-1]] = classes[-2]  # two classes merged
            return label

        monkeypatch.setattr(structure, "_brute_labels", skewed)
        with pytest.raises(VerificationError, match="J-classes disagree"):
            enumerate_ideals(5)

    def test_brute_two_sided_rows_are_attested_at_five(self, monkeypatch):
        uni = get_universe(5)
        rows, label = uni.two_sided_ideals
        rows = rows.copy()
        extra = uni.of(epsilon(5))
        rows[label[-1], extra >> 3] ^= 0x80 >> (extra & 7)
        monkeypatch.setitem(uni.__dict__, "two_sided_ideals", (rows, label))
        _attested_ideals.cache_clear()
        with pytest.raises(VerificationError, match="two-sided principal") as err:
            enumerate_ideals(5)
        assert err.value.counterexample is epsilon(5)

    def test_formula_classes_mismatch_names_first_difference(self, monkeypatch):
        import endtn.structure as structure

        uni = get_universe(4)
        brute = _brute_labels(uni, "J")
        label = _formula_labels(uni, "J").copy()
        members = np.flatnonzero(label == label[-1])
        label[members[-2:]] = members[-2]  # the last two members split off
        monkeypatch.setattr(structure, "_formula_labels", lambda u, r: label)
        with pytest.raises(VerificationError, match="J-classes disagree") as err:
            enumerate_ideals(4)
        x, y = map(uni.of, err.value.counterexample)
        assert x == np.flatnonzero(label != brute)[0] == members[-2]
        assert y == members[0]

    def test_formula_ideal_mismatch_names_least_difference(self, monkeypatch):
        import endtn.structure as structure

        uni = get_universe(4)
        real = structure._formula_two_sided_ideal
        # E_1 is the least J-class; its ideal gains three elements.
        extra = [uni.of(el) for el in uni.elements if component_of(el) == "C"][-3:]

        def grown(u, alpha, name):
            bits = real(u, alpha, name)
            if component_of(alpha) == "E_1":
                bits = bits | u.pack(extra)
            return bits

        monkeypatch.setattr(structure, "_formula_two_sided_ideal", grown)
        _attested_ideals.cache_clear()
        with pytest.raises(VerificationError, match="two-sided principal") as err:
            enumerate_ideals(4)
        assert err.value.counterexample is uni.elements[min(extra)]


def uni_size(n):
    return get_universe(n).size


class TestFixSets:
    def test_known_witness(self):
        t = Transformation.from_images([1, 3, 2, 1, 5])
        e = Transformation.constant(5, 1)
        result = fix_set(PermissiblePair(t, e))
        assert result.elements == {
            Transformation.identity(5),
            Transformation.transposition(5, 2, 3),
        }

    def test_contains_identity_and_is_a_group(self):
        from endtn.transformations import compose

        t = Transformation.from_images([1, 1, 3, 4])
        e = Transformation.constant(4, 1)
        result = fix_set(PermissiblePair(t, e))
        assert Transformation.identity(4) in result.elements
        for g, h in itertools.product(result.elements, repeat=2):
            assert compose(g, h) in result.elements


class TestExtended:
    def test_one_sided_formulas_are_built_once_per_degree(self, monkeypatch):
        """Every two-sided relation, Green's or extended, reads the L, R,
        L*, R*, L~ and R~ classes the closed form has already built, on the
        index or the universe of the degree alike."""
        import endtn.structure as structure

        built, real = [], structure._left_keys

        def counting(uni):
            built.append(uni.n)
            return real(uni)

        monkeypatch.setattr(structure, "_left_keys", counting)
        _one_sided_labels.cache_clear()
        for uni in (get_index(4), get_universe(4)):
            for relation in GREEN_RELATIONS + EXTENDED_RELATIONS:
                _formula_labels(uni, relation)
        info = _one_sided_labels.cache_info()
        assert (info.misses, info.currsize) == (6, 6)
        assert built == [4, 4, 4]  # the L-classes under L, L* and L~, once each
        for relation in ("L", "L*"):
            with pytest.raises(ValueError, match="read-only"):
                _one_sided_labels(4, relation)[0] = 1

    @pytest.mark.parametrize("relation", EXTENDED_RELATIONS)
    def test_formula_agrees_with_brute_force(self, relation):
        for n in (2, 3, 4):
            extended_partition(n, relation)

    def test_starred_R_equals_tilde_R(self):
        for n in (3, 4):
            assert (
                extended_partition(n, "R*").classes
                == extended_partition(n, "R~").classes
            )

    def test_saturated_ideals_match_reference(self):
        for n in (2, 3, 4):
            uni = get_universe(n)
            for suffix in "*~":
                labels = [_brute_labels(uni, side + suffix) for side in "LR"]
                class_of = {i: [] for i in range(uni.size)}
                for label in labels:
                    for cls in partition_of(label.tolist()):
                        for i in cls:
                            class_of[i].append(cls)
                d_label = _brute_labels(uni, "D" + suffix)
                for cls in partition_of(d_label.tolist()):
                    seed = np.array(sorted(cls))
                    saturated = uni.members(_saturated_ideal(uni, seed, labels))
                    assert frozenset(saturated.tolist()) == (
                        reference_saturated_ideal(uni.table, cls, class_of)
                    )

    @settings(max_examples=60, deadline=None)
    @given(
        rows=arrays(
            np.int32,
            st.tuples(st.integers(1, 300), st.integers(1, 12)),
            elements=st.integers(0, 4),
        ),
        relabel=st.permutations(range(5)),
    )
    def test_kernel_keys_match_reference(self, rows, relabel):
        keys = list(_kernel_keys(rows))
        reference = reference_kernel_keys(rows)
        # Same partition of the rows, and each key has its row's kernel,
        # one uint8 per position (at most 12).
        assert partition_of(keys) == partition_of(reference)
        decoded = np.array([np.frombuffer(k, dtype=np.uint8) for k in keys])
        assert decoded.shape == rows.shape
        assert reference_kernel_keys(decoded) == reference
        # The key depends on the kernel only, not on the values.
        assert list(_kernel_keys(np.array(relabel, dtype=np.int32)[rows])) == keys

    def test_kernel_keys_pinned_at_five(self):
        """Byte for byte the keys of one ``np.unique`` per row, as
        ``uint16``, on the inputs the brute sides pass (every row for L*,
        every whole column for R*), on a copy of the idempotent rows'
        columns and on non-contiguous views."""
        uni = get_universe(5)
        table = uni.table
        idem = _idempotents(5)
        cases = [table, table.T, table[idem, :].T, table[:, ::-1], table[::2]]
        for lines in cases:
            keys = _kernel_keys(lines)
            pairs = zip(keys, unique_kernel_keys(lines, np.uint16), strict=True)
            for key, expected in pairs:
                assert key == expected
        assert list(_kernel_keys(np.empty((0, 7), dtype=np.int32))) == []

    def test_kernel_keys_at_the_widest_table(self):
        """Lines as wide as the largest table (65,536 cells, the ``uint16``
        limit) key their positions in ``uint16``, whose maximum is the
        last position."""
        width = 65_536
        rows = np.stack([np.arange(width) % 7, np.arange(width)[::-1], np.zeros(width)])
        rows = rows.astype(np.uint16)
        rows[2, -1] = 1  # only the last position holds this value
        assert list(_kernel_keys(rows)) == list(unique_kernel_keys(rows, np.uint16))

    @pytest.mark.parametrize("corruption", ["merge", "split"])
    @pytest.mark.parametrize(
        "relation, side",
        [(rel, side) for side in ("formula", "brute") for rel in ("R", "R*", "L*")],
        ids=["R", "R*", "L*", "R-brute", "R*-brute", "L*-brute"],
    )
    def test_mismatch_names_a_separating_pair(
        self, monkeypatch, relation, side, corruption
    ):
        """A corrupted formula or brute side is reported at the first
        element whose class differs, with an earlier element that exactly
        one side puts in that class."""
        import endtn.structure as structure

        uni = get_universe(4)
        check = green_partition if relation in GREEN_RELATIONS else extended_partition
        name = f"_{side}_labels"
        real = getattr(structure, name)
        other = (_brute_labels if side == "formula" else _formula_labels)(uni, relation)
        label = real(uni, relation).copy()
        classes = np.unique(label)
        if corruption == "merge":
            label[label == classes[-1]] = classes[-2]
        else:
            big = next(c for c in classes if np.count_nonzero(label == c) > 1)
            last = np.flatnonzero(label == big)[-1]
            label[last] = last
        monkeypatch.setattr(
            structure, name, lambda u, r: label if r == relation else real(u, r)
        )
        message = re.escape(f"{relation}-classes disagree")
        with pytest.raises(VerificationError, match=message) as err:
            check(4, relation)
        x, y = map(uni.of, err.value.counterexample)
        assert (label[x] == label[y]) != (other[x] == other[y])
        assert x == np.flatnonzero(label != other)[0] and y < x

    def test_starred_R_brute_side_reads_every_left_factor(self, monkeypatch):
        """a R* b when xa = ya exactly where xb = yb, for every x and y of
        S, not only the idempotents.  In the monoid {1, a, 0} with a^2 = 0
        and 0 a zero, whose idempotents are 1 and 0, two idempotents x != y
        give x1 != y1 and xa != ya, so the idempotent rows relate 1 and a.
        But x = a, y = 0 separates them: a1 = a != 0 = 01, while
        aa = 0 = 0a.  Over all of S each element is its own class."""
        import endtn.structure as structure

        table = np.array([[0, 1, 2], [1, 2, 2], [2, 2, 2]])
        idem = np.array([e for e in range(3) if table[e, e] == e])
        assert idem.tolist() == [0, 2]
        # Whichever idempotents the brute side reads, they are this monoid's.
        monkeypatch.setattr(structure, "_idempotents", lambda n: idem)
        stub = types.SimpleNamespace(table=table, n=3)
        label = _brute_labels.__wrapped__(stub, "R*")

        def related(a, b):
            pairs = itertools.product(range(3), repeat=2)
            return all(
                (table[x, a] == table[y, a]) == (table[x, b] == table[y, b])
                for x, y in pairs
            )

        naive = [min(b for b in range(3) if related(a, b)) for a in range(3)]
        assert label.tolist() == naive == [0, 1, 2]

    def test_abundance_small(self):
        report = abundance_report(2)
        assert report.left_abundant and report.right_abundant
        assert report.left_fountain and report.right_fountain

    def test_abundance_three(self):
        report = abundance_report(3)
        assert report.left_abundant and not report.right_abundant
        assert report.left_fountain and report.right_fountain

    @pytest.mark.parametrize(
        "n, expected", [(1, [True, True, True, True]), (4, [True, False, True, True])]
    )
    def test_abundance_pinned(self, n, expected):
        """Left and right abundance, then the left and right Fountain
        properties, in the order ``to_json`` and the CLI give them."""
        fields = ["left_abundant", "right_abundant", "left_fountain", "right_fountain"]
        assert abundance_report(n).to_json() == {"n": n, **dict(zip(fields, expected))}
        assert list(abundance_report(n).to_json()) == ["n", *fields]

    def test_abundance_attests_its_relations(self, monkeypatch):
        """Two R*-classes merged on the formula side still each hold an
        idempotent, so only the attestation catches them."""
        import endtn.structure as structure

        real = structure._formula_labels

        def merged(uni, relation):
            label = real(uni, relation)
            if relation == "R*":
                label, classes = label.copy(), np.unique(label)
                label[label == classes[-1]] = classes[-2]
            return label

        monkeypatch.setattr(structure, "_formula_labels", merged)
        with pytest.raises(VerificationError, match=re.escape("R*-classes disagree")):
            abundance_report(4)

    def test_abundance_builds_no_partition(self, monkeypatch):
        import endtn.structure as structure

        def refused(*args):
            raise AssertionError("a partition was built")

        monkeypatch.setattr(structure, "_partition", refused)
        assert abundance_report(3).left_abundant


class TestTransientMemory:
    """The transient peak of the brute sides at n = 5, beyond the table,
    its bitsets and the memoised labels, traced in process by
    ``tracemalloc``, to which numpy reports its buffers."""

    @staticmethod
    def peak_mb(build) -> float:
        tracemalloc.start()
        try:
            build()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_ideal_enumeration(self):
        enumerate_ideals(5)  # the caches it reads, built untraced
        # 12.6 MB while every ideal was a frozenset of indices.
        assert self.peak_mb(lambda: enumerate_ideals(5)) < 3

    # 12.4, 5.8, 6.0 and 5.7 MB with int32 kernel keys and a copy of the
    # table's idempotent rows or columns.  R* over whole columns: 1.0 MB.
    @pytest.mark.parametrize(
        "relation, bound_mb", [("L*", 6), ("R*", 2), ("L~", 2), ("R~", 2)]
    )
    def test_one_sided_brute_labels(self, relation, bound_mb):
        uni = get_universe(5)
        _idempotents(5)  # read by L~ and R~, built untraced
        build = _brute_labels.__wrapped__  # past the memo: built afresh
        assert self.peak_mb(lambda: build(uni, relation)) < bound_mb
