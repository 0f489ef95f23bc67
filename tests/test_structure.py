import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from endtn.endomorphisms import aut, epsilon, multiply, phi, phi_trivial, sigma4
from endtn.errors import VerificationError
from endtn.pairs import PermissiblePair
from endtn.structure import (
    COMPONENTS,
    EXTENDED_RELATIONS,
    GREEN_RELATIONS,
    _brute_green_classes,
    _component_bits,
    _extended_brute_classes,
    _kernel_keys,
    _labels,
    _saturated_ideal,
    abundance_report,
    component_of,
    enumerate_ideals,
    extended_partition,
    extended_probe_check,
    fix_set,
    green_partition,
    idempotent_partition,
    j_leq,
    j_order_dot,
    principal_ideals,
    regular_elements,
)
from endtn.transformations import Transformation
from endtn.universe import get_universe
from test_universe import (
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

    def test_all_are_idempotent(self):
        part = idempotent_partition(3)
        for el in part.all:
            assert multiply(el, el) is el


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

    def test_related(self):
        part = green_partition(3, "R")
        g = aut(Transformation.transposition(3, 1, 2))
        assert part.related(epsilon(3), g)

    @pytest.mark.parametrize("relation", ["R", "L", "H"])
    def test_brute_classes_match_per_element_reference(self, relation):
        for n in (1, 2, 3, 4):
            uni = get_universe(n)
            brute = {frozenset(c) for c in _brute_green_classes(uni, relation)}
            assert brute == reference_green_classes(uni.table, relation)

    def test_class_of_matches_scan(self):
        elements = get_universe(4).elements
        for relation in GREEN_RELATIONS:
            part = green_partition(4, relation)
            for el in elements:
                scanned = next(cls for cls in part.classes if el in cls)
                assert part.class_of(el) is scanned
                assert part.related(el, min(scanned))
        with pytest.raises(KeyError, match="lies in no class of J"):
            part.class_of(epsilon(3))


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
        masks = _component_bits(uni)
        members = set(uni.members(masks["E_1"]).tolist())
        wrong = uni.pack(members | {uni.of(epsilon(4))})
        monkeypatch.setitem(masks, "E_1", wrong)
        with pytest.raises(VerificationError, match="right principal ideal"):
            principal_ideals(alpha)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_j_leq_matches_reference_inclusion(self, n):
        uni = get_universe(n)
        two_sided = [reference_two_sided_ideal(uni.table, i) for i in range(uni.size)]
        for a, alpha in enumerate(uni.elements):
            for b, beta in enumerate(uni.elements):
                assert j_leq(alpha, beta) == (two_sided[b] <= two_sided[a])

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
            assert uni.is_two_sided_closed(uni.index_set(desc.elements))

    def test_ideals_are_ordered_by_size_growth(self):
        descs = enumerate_ideals(3)
        whole = [d for d in descs if d.form == "whole"]
        assert len(whole) == 1 and len(whole[0].elements) == uni_size(3)

    def test_brute_cross_check_runs_at_five(self, monkeypatch):
        import endtn.structure as structure

        real = structure._ideal_index_sets

        def skewed(uni, brute):
            ideals = real(uni, brute)
            return ideals[1:] if brute else ideals

        monkeypatch.setattr(structure, "_ideal_index_sets", skewed)
        with pytest.raises(VerificationError):
            enumerate_ideals(5)

    def test_dot_output(self):
        dot = j_order_dot(3)
        assert dot.startswith("digraph") and "->" in dot


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

    def test_probe_checks(self):
        assert extended_probe_check(3, "R*")
        assert extended_probe_check(3, "L*")
        with pytest.raises(ValueError):
            extended_probe_check(3, "H*")

    def test_probe_check_is_exhaustive_at_four(self, monkeypatch):
        import endtn.structure as structure

        uni = get_universe(4)
        # Wrong on purpose: the identity and the trivial-type map share a class.
        a, b = uni.of(epsilon(4)), uni.of(phi_trivial(4))
        classes = tuple(
            frozenset({i}) for i in range(uni.size) if i not in (a, b)
        ) + (frozenset({a, b}),)
        monkeypatch.setattr(structure, "_extended_brute_classes", lambda u, r: classes)
        for relation in ("R*", "L*"):
            with pytest.raises(VerificationError):
                extended_probe_check(4, relation, samples=0)

    def test_saturated_ideals_match_reference(self):
        for n in (2, 3, 4):
            uni = get_universe(n)
            for suffix in "*~":
                sides = [_extended_brute_classes(uni, side + suffix) for side in "LR"]
                labels = [_labels(uni.size, classes) for classes in sides]
                class_of = {i: [] for i in range(uni.size)}
                for classes in sides:
                    for cls in classes:
                        for i in cls:
                            class_of[i].append(cls)
                for cls in _extended_brute_classes(uni, "D" + suffix):
                    assert _saturated_ideal(uni, cls, labels) == (
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
        keys = _kernel_keys(rows)
        reference = reference_kernel_keys(rows)
        # Same partition of the rows, and each key has its row's kernel.
        assert partition_of(keys) == partition_of(reference)
        decoded = np.array([np.frombuffer(k, dtype=np.int32) for k in keys])
        assert reference_kernel_keys(decoded) == reference
        # The key depends on the kernel only, not on the values.
        assert _kernel_keys(np.array(relabel, dtype=np.int32)[rows]) == keys

    def test_abundance_small(self):
        report = abundance_report(2)
        assert report.left_abundant and report.right_abundant
        assert report.left_fountain and report.right_fountain

    def test_abundance_three(self):
        report = abundance_report(3)
        assert report.left_abundant and not report.right_abundant
        assert report.left_fountain and report.right_fountain
