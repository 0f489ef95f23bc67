"""Structure of End(T_n): idempotents, regularity, Green's relations,
ideals, and the starred/tilde extensions of Green's relations.

Everything here is computed twice: once from the closed-form
characterisation (in terms of the Aut/D/E_3/A/B/E_2/C/E_1 decomposition)
and once by brute force from the defining property, using the product
table.  The two answers are compared and a VerificationError is raised
on any disagreement, so a returned value is always doubly attested.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .cosets import MAX_COSET_DEGREE, get_cosets
from .endomorphisms import (
    MAX_END_DEGREE,
    Endomorphism,
    TypeTag,
    enumerate_End,
    epsilon,
    klein_four,
    multiply,
    phi,
    sigma4,
)
from .errors import VerificationError
from .pairs import PermissiblePair
from .transformations import (
    Transformation,
    check_capacity,
    compose,
    conjugate,
    enumerate_permutations,
)
from .universe import Universe, get_universe

GREEN_RELATIONS = ("L", "R", "H", "D", "J")
EXTENDED_RELATIONS = ("R*", "L*", "H*", "D*", "J*", "R~", "L~", "H~", "D~", "J~")

# Component labels of the rank-and-type decomposition.
COMPONENTS = ("Aut", "D", "E_3", "A", "B", "E_2", "C", "E_1")


def component_of(alpha: Endomorphism) -> str:
    """Which block of the rank-and-type decomposition alpha belongs to."""
    if alpha.is_aut:
        return "Aut"
    if alpha.is_sigma4:
        return "D"
    tag = alpha.type_tag
    if tag == TypeTag.ODD:
        return "E_3"
    if tag == TypeTag.EVEN:
        return "E_2" if alpha.t.is_identity else "A"
    if tag == TypeTag.TRIVIAL:
        return "E_1"
    # non-permutation type: split by rank via idempotency of t
    if alpha.t == alpha.e:
        return "E_1"
    return "C" if alpha.t == alpha.t2 else "B"


_component_cache: dict[int, dict[str, list[int]]] = {}


def _components(uni: Universe) -> dict[str, list[int]]:
    cached = _component_cache.get(uni.n)
    if cached is None:
        cached = {name: [] for name in COMPONENTS}
        for i, el in enumerate(uni.elements):
            cached[component_of(el)].append(i)
        _component_cache[uni.n] = cached
    return cached


# -- partitions -------------------------------------------------------------


@dataclass(frozen=True)
class GreenPartition:
    """A named equivalence relation given by its classes.

    Classes are ordered by their minimal element, so output is
    deterministic across runs.
    """

    relation: str
    classes: tuple[frozenset[Endomorphism], ...]

    def class_of(self, alpha: Endomorphism) -> frozenset[Endomorphism]:
        for cls in self.classes:
            if alpha in cls:
                return cls
        raise KeyError(f"{alpha!r} lies in no class of {self.relation}")

    def related(self, alpha: Endomorphism, beta: Endomorphism) -> bool:
        return beta in self.class_of(alpha)

    def to_json(self) -> dict:
        return {
            "relation": self.relation,
            "classes": [
                sorted(el.key() for el in cls) for cls in self.classes
            ],
        }


def _as_partition(relation: str, uni: Universe, classes) -> GreenPartition:
    sets = [uni.element_set(cls) for cls in classes]
    sets.sort(key=lambda s: min(s).sort_key())
    return GreenPartition(relation, tuple(sets))


def _classes_from_keys(keys) -> list[set[int]]:
    by_key: dict = {}
    for i, key in enumerate(keys):
        by_key.setdefault(key, set()).add(i)
    return list(by_key.values())


def _row_keys(bits: np.ndarray) -> list[bytes]:
    return [row.tobytes() for row in bits]


def _labels(size: int, classes) -> np.ndarray:
    """The number of each element's class, as an array over the elements."""
    label = np.empty(size, dtype=np.int64)
    for k, cls in enumerate(classes):
        label[list(cls)] = k
    return label


def _check_same_partition(relation: str, uni: Universe, formula, brute) -> None:
    f = {frozenset(c) for c in formula}
    b = {frozenset(c) for c in brute}
    if f == b:
        return
    # Find one element whose two classes disagree, for the error report.
    f_of = {i: frozenset(c) for c in formula for i in c}
    b_of = {i: frozenset(c) for c in brute for i in c}
    for i in range(uni.size):
        if f_of[i] != b_of[i]:
            j = next(iter(f_of[i] ^ b_of[i]))
            raise VerificationError(
                f"{relation}-classes disagree between characterisation and "
                f"brute force at {uni.elements[i]!r}",
                counterexample=(uni.elements[i], uni.elements[j]),
            )
    raise VerificationError(f"{relation}-partitions disagree")


def _merge_join(size: int, partitions) -> list[set[int]]:
    """Join of equivalence relations by iterated class merging (union-find)."""
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for classes in partitions:
        for cls in classes:
            it = iter(cls)
            root = find(next(it))
            for other in it:
                parent[find(other)] = root
    groups: dict[int, set[int]] = {}
    for i in range(size):
        groups.setdefault(find(i), set()).add(i)
    return list(groups.values())


# -- idempotents ------------------------------------------------------------


@dataclass(frozen=True)
class IdempotentPartition:
    """The idempotents of End(T_n), grouped by rank."""

    epsilon: frozenset[Endomorphism]
    E_7: frozenset[Endomorphism]
    E_3: frozenset[Endomorphism]
    E_2: frozenset[Endomorphism]
    E_1: frozenset[Endomorphism]

    @property
    def all(self) -> frozenset[Endomorphism]:
        return self.epsilon | self.E_7 | self.E_3 | self.E_2 | self.E_1


def idempotent_partition(n: int) -> IdempotentPartition:
    """Idempotents grouped by rank, cross-checked against {a : a^2 = a}.

    Works one degree beyond the product-table guard because both sides
    only need a single pass over the elements.
    """
    check_capacity(n, MAX_END_DEGREE, "idempotent enumeration")
    groups = {"epsilon": set(), "E_7": set(), "E_3": set(), "E_2": set(), "E_1": set()}
    brute = set()
    klein = set(klein_four())
    for el in enumerate_End(n):
        if multiply(el, el) is el:
            brute.add(el)
        if el.is_aut:
            if el.g.is_identity:
                groups["epsilon"].add(el)
        elif el.is_sigma4:
            if el.g in klein:
                groups["E_7"].add(el)
        elif el.type_tag == TypeTag.ODD:
            groups["E_3"].add(el)
        elif el.t.is_identity and not el.e.is_identity:
            groups["E_2"].add(el)
        elif el.t == el.e or el.type_tag == TypeTag.TRIVIAL:
            groups["E_1"].add(el)
    part = IdempotentPartition(**{k: frozenset(v) for k, v in groups.items()})
    if part.all != brute:
        diff = next(iter(part.all ^ brute))
        raise VerificationError(
            "rank-based idempotent description disagrees with a^2 = a",
            counterexample=diff,
        )
    for name, rank in (("E_7", 7), ("E_3", 3), ("E_2", 2), ("E_1", 1)):
        for el in groups[name]:
            if el.rank != rank:
                raise VerificationError(f"{name} member {el!r} has rank {el.rank}")
    return part


# -- regularity -------------------------------------------------------------


def regular_elements(n: int) -> frozenset[Endomorphism]:
    """All regular elements, found by brute force over the product table.

    Cross-checked against the closed form: everything for n <= 2, all but
    the rank-2 non-idempotents for n = 3, and Aut together with the
    idempotents for n >= 5 (with the whole rank-7 block also regular at
    n = 4).
    """
    uni = get_universe(n)
    table = uni.table
    regular = set()
    for i in range(uni.size):
        # alpha beta alpha over all beta in one vectorised sweep
        if np.any(table[table[i], i] == i):
            regular.add(i)
    comp = _components(uni)
    if n <= 2:
        expected = set(range(uni.size))
    elif n == 3:
        expected = set(range(uni.size)) - set(comp["C"])
    else:
        idem = set(int(x) for x in uni.idempotent_indices)
        expected = set(comp["Aut"]) | set(comp["D"]) | idem
    if regular != expected:
        diff = uni.elements[next(iter(regular ^ expected))]
        raise VerificationError(
            "regular-element description disagrees with brute force",
            counterexample=diff,
        )
    return uni.element_set(regular)


# -- Green's relations ------------------------------------------------------


def _formula_green_classes(uni: Universe, relation: str) -> list[set[int]]:
    comp = _components(uni)
    n = uni.n
    if relation in ("L", "H"):
        classes = [set(comp["Aut"])]
        if n == 4:
            by_target: dict[int, set[int]] = {}
            for i in comp["D"]:
                by_target.setdefault(uni.elements[i].g.word[3], set()).add(i)
            classes.extend(by_target.values())
        singles = [
            {i}
            for name in ("E_3", "A", "B", "E_2", "C", "E_1")
            for i in comp[name]
        ]
        return classes + singles
    # R, D and J share the same classes.
    classes = [set(comp["Aut"])]
    if comp["D"]:
        classes.append(set(comp["D"]))
    for name in ("E_3", "E_2", "E_1"):
        if comp[name]:
            classes.append(set(comp[name]))
    cosets = get_cosets(n)
    for name in ("A", "B", "C"):
        orbit_groups: dict[Endomorphism, set[int]] = {}
        for i in comp[name]:
            rep = cosets.representative(uni.elements[i])
            orbit_groups.setdefault(rep, set()).add(i)
        classes.extend(orbit_groups.values())
    return classes


def _brute_green_classes(uni: Universe, relation: str) -> list[set[int]]:
    if relation == "R":
        return _classes_from_keys(_row_keys(uni.right_bits))
    if relation == "L":
        return _classes_from_keys(_row_keys(uni.left_bits))
    if relation == "H":
        left, right = _row_keys(uni.left_bits), _row_keys(uni.right_bits)
        return _classes_from_keys(list(zip(left, right)))
    if relation == "D":
        return _merge_join(
            uni.size,
            (_brute_green_classes(uni, "L"), _brute_green_classes(uni, "R")),
        )
    if relation == "J":
        keys = [uni.two_sided_ideal(i) for i in range(uni.size)]
        return _classes_from_keys(keys)
    raise ValueError(f"unknown Green's relation {relation!r}")


def green_partition(n: int, relation: str) -> GreenPartition:
    """One of the five Green's relations, doubly computed and verified."""
    if relation not in GREEN_RELATIONS:
        raise ValueError(f"relation must be one of {GREEN_RELATIONS}")
    uni = get_universe(n)
    formula = _formula_green_classes(uni, relation)
    brute = _brute_green_classes(uni, relation)
    _check_same_partition(relation, uni, formula, brute)
    return _as_partition(relation, uni, formula)


# -- principal ideals -------------------------------------------------------


@dataclass(frozen=True)
class PrincipalIdeals:
    left: frozenset[Endomorphism]
    right: frozenset[Endomorphism]
    two_sided: frozenset[Endomorphism]


def _formula_left_ideal(uni: Universe, alpha: Endomorphism) -> set[int]:
    if alpha.is_aut:
        return set(range(uni.size))
    if alpha.is_phi:
        t, e, t2 = alpha.t, alpha.e, alpha.t2
        return {
            uni.of(alpha),
            uni.of(phi(t2, e)),
            uni.of(phi(e, e)),
            uni.of(phi(t2, t2)),
        }
    # rank-7 case: images under every left multiplier, by characterisation
    from .endomorphisms import apply, coset_rep_fixing_4

    out = set()
    for h in enumerate_permutations(4):
        out.add(uni.of(sigma4(compose(coset_rep_fixing_4(h), alpha.g))))
    for j in uni.phi_indices:
        el = uni.elements[j]
        out.add(uni.of(phi(apply(alpha, el.t), apply(alpha, el.e))))
    return out


def _formula_right_ideal(uni: Universe, alpha: Endomorphism) -> set[int]:
    comp = _components(uni)
    name = component_of(alpha)
    if name == "Aut":
        return set(range(uni.size))
    if name == "D":
        return set(range(uni.size)) - set(comp["Aut"])
    if name == "E_3":
        return set(range(uni.size)) - set(comp["Aut"]) - set(comp["D"])
    if name == "E_2":
        return set(comp["E_2"]) | set(comp["C"]) | set(comp["E_1"])
    if name == "E_1":
        return set(comp["E_1"])
    orbit = uni.index_set(get_cosets(uni.n).orbit(alpha))
    if name == "A":
        return orbit | set(comp["E_2"]) | set(comp["C"]) | set(comp["E_1"])
    return orbit | set(comp["E_1"])  # B or C


def _formula_two_sided_ideal(uni: Universe, alpha: Endomorphism) -> set[int]:
    if component_of(alpha) != "B":
        return _formula_right_ideal(uni, alpha)
    # The one case where the right ideal is not already two-sided: closing
    # an orbit of B under the plus map lands in the companion C-orbit.
    comp = _components(uni)
    cosets = get_cosets(uni.n)
    both = cosets.orbit(alpha) | cosets.orbit(phi(alpha.t2, alpha.e))
    return uni.index_set(both) | set(comp["E_1"])


def principal_ideals(alpha: Endomorphism) -> PrincipalIdeals:
    """Left/right/two-sided principal ideals, verified against the table."""
    uni = get_universe(alpha.n)
    i = uni.of(alpha)
    checks = (
        ("left", _formula_left_ideal(uni, alpha), set(uni.left_ideal(i).tolist())),
        ("right", _formula_right_ideal(uni, alpha), set(uni.right_ideal(i).tolist())),
        ("two-sided", _formula_two_sided_ideal(uni, alpha), set(uni.two_sided_ideal(i))),
    )
    out = {}
    for which, formula, brute in checks:
        if formula != brute:
            diff = uni.elements[next(iter(formula ^ brute))]
            raise VerificationError(
                f"{which} principal ideal of {alpha!r} disagrees with brute force",
                counterexample=diff,
            )
        out[which] = uni.element_set(formula)
    return PrincipalIdeals(out["left"], out["right"], out["two-sided"])


def j_leq(alpha: Endomorphism, beta: Endomorphism) -> bool:
    """Whether beta lies in the two-sided ideal generated by alpha.

    Decided by the case analysis on the component of alpha and verified
    against inclusion of brute-force two-sided ideals.
    """
    if alpha.n != beta.n:
        raise ValueError("degree mismatch")
    uni = get_universe(alpha.n)
    rep_of = get_cosets(alpha.n).representative
    comp_a, comp_b = component_of(alpha), component_of(beta)
    if comp_a == "Aut":
        result = True
    elif comp_a == "D":
        result = comp_b != "Aut"
    elif comp_a == "E_3":
        result = comp_b not in ("Aut", "D")
    elif comp_a == "A":
        result = comp_b in ("E_2", "C", "E_1") or (
            comp_b == "A" and rep_of(alpha) is rep_of(beta)
        )
    elif comp_a == "E_2":
        result = comp_b in ("E_2", "C", "E_1")
    elif comp_a == "B":
        result = comp_b == "E_1" or (
            comp_b == "B" and rep_of(alpha) is rep_of(beta)
        ) or (
            comp_b == "C" and rep_of(phi(alpha.t2, alpha.e)) is rep_of(beta)
        )
    elif comp_a == "C":
        result = comp_b == "E_1" or (
            comp_b == "C" and rep_of(alpha) is rep_of(beta)
        )
    else:  # E_1
        result = comp_b == "E_1"
    brute = uni.two_sided_ideal(uni.of(beta)) <= uni.two_sided_ideal(uni.of(alpha))
    if result != brute:
        raise VerificationError(
            "case analysis for the J-order disagrees with ideal inclusion",
            counterexample=(alpha, beta),
        )
    return result


# -- ideal enumeration ------------------------------------------------------


@dataclass(frozen=True)
class IdealDescription:
    """An ideal in its classified shape.

    form: "whole", "singular", "even-closed" (has even-type but no
    odd-type elements) or "nonperm-closed" (only trivial or
    non-permutation types).  X, Y, Z identify the orbits contributed by
    A, B and C respectively, by each orbit's minimal element key.
    """

    form: str
    X: frozenset[str]
    Y: frozenset[str]
    Z: frozenset[str]
    elements: frozenset[Endomorphism] = field(compare=False)

    def to_json(self) -> dict:
        return {
            "form": self.form,
            "X": sorted(self.X),
            "Y": sorted(self.Y),
            "Z": sorted(self.Z),
            "size": len(self.elements),
        }


def _downsets(order: list[list[bool]]) -> list[frozenset[int]]:
    """All non-empty down-closed subsets of a finite poset.

    order[i][j] is True when j <= i (class j lies below class i).
    """
    k = len(order)
    below = [frozenset(j for j in range(k) if order[i][j]) for i in range(k)]
    found = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        current = frontier.pop()
        for i in range(k):
            if i not in current:
                grown = current | below[i]
                if grown not in found:
                    found.add(grown)
                    frontier.append(grown)
    found.discard(frozenset())
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def _describe_ideal(uni: Universe, indices: frozenset[int]) -> IdealDescription:
    comp = _components(uni)
    aut = set(comp["Aut"]) & indices
    if aut:
        form = "whole"
    elif (set(comp["E_3"]) | set(comp["D"])) & indices:
        form = "singular"
    elif set(comp["A"]) & indices or set(comp["E_2"]) & indices:
        form = "even-closed"
    else:
        form = "nonperm-closed"
    cosets = get_cosets(uni.n)
    orbit_sets = {}
    for name in ("A", "B", "C"):
        members = set(comp[name]) & indices
        reps = {cosets.representative(uni.elements[i]) for i in members}
        orbit_sets[name] = {rep.key() for rep in reps}
    return IdealDescription(
        form=form,
        X=frozenset(orbit_sets["A"]),
        Y=frozenset(orbit_sets["B"]),
        Z=frozenset(orbit_sets["C"]),
        elements=uni.element_set(indices),
    )


# Beyond this many J-classes the down-set lattice explodes (the orbits of
# C alone give 2^24 antichains at n = 5), so we fall back to emitting only
# the ideals generated by at most two J-classes.
FULL_IDEAL_ENUM_CLASS_LIMIT = 16


def enumerate_ideals(n: int) -> list[IdealDescription]:
    """Ideals of End(T_n), as down-closed unions of J-classes.

    For small degrees (n <= 4) this is the complete list.  At n = 5 the
    complete lattice is far too large to materialise, so only the ideals
    generated by one or two J-classes are emitted.  Either way the list
    is re-checked against a fully independent run driven by the
    brute-force J-classes and ideal-inclusion order, and every emitted
    set is re-verified to be two-sided closed.
    """
    uni = get_universe(n)
    ideals = _ideal_index_sets(uni, brute=False)
    for indices in ideals:
        if not uni.is_two_sided_closed(indices):
            raise VerificationError(
                "emitted ideal is not two-sided closed",
                counterexample=uni.element_set(indices),
            )
    if set(ideals) != set(_ideal_index_sets(uni, brute=True)):
        raise VerificationError("formula-driven ideal list disagrees with brute force")
    return [_describe_ideal(uni, indices) for indices in ideals]


def _ideal_index_sets(uni: Universe, brute: bool) -> list[frozenset[int]]:
    if brute:
        classes = [frozenset(c) for c in _brute_green_classes(uni, "J")]
        reps = [min(c) for c in classes]
        order = [
            [
                uni.two_sided_ideal(reps[j]) <= uni.two_sided_ideal(reps[i])
                for j in range(len(classes))
            ]
            for i in range(len(classes))
        ]
    else:
        classes = [frozenset(c) for c in _formula_green_classes(uni, "J")]
        reps = [min(c) for c in classes]
        order = [
            [
                j_leq(uni.elements[reps[i]], uni.elements[reps[j]])
                for j in range(len(classes))
            ]
            for i in range(len(classes))
        ]
    k = len(classes)
    if k <= FULL_IDEAL_ENUM_CLASS_LIMIT:
        downsets = _downsets(order)
    else:
        below = [frozenset(j for j in range(k) if order[i][j]) for i in range(k)]
        downsets = {below[i] for i in range(k)}
        downsets |= {below[i] | below[j] for i in range(k) for j in range(i)}
        downsets = sorted(downsets, key=lambda s: (len(s), sorted(s)))
    out = []
    for downset in downsets:
        members: set[int] = set()
        for ci in downset:
            members |= classes[ci]
        out.append(frozenset(members))
    return sorted(set(out), key=lambda s: (len(s), min(s)))


def j_order_dot(n: int) -> str:
    """The J-order as a Graphviz digraph (covering relations only)."""
    uni = get_universe(n)
    classes = [frozenset(c) for c in _formula_green_classes(uni, "J")]
    classes.sort(key=min)
    reps = [uni.elements[min(c)] for c in classes]

    def label(idx: int) -> str:
        name = component_of(reps[idx])
        if name in ("A", "B", "C"):
            return f"{name}[{reps[idx].key()}]"
        return name

    k = len(classes)
    leq = [[j_leq(reps[i], reps[j]) for j in range(k)] for i in range(k)]
    lines = ["digraph j_order {", "  rankdir=BT;"]
    for i in range(k):
        lines.append(f'  c{i} [label="{label(i)}"];')
    for i in range(k):
        for j in range(k):
            if i != j and leq[i][j] and not leq[j][i]:
                # keep only covering edges
                if not any(
                    leq[i][m] and leq[m][j] and not leq[m][i] and not leq[j][m]
                    for m in range(k)
                    if m not in (i, j)
                ):
                    lines.append(f"  c{j} -> c{i};")
    lines.append("}")
    return "\n".join(lines)


# -- fixed-point subgroups --------------------------------------------------


@dataclass(frozen=True)
class FixSet:
    """The permutations fixing both halves of a pair under conjugation."""

    pair: PermissiblePair
    elements: frozenset[Transformation]


def fix_set(pair: PermissiblePair) -> FixSet:
    """By definition, scanning S_n; ``Cosets.stabiliser`` gives the same
    set by lookup."""
    check_capacity(pair.t.n, MAX_COSET_DEGREE, "fixed-point subgroup computation")
    t, e = pair.t, pair.e
    members = frozenset(
        g
        for g in enumerate_permutations(t.n)
        if conjugate(t, g) == t and conjugate(e, g) == e
    )
    return FixSet(pair, members)


# -- extended Green's relations ---------------------------------------------


# Rows per step of _kernel_keys; bounds its temporaries to a few MB at n = 5.
_KERNEL_ROWS = 128


def _kernel_keys(rows: np.ndarray) -> list[bytes]:
    """Canonical key of the kernel (partition by equal values) of each row:
    at every position, the first position that holds the same value."""
    out = []
    for start in range(0, len(rows), _KERNEL_ROWS):
        block = rows[start : start + _KERNEL_ROWS]
        order = np.argsort(block, axis=1, kind="stable")
        values = np.take_along_axis(block, order, axis=1)
        # In sorted order a value's run starts at its first position.
        run_start = np.ones(block.shape, dtype=bool)
        run_start[:, 1:] = values[:, 1:] != values[:, :-1]
        cols = np.arange(block.shape[1])
        run_of = np.maximum.accumulate(np.where(run_start, cols, 0), axis=1)
        first = np.take_along_axis(order, run_of, axis=1)
        keys = np.empty(block.shape, dtype=np.int32)
        np.put_along_axis(keys, order, first, axis=1)
        out.extend(_row_keys(keys))
    return out


@lru_cache(maxsize=None)
def _extended_brute_classes(uni: Universe, relation: str) -> tuple[frozenset[int], ...]:
    """Classes of one extended relation from its definition on the table.

    Memoised per universe: H, D and J are built from the L and R classes,
    and ``abundance_report`` reads the one-sided relations again.
    """
    table = uni.table
    idem = uni.idempotent_indices
    if relation == "R*":
        classes = _classes_from_keys(_kernel_keys(table[idem, :].T))
    elif relation == "L*":
        classes = _classes_from_keys(_kernel_keys(table))
    elif relation == "R~":
        keys = [(table[idem, i] == i).tobytes() for i in range(uni.size)]
        classes = _classes_from_keys(keys)
    elif relation == "L~":
        keys = [(table[i, idem] == i).tobytes() for i in range(uni.size)]
        classes = _classes_from_keys(keys)
    elif relation in ("H*", "H~"):
        suffix = relation[1]
        left = _extended_brute_classes(uni, "L" + suffix)
        right = _extended_brute_classes(uni, "R" + suffix)
        classes = _meet(uni.size, left, right)
    elif relation in ("D*", "D~"):
        suffix = relation[1]
        classes = _merge_join(
            uni.size,
            (
                _extended_brute_classes(uni, "L" + suffix),
                _extended_brute_classes(uni, "R" + suffix),
            ),
        )
    elif relation in ("J*", "J~"):
        suffix = relation[1]
        labels = [
            _labels(uni.size, _extended_brute_classes(uni, side + suffix))
            for side in "LR"
        ]
        keys = {}
        for cls in _extended_brute_classes(uni, "D" + suffix):
            sat = _saturated_ideal(uni, cls, labels)
            for i in cls:
                keys[i] = sat
        classes = _classes_from_keys([keys[i] for i in range(uni.size)])
    else:
        raise ValueError(f"unknown extended relation {relation!r}")
    return tuple(frozenset(c) for c in classes)


def _meet(size: int, left, right) -> list[set[int]]:
    return _classes_from_keys(
        zip(_labels(size, left).tolist(), _labels(size, right).tolist())
    )


def _saturated_ideal(uni: Universe, seed, labels) -> frozenset[int]:
    """Smallest ideal containing the seed that is a union of classes of
    each side relation, given as class labels (alternating closure to a
    fixed point)."""
    current = uni.pack(seed)
    while True:
        left = np.bitwise_or.reduce(uni.left_bits[uni.members(current)], axis=0)
        right = np.bitwise_or.reduce(uni.right_bits[uni.members(left)], axis=0)
        closed = np.unpackbits(right | left | current, count=uni.size).astype(bool)
        saturated = closed.copy()
        for label in labels:
            hit = np.zeros(label.max() + 1, dtype=bool)
            hit[label[closed]] = True
            saturated |= hit[label]
        saturated = np.packbits(saturated)
        if np.array_equal(saturated, current):
            return frozenset(uni.members(current).tolist())
        current = saturated


def _extended_formula_classes(uni: Universe, relation: str) -> list[set[int]]:
    comp = _components(uni)
    n = uni.n
    everything = set(range(uni.size))
    idem = set(int(x) for x in uni.idempotent_indices)
    eps_i = uni.of(epsilon(n))
    nonreg_names = ("A", "B", "C")

    def sigma_by_target() -> list[set[int]]:
        groups: dict[int, set[int]] = {}
        for i in comp["D"]:
            groups.setdefault(uni.elements[i].g.word[3], set()).add(i)
        return list(groups.values())

    if relation in ("R*", "R~"):
        # same-rank classes in every degree
        by_rank: dict[int, set[int]] = {}
        for i, el in enumerate(uni.elements):
            by_rank.setdefault(el.rank, set()).add(i)
        return list(by_rank.values())

    if relation == "L~":
        big = set(comp["Aut"])
        for name in nonreg_names:
            big |= set(comp[name])
        classes = [big] + sigma_by_target()
        classes += [{i} for i in idem if i != eps_i and not uni.elements[i].is_sigma4]
        return [c for c in classes if c]

    if relation == "L*":
        classes = [set(comp["Aut"])] + sigma_by_target()
        classes += [{i} for i in idem if i != eps_i and not uni.elements[i].is_sigma4]
        cosets = get_cosets(n)
        fix_groups: dict[tuple, set[int]] = {}
        for name in nonreg_names:
            for i in comp[name]:
                el = uni.elements[i]
                fix_groups.setdefault(
                    (el.type_tag, cosets.stabiliser(el)), set()
                ).add(i)
        classes += list(fix_groups.values())
        return [c for c in classes if c]

    if relation in ("H*", "H~"):
        suffix = relation[1]
        return _meet(
            uni.size,
            _extended_formula_classes(uni, "L" + suffix),
            _extended_formula_classes(uni, "R" + suffix),
        )

    if relation in ("D*", "J*"):
        if n <= 3:
            return _extended_formula_classes(uni, "R*")
        classes = [set(comp["Aut"]), set(comp["E_1"])]
        if comp["D"]:
            classes.append(set(comp["D"]))
        middle = everything - set(comp["Aut"]) - set(comp["E_1"]) - set(comp["D"])
        classes.append(middle)
        return [c for c in classes if c]

    if relation == "D~":
        if n <= 2:
            return _extended_formula_classes(uni, "R~")
        if n == 3:
            return [
                set(comp["Aut"]) | set(comp["E_2"]) | set(comp["C"]),
                set(comp["E_3"]),
                set(comp["E_1"]),
            ]
        if n == 4:
            return [
                set(comp["D"]),
                set(comp["E_1"]),
                everything - set(comp["D"]) - set(comp["E_1"]),
            ]
        return [everything - set(comp["E_1"]), set(comp["E_1"])]

    if relation == "J~":
        if n <= 2:
            return _extended_formula_classes(uni, "R~")
        return [everything - set(comp["E_1"]), set(comp["E_1"])]

    raise ValueError(f"unknown extended relation {relation!r}")


def extended_partition(n: int, relation: str) -> GreenPartition:
    """One of the ten extended Green's relations, doubly computed."""
    if relation not in EXTENDED_RELATIONS:
        raise ValueError(f"relation must be one of {EXTENDED_RELATIONS}")
    uni = get_universe(n)
    formula = _extended_formula_classes(uni, relation)
    brute = _extended_brute_classes(uni, relation)
    _check_same_partition(relation, uni, formula, brute)
    return _as_partition(relation, uni, formula)


def extended_probe_check(
    n: int, relation: str, samples: int = 100_000, seed: int = 0
) -> bool:
    """Spot-check R*/L* against its raw two-sided-quantifier definition.

    The partition itself rests on the idempotent reduction (for R*) and
    full translation kernels (for L*); this draws random (gamma, delta)
    pairs and checks that no probe separates two elements placed in the
    same class.  For n <= 4 the check is exhaustive instead of sampled.
    """
    if relation not in ("R*", "L*"):
        raise ValueError("probe check applies to R* and L* only")
    uni = get_universe(n)
    table = uni.table
    classes = _extended_brute_classes(uni, relation)
    reps = []
    for cls in classes:
        members = sorted(cls)
        reps.append(members[: min(len(members), 4)])
    if n <= 4:
        g_idx = np.repeat(np.arange(uni.size), uni.size)
        d_idx = np.tile(np.arange(uni.size), uni.size)
    else:
        rng = np.random.default_rng(seed)
        g_idx = rng.integers(0, uni.size, size=samples)
        d_idx = rng.integers(0, uni.size, size=samples)
    for members in reps:
        base = members[0]
        for other in members[1:]:
            if relation == "R*":
                lhs = table[g_idx, base] == table[d_idx, base]
                rhs = table[g_idx, other] == table[d_idx, other]
            else:
                lhs = table[base, g_idx] == table[base, d_idx]
                rhs = table[other, g_idx] == table[other, d_idx]
            if not np.array_equal(lhs, rhs):
                raise VerificationError(
                    f"{relation} probe separated two same-class elements",
                    counterexample=(uni.elements[base], uni.elements[other]),
                )
    return True


# -- abundance --------------------------------------------------------------


@dataclass(frozen=True)
class AbundanceReport:
    n: int
    left_abundant: bool
    right_abundant: bool
    left_fountain: bool
    right_fountain: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "left_abundant": self.left_abundant,
            "right_abundant": self.right_abundant,
            "left_fountain": self.left_fountain,
            "right_fountain": self.right_fountain,
        }


def abundance_report(n: int) -> AbundanceReport:
    """Whether every class of the relevant relation holds an idempotent."""
    uni = get_universe(n)
    idem = uni.element_set(uni.idempotent_indices)

    def every_class_has_idempotent(relation: str) -> bool:
        part = extended_partition(n, relation)
        return all(cls & idem for cls in part.classes)

    return AbundanceReport(
        n=n,
        left_abundant=every_class_has_idempotent("R*"),
        right_abundant=every_class_has_idempotent("L*"),
        left_fountain=every_class_has_idempotent("R~"),
        right_fountain=every_class_has_idempotent("L~"),
    )
