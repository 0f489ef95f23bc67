"""Structure of End(T_n): idempotents, regularity, Green's relations,
ideals, and the starred/tilde extensions of Green's relations.

Everything here is computed twice: once from the closed-form
characterisation (in terms of the Aut/D/E_3/A/B/E_2/C/E_1 decomposition)
and once by brute force from the defining property, using the product
table.  One function, ``_attest``, compares the two answers and raises
a VerificationError on any disagreement, so a returned value is always
doubly attested.  The one other VerificationError is raised by
``enumerate_ideals`` for a listed ideal that is not two-sided closed.

The closed forms read only the element index (``ElementIndex``, n <= 6),
never the product table (``Universe``, n <= 5), so they run one degree
beyond the brute sides.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from .cosets import get_cosets
from .endomorphisms import (
    Endomorphism,
    TypeTag,
    apply,
    coset_rep_fixing_4,
    elements,
    klein_four,
    phi,
    sigma4,
)
from .errors import VerificationError
from .pairs import PermissiblePair
from .transformations import (
    BLOCK_ROWS,
    MAX_END_DEGREE,
    Transformation,
    check_capacity,
    compose,
    conjugate,
    enumerate_permutations,
    generators,
)
from .universe import ElementIndex, Universe, get_index, get_universe

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


@lru_cache(maxsize=None)
def _component_labels(n: int) -> np.ndarray:
    """Each element's component, as its position in ``COMPONENTS``."""
    labels = np.array([COMPONENTS.index(component_of(el)) for el in elements(n)])
    labels.flags.writeable = False
    return labels


def _in_components(uni: ElementIndex, names) -> np.ndarray:
    """The mask of the elements in the named components."""
    return np.isin(_component_labels(uni.n), [COMPONENTS.index(c) for c in names])


@lru_cache(maxsize=None)
def _orbit_labels(n: int) -> np.ndarray:
    """For each singular element the index of its orbit's representative
    under Aut(T_n); -1 for the units and the rank-7 maps."""
    rep, uni = get_cosets(n).representative, get_index(n)
    labels = np.full(uni.size, -1, dtype=np.int64)
    for i in uni.phi_indices.tolist():
        labels[i] = uni.of(rep(uni.elements[i]))
    labels.flags.writeable = False
    return labels


@lru_cache(maxsize=None)
def _orbit_bits(n: int, rep: int) -> np.ndarray:
    """The orbit of the representative with index rep, as a packed mask."""
    return get_index(n).pack(np.flatnonzero(_orbit_labels(n) == rep))


def _orbit_bits_of(uni: ElementIndex, alpha: Endomorphism) -> np.ndarray:
    return _orbit_bits(uni.n, int(_orbit_labels(uni.n)[uni.of(alpha)]))


# -- partitions -------------------------------------------------------------
#
# Inside this module a partition of the elements is one int array over the
# element indices: each element's label is the index of the least member of
# its class.  ``ElementIndex.elements`` is sorted, so that numbering is also the
# output order, and two partitions are equal exactly when their arrays are.


@dataclass(frozen=True)
class GreenPartition:
    """A named equivalence relation given by its classes.

    Classes are ordered by their minimal element, so output is
    deterministic across runs.
    """

    relation: str
    classes: tuple[frozenset[Endomorphism], ...]

    def to_json(self) -> dict:
        return {
            "relation": self.relation,
            "classes": [
                sorted(el.key() for el in cls) for cls in self.classes
            ],
        }


def _labels_by_key(keys) -> np.ndarray:
    """The partition into classes of equal keys, from one hashable key per
    element in index order.  Only the distinct keys are kept.  Labels are
    ``int32``, on the formula and the brute side alike, so ``_attest``
    compares arrays of one dtype."""
    first: dict = {}
    return np.fromiter(
        (first.setdefault(key, i) for i, key in enumerate(keys)), dtype=np.int32
    )


def _labels_by_row(rows: np.ndarray) -> np.ndarray:
    return _labels_by_key(row.tobytes() for row in rows)


def _meet(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return _labels_by_key(zip(a.tolist(), b.tolist()))


def _join(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The join of two partitions: spread the least member over each class
    of either side until nothing moves."""
    label = a
    while True:
        before = label
        for side in (a, b):
            least = np.full(len(label), len(label), dtype=label.dtype)
            np.minimum.at(least, side, label)
            label = least[side]
        if np.array_equal(label, before):
            return label


def _classes(label: np.ndarray) -> list[np.ndarray]:
    """The sorted members of each class, in the order of their least
    members."""
    order = np.argsort(label, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)


def _attest(
    what: str, elements: list, formula: np.ndarray, brute: np.ndarray
) -> None:
    """Raise ``VerificationError`` unless the closed form and brute force
    agree.  This is the one comparison in the module.

    Both sides are arrays over ``elements``: label arrays of a partition
    (each element's class numbered by its least member) or packed masks
    (``uint8``) of a set.  The bytes are compared before any message is
    built.  A set mismatch names the first element that only one side
    holds.  A partition mismatch names the first element i whose labels
    differ and the lesser j of its two labels: j < i, and as i is the first
    difference j is its own label on both sides, so exactly one side puts
    j in i's class.
    """
    if formula.tobytes() == brute.tobytes():
        return
    if formula.dtype == np.uint8:
        differ = np.unpackbits(formula ^ brute, count=len(elements))
        i = int(np.flatnonzero(differ)[0])
        counterexample = elements[i]
    else:
        i = int(np.flatnonzero(formula != brute)[0])
        counterexample = (elements[i], elements[min(formula[i], brute[i])])
    raise VerificationError(
        f"{what} disagree between characterisation and brute force at "
        f"{elements[i]!r}",
        counterexample=counterexample,
    )


# -- idempotents ------------------------------------------------------------


@lru_cache(maxsize=None)
def _idempotents(n: int) -> np.ndarray:
    """The indices of the idempotents of ``elements(n)`` by brute force:
    the a with a^2 = a, read as a(a(g)) = a(g) on the generators g of T_n
    through ``apply``.  Built once per degree and read-only; it reads no
    product, so it serves every degree of the element index (n <= 6)."""
    gens, members = generators(n), elements(n)
    square = [all(apply(a, apply(a, g)) is apply(a, g) for g in gens) for a in members]
    idempotents = np.flatnonzero(square)
    idempotents.flags.writeable = False
    return idempotents


@dataclass(frozen=True)
class IdempotentPartition:
    """The idempotents of End(T_n), grouped by rank."""

    epsilon: frozenset[Endomorphism]
    E_7: frozenset[Endomorphism]
    E_3: frozenset[Endomorphism]
    E_2: frozenset[Endomorphism]
    E_1: frozenset[Endomorphism]


# The rank of each idempotent group below the identity.
_IDEMPOTENT_RANKS = {"E_7": 7, "E_3": 3, "E_2": 2, "E_1": 1}


def idempotent_partition(n: int) -> IdempotentPartition:
    """Idempotents grouped by rank, cross-checked against {a : a^2 = a}
    (``_idempotents``) and each member's rank.

    The closed form reads the component labels: the identity among the
    units, sigma^g for g in the Klein four-group, and the E_3, E_2 and E_1
    components whole.  Neither side reads the product, so this runs on
    the element index at every degree (n <= 6), and a mismatch names the
    first disagreeing element of ``elements(n)``.
    """
    index = get_index(n)
    members, comp = index.elements, _component_labels(n)
    klein = set(klein_four())
    groups = {
        name: np.flatnonzero(comp == COMPONENTS.index(name)).tolist()
        for name in ("Aut", "D", "E_3", "E_2", "E_1")
    }
    groups["epsilon"] = [i for i in groups.pop("Aut") if members[i].g.is_identity]
    groups["E_7"] = [i for i in groups.pop("D") if members[i].g in klein]
    grouped, ranked, of_rank = (np.zeros(index.size, dtype=bool) for _ in range(3))
    for name, found in groups.items():
        rank = _IDEMPOTENT_RANKS.get(name)
        grouped[found] = True
        ranked[found] = rank is not None
        of_rank[found] = [members[i].rank == rank for i in found]
    _attest("idempotents", members, np.packbits(grouped), index.pack(_idempotents(n)))
    _attest("idempotent ranks", members, np.packbits(ranked), np.packbits(of_rank))
    return IdempotentPartition(**{k: index.element_set(v) for k, v in groups.items()})


# -- regularity -------------------------------------------------------------


def regular_elements(n: int) -> frozenset[Endomorphism]:
    """All regular elements, found by brute force over the product table.

    Cross-checked against the closed form: every element outside the A, B
    and C components.  A and B are empty below n = 4 and C below n = 3, so
    this is everything for n <= 2 and all but the rank-2 non-idempotents
    at n = 3.
    """
    uni = get_universe(n)
    table = uni.table
    # alpha beta alpha over all beta in one vectorised sweep per alpha
    regular = np.array([np.any(table[table[i], i] == i) for i in range(uni.size)])
    expected = np.packbits(~_in_components(uni, ("A", "B", "C")))
    _attest("regular elements", uni.elements, expected, np.packbits(regular))
    return uni.element_set(np.flatnonzero(regular))


# -- Green's and extended Green's relations ---------------------------------


def _left_keys(uni: ElementIndex) -> list:
    """Keys of the closed form's L-classes: the units share one, the rank-7
    maps sigma^g share one per image of 4 under g, and every other element
    is keyed by its own index."""
    keys = list(range(uni.size))
    for i in uni.aut_indices.tolist():
        keys[i] = -1
    for i in uni.sigma_indices.tolist():
        keys[i] = -2 - uni.elements[i].g.word[3]
    return keys


@lru_cache(maxsize=None)
def _one_sided_labels(n: int, relation: str) -> np.ndarray:
    """The closed form's classes of L, R, L*, R*, L~ or R~, built once per
    degree and read-only: every two-sided relation reads them again."""
    uni = get_index(n)
    nonregular = _in_components(uni, ("A", "B", "C"))
    if relation == "R":
        # Whole components, except that A, B and C split into their orbits.
        keys = np.where(nonregular, _orbit_labels(n), -1 - _component_labels(n))
        label = _labels_by_key(keys.tolist())
    elif relation in ("R*", "R~"):
        # same-rank classes in every degree
        label = _labels_by_key(el.rank for el in uni.elements)
    elif relation in ("L", "L*", "L~"):
        # L* and L~ differ from L only on A, B and C, the non-regular maps.
        keys = _left_keys(uni)
        if relation == "L~":
            for i in np.flatnonzero(nonregular).tolist():
                keys[i] = -1  # one class with the units
        elif relation == "L*":
            stabiliser = get_cosets(n).stabiliser
            for i in np.flatnonzero(nonregular).tolist():
                el = uni.elements[i]
                keys[i] = (el.type_tag, stabiliser(el))
        label = _labels_by_key(keys)
    else:
        raise ValueError(f"unknown one-sided relation {relation!r}")
    label.flags.writeable = False
    return label


# Relations whose classes are unions of whole components, with the least
# degree from which each grouping holds: each listed group is one class and
# every other component is a class of its own.  Below those degrees D* and J*
# coincide with R*, and D~ and J~ with R~.
_COMPONENT_GROUPS = {
    "D*": ((4, (("E_3", "A", "B", "E_2", "C"),)),),
    "J*": ((4, (("E_3", "A", "B", "E_2", "C"),)),),
    "D~": (
        (4, (("Aut", "E_3", "A", "B", "E_2", "C"),)),
        (3, (("Aut", "E_2", "C"),)),
    ),
    "J~": ((3, (("Aut", "D", "E_3", "A", "B", "E_2", "C"),)),),
}


def _formula_labels(index: ElementIndex, relation: str) -> np.ndarray:
    """The closed form's classes of one of the fifteen relations, read off
    ``_one_sided_labels``.  H = L and R = D = J stay stated: H reads L's
    classes, D and J read R's.  H* and H~ are meets of their sides; D*, J*,
    D~ and J~ come from ``_COMPONENT_GROUPS``, or else from R* or R~."""
    n = index.n
    if relation in ("H", "D", "J"):
        return _one_sided_labels(n, "L" if relation == "H" else "R")
    kind, suffix = relation[0], relation[1:]
    if kind == "H":
        return _meet(*(_one_sided_labels(n, side + suffix) for side in "LR"))
    if kind in "DJ":
        for least, groups in _COMPONENT_GROUPS[relation]:
            if n >= least:
                key = -1 - np.arange(len(COMPONENTS))
                for g, names in enumerate(groups):
                    key[[COMPONENTS.index(name) for name in names]] = g
                return _labels_by_key(key[_component_labels(n)].tolist())
        return _one_sided_labels(n, "R" + suffix)
    return _one_sided_labels(n, relation)


def _unsigned(limit: int) -> np.dtype:
    """The smallest unsigned dtype that holds every value below limit."""
    return np.min_scalar_type(max(limit - 1, 0))


def _line_blocks(lines: np.ndarray, columns=None):
    """The rows of ``lines``, restricted to ``columns`` when given, in
    blocks, each with the number of its first row.  A block holds at most
    ``BLOCK_ROWS`` rows and ``BLOCK_ROWS`` * 1,024 cells (20 rows of an
    n = 5 table), so only one block of a column subset is ever copied."""
    width = lines.shape[1] if columns is None else len(columns)
    step = max(1, min(BLOCK_ROWS, (BLOCK_ROWS << 10) // max(width, 1)))
    for start in range(0, len(lines), step):
        block = lines[start : start + step]
        yield start, block if columns is None else block[:, columns]


def _kernel_keys(lines: np.ndarray):
    """Canonical key of the kernel (partition by equal values) of each row
    of element indices, yielded row by row: at every position, the first
    position that holds the same value, as bytes of the smallest unsigned
    dtype that holds a position (``uint16`` at n <= 5).

    Each block of rows (``_line_blocks``) gets one ``int32`` slot number
    per (row, value), and one ``np.minimum.at`` leaves in every slot the
    least position that holds the value, whatever order the repeated
    writes are applied in.  Slots start at the dtype's maximum, which no
    position exceeds (the last position at N = 65,536).  Its operands are
    passed flat and of one length: numpy 2.4.6 filled slots with wrong
    values, garbage among them, for a 2-D index and a 1-D ``positions``
    left to broadcast.
    """
    width = lines.shape[1]
    dtype = _unsigned(width)
    for _, block in _line_blocks(lines):
        slots = int(block.max(initial=0)) + 1
        flat = np.arange(len(block), dtype=np.int32)[:, np.newaxis] * slots + block
        first = np.full(len(block) * slots, np.iinfo(dtype).max, dtype=dtype)
        positions = np.tile(np.arange(width, dtype=dtype), len(block))
        np.minimum.at(first, flat.ravel(), positions)
        for key in first[flat]:
            yield key.tobytes()


def _fixer_keys(lines: np.ndarray, columns: np.ndarray):
    """For each row i of ``lines``, which of its positions in ``columns``
    hold i, as the bytes of a boolean row: a block at a time
    (``_line_blocks``)."""
    for start, block in _line_blocks(lines, columns):
        fixed = block == np.arange(start, start + len(block))[:, np.newaxis]
        for key in fixed:
            yield key.tobytes()


def _saturated_ideal(uni: Universe, seed: np.ndarray, labels) -> np.ndarray:
    """Smallest ideal containing the seed indices that is a union of classes
    of each side relation, given as label arrays (alternating closure to a
    fixed point), as a packed mask."""
    current = uni.pack(seed)
    while True:
        left = np.bitwise_or.reduce(uni.left_bits[uni.members(current)], axis=0)
        right = np.bitwise_or.reduce(uni.right_bits[uni.members(left)], axis=0)
        closed = np.unpackbits(right | left | current, count=uni.size).astype(bool)
        saturated = closed.copy()
        for label in labels:
            hit = np.zeros(uni.size, dtype=bool)
            hit[label[closed]] = True
            saturated |= hit[label]
        saturated = np.packbits(saturated)
        if np.array_equal(saturated, current):
            return current
        current = saturated


@lru_cache(maxsize=None)
def _brute_labels(uni: Universe, relation: str) -> np.ndarray:
    """The classes of one of the fifteen relations from its definition on
    the table, memoised per universe and read-only.  In each family H and
    D are the meet and join of L and R; J* and J~ are read off the
    saturated ideals of the D*- and D~-classes."""
    kind, suffix = relation[0], relation[1:]
    if relation == "L":
        label = _labels_by_row(uni.left_bits)
    elif relation == "R":
        label = _labels_by_row(uni.right_bits)
    elif relation == "J":
        label = _labels_by_key(uni.two_sided_ideals[1].tolist())
    elif relation == "L*":
        # the kernel of each row
        label = _labels_by_key(_kernel_keys(uni.table))
    elif relation == "R*":
        # the kernel of each whole column
        label = _labels_by_key(_kernel_keys(uni.table.T))
    elif relation in ("L~", "R~"):
        # the idempotents that fix each element on the right (on the left)
        lines = uni.table if kind == "L" else uni.table.T
        label = _labels_by_key(_fixer_keys(lines, _idempotents(uni.n)))
    elif kind in "HD" and suffix in ("", "*", "~"):
        left, right = (_brute_labels(uni, side + suffix) for side in "LR")
        label = _meet(left, right) if kind == "H" else _join(left, right)
    elif relation in ("J*", "J~"):
        sides = [_brute_labels(uni, side + suffix) for side in "LR"]
        d_label = _brute_labels(uni, "D" + suffix)
        ideal_of = {
            int(members[0]): _saturated_ideal(uni, members, sides).tobytes()
            for members in _classes(d_label)
        }
        label = _labels_by_key(ideal_of[d] for d in d_label.tolist())
    else:
        raise ValueError(f"unknown relation {relation!r}")
    label.flags.writeable = False
    return label


def _attested_labels(uni: Universe, relation: str) -> np.ndarray:
    """The closed form's classes of one of the fifteen relations, attested
    against the table's: the one place where the two sides of a partition
    meet ``_attest``."""
    formula = _formula_labels(uni, relation)
    _attest(f"{relation}-classes", uni.elements, formula, _brute_labels(uni, relation))
    return formula


def _partition(n: int, relation: str, relations: tuple[str, ...]) -> GreenPartition:
    if relation not in relations:
        raise ValueError(f"relation must be one of {relations}")
    uni = get_universe(n)
    label = _attested_labels(uni, relation)
    return GreenPartition(relation, tuple(map(uni.element_set, _classes(label))))


def green_partition(n: int, relation: str) -> GreenPartition:
    """One of the five Green's relations: its closed form, attested
    against the table (``_attested_labels``)."""
    return _partition(n, relation, GREEN_RELATIONS)


def extended_partition(n: int, relation: str) -> GreenPartition:
    """One of the ten extended Green's relations: its closed form,
    attested against the table (``_attested_labels``)."""
    return _partition(n, relation, EXTENDED_RELATIONS)


# -- principal ideals -------------------------------------------------------


@dataclass(frozen=True)
class PrincipalIdeals:
    left: frozenset[Endomorphism]
    right: frozenset[Endomorphism]
    two_sided: frozenset[Endomorphism]


def _formula_left_ideal(uni: ElementIndex, alpha: Endomorphism) -> np.ndarray:
    if alpha.is_aut:
        return _right_ideal_bits(uni.n)["Aut"]  # the whole monoid
    if alpha.is_phi:
        t, e, t2 = alpha.t, alpha.e, alpha.t2
        return uni.pack(
            [uni.of(alpha), uni.of(phi(t2, e)), uni.of(phi(e, e)), uni.of(phi(t2, t2))]
        )
    # rank-7 case: images under every left multiplier, by characterisation
    out = set()
    for h in enumerate_permutations(4):
        out.add(uni.of(sigma4(compose(coset_rep_fixing_4(h), alpha.g))))
    for j in uni.phi_indices:
        el = uni.elements[j]
        out.add(uni.of(phi(apply(alpha, el.t), apply(alpha, el.e))))
    return uni.pack(out)


# The components a principal right ideal holds whole, by the component of
# its generator; for A, B and C the generator's own orbit is added.
_RIGHT_IDEAL_COMPONENTS = {
    "Aut": COMPONENTS,
    "D": COMPONENTS[1:],
    "E_3": COMPONENTS[2:],
    "A": ("E_2", "C", "E_1"),
    "B": ("E_1",),
    "E_2": ("E_2", "C", "E_1"),
    "C": ("E_1",),
    "E_1": ("E_1",),
}


@lru_cache(maxsize=None)
def _right_ideal_bits(n: int) -> dict[str, np.ndarray]:
    """Per component, the packed mask of the components its principal
    right ideals hold whole; read-only, as every caller shares it."""
    masks, uni = {}, get_index(n)
    for name, held in _RIGHT_IDEAL_COMPONENTS.items():
        masks[name] = uni.pack(np.flatnonzero(_in_components(uni, held)))
        masks[name].flags.writeable = False
    return masks


def _formula_right_ideal(
    uni: ElementIndex, alpha: Endomorphism, name: str
) -> np.ndarray:
    bits = _right_ideal_bits(uni.n)[name]
    if name in ("A", "B", "C"):
        bits = bits | _orbit_bits_of(uni, alpha)
    return bits


def _formula_two_sided_ideal(
    uni: ElementIndex, alpha: Endomorphism, name: str
) -> np.ndarray:
    bits = _formula_right_ideal(uni, alpha, name)
    if name == "B":
        # The one case where the right ideal is not already two-sided:
        # closing an orbit of B under the plus map lands in the companion
        # C-orbit.
        bits = bits | _orbit_bits_of(uni, phi(alpha.t2, alpha.e))
    return bits


@lru_cache(maxsize=None)
def _attested_ideals(
    uni: Universe,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every element's left, right and two-sided principal ideal, the
    closed form attested against the table in one pass per universe.

    Returns the brute-force bitsets: ``Universe.left_bits``,
    ``right_bits``, and the rows of ``two_sided_ideals`` with each
    element's row number.  Before that, the closed form's masks of every
    element are built ``BLOCK_ROWS`` at a time and compared byte for byte
    with the same rows of those bitsets; the first differing row goes
    through ``_attest``, which names its first differing member.  The
    formula masks are dropped block by block, so every later query reads
    the brute rows alone, which equal them byte for byte.
    """
    elements, (rows, label) = uni.elements, uni.two_sided_ideals
    names = [COMPONENTS[k] for k in _component_labels(uni.n).tolist()]
    formulas = (
        ("left", lambda a, name: _formula_left_ideal(uni, a)),
        ("right", lambda a, name: _formula_right_ideal(uni, a, name)),
        ("two-sided", lambda a, name: _formula_two_sided_ideal(uni, a, name)),
    )
    for start in range(0, uni.size, BLOCK_ROWS):
        block = slice(start, start + BLOCK_ROWS)
        brutes = (uni.left_bits[block], uni.right_bits[block], rows[label[block]])
        for (side, formula), brute in zip(formulas, brutes):
            masks = np.array(
                [formula(a, name) for a, name in zip(elements[block], names[block])]
            )
            if masks.tobytes() != brute.tobytes():
                k = int(np.flatnonzero((masks != brute).any(axis=1))[0])
                _attest(f"{side} principal ideals", elements, masks[k], brute[k])
    return uni.left_bits, uni.right_bits, rows, label


def _two_sided_ideal(uni: Universe, i: int) -> np.ndarray:
    """Element i's principal two-sided ideal as a packed mask: its row of
    ``Universe.two_sided_ideals``, read once the closed form of every
    element's ideals has been attested against the table
    (``_attested_ideals``)."""
    _, _, rows, label = _attested_ideals(uni)
    return rows[label[i]]


def principal_ideals(alpha: Endomorphism) -> PrincipalIdeals:
    """Left/right/two-sided principal ideals, verified against the table.

    The first call on a universe attests the closed form's packed masks of
    all three ideals of every element against the brute-force bitsets read
    off the table (``_attested_ideals``); every call then reads alpha's
    rows of those bitsets.  The returned element sets are memoised per
    distinct ideal (the left ideal of a singular element, at most four
    elements, is built afresh).
    """
    uni = get_universe(alpha.n)
    i = uni.of(alpha)
    left, right, rows, label = _attested_ideals(uni)
    if alpha.is_phi:
        # At most four members: cheaper to build than to keep one per element.
        left_set = uni.element_set(uni.members(left[i]))
    else:
        left_set = uni.bits_element_set(left[i])
    return PrincipalIdeals(
        left_set, uni.bits_element_set(right[i]), uni.bits_element_set(rows[label[i]])
    )


def j_leq(alpha: Endomorphism, beta: Endomorphism) -> bool:
    """Whether beta lies in the two-sided ideal generated by alpha.

    One bit of alpha's brute-force two-sided ideal, read after the first
    query on the universe has attested the closed form of every element's
    principal ideals against the table (``_attested_ideals``).
    """
    if alpha.n != beta.n:
        raise ValueError("degree mismatch")
    uni = get_universe(alpha.n)
    b = uni.of(beta)
    # np.packbits keeps element b in byte b // 8, most significant bit first.
    return bool(_two_sided_ideal(uni, uni.of(alpha))[b >> 3] & (0x80 >> (b & 7)))


# -- ideal enumeration ------------------------------------------------------


@dataclass(frozen=True)
class IdealDescription:
    """An ideal in its classified shape.

    form: "whole", "singular", "even-closed" (has even-type but no
    odd-type elements) or "nonperm-closed" (only trivial or
    non-permutation types).  X, Y, Z identify the orbits contributed by
    A, B and C respectively, by each orbit's minimal element key.  The
    members are kept only as a packed mask over the element indices (404
    bytes at n = 5), with their number.
    """

    form: str
    X: frozenset[str]
    Y: frozenset[str]
    Z: frozenset[str]
    mask: np.ndarray = field(compare=False, repr=False)
    size: int = field(compare=False, repr=False)

    def to_json(self) -> dict:
        return {
            "form": self.form,
            "X": sorted(self.X),
            "Y": sorted(self.Y),
            "Z": sorted(self.Z),
            "size": self.size,
        }


def _downsets(below: list[frozenset[int]]) -> list[frozenset[int]]:
    """All non-empty down-closed subsets of a finite poset, where below[i]
    is the set of classes at or below class i."""
    found = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        current = frontier.pop()
        for i in range(len(below)):
            if i not in current:
                grown = current | below[i]
                if grown not in found:
                    found.add(grown)
                    frontier.append(grown)
    found.discard(frozenset())
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def _describe_ideal(uni: Universe, mask: np.ndarray) -> IdealDescription:
    comp = _component_labels(uni.n)
    inside = np.unpackbits(mask, count=uni.size).view(bool)
    present = {COMPONENTS[k] for k in np.unique(comp[inside]).tolist()}
    if "Aut" in present:
        form = "whole"
    elif present & {"E_3", "D"}:
        form = "singular"
    elif present & {"A", "E_2"}:
        form = "even-closed"
    else:
        form = "nonperm-closed"

    def orbit_keys(name: str) -> frozenset[str]:
        hit = inside & (comp == COMPONENTS.index(name))
        reps = np.unique(_orbit_labels(uni.n)[hit]).tolist()
        return frozenset(uni.elements[r].key() for r in reps)

    return IdealDescription(
        form=form,
        X=orbit_keys("A"),
        Y=orbit_keys("B"),
        Z=orbit_keys("C"),
        mask=mask,
        size=int(np.count_nonzero(inside)),
    )


# Beyond this many J-classes the down-set lattice explodes (the orbits of
# C alone give 2^24 antichains at n = 5), so we fall back to emitting only
# the ideals generated by at most two J-classes.
FULL_IDEAL_ENUM_CLASS_LIMIT = 16


def enumerate_ideals(n: int) -> list[IdealDescription]:
    """Ideals of End(T_n), as down-closed unions of J-classes.

    For small degrees (n <= 4) this is the complete list.  At n = 5 the
    complete lattice is far too large to materialise, so only the ideals
    generated by one or two J-classes are emitted.  The two inputs of the
    enumeration are attested: the closed form's J-classes against the
    brute-force ones, and the two-sided ideals the J-order is read off,
    whose closed form is attested for every element at once
    (``_attested_ideals``).  Every emitted set is re-verified to be
    two-sided closed.
    """
    uni = get_universe(n)
    masks = _ideal_masks(uni)
    for mask in masks:
        if not uni.is_two_sided_closed(mask):
            raise VerificationError(
                "emitted ideal is not two-sided closed",
                counterexample=uni.element_set(uni.members(mask)),
            )
    return [_describe_ideal(uni, mask) for mask in masks]


# The closed form's J-classes in the order it states them.  The down-sets
# are built and sorted by their class numbers in this order, and that order
# decides the ties of the ideal list (``_ideal_masks``), so numbering these
# classes by least member would reorder its output.
_J_CLASS_ORDER = ("Aut", "D", "E_3", "E_2", "E_1", "A", "B", "C")


class _Union:
    """One distinct union of J-classes: its packed mask, its (size, least
    member) sort key, and the hash of the frozenset of its members, which
    is built only to take that hash."""

    __slots__ = ("mask", "order", "hash")

    def __init__(self, mask: np.ndarray, members: np.ndarray):
        self.mask, self.order = mask, (len(members), int(members[0]))
        self.hash = hash(frozenset(members.tolist()))

    def __hash__(self) -> int:
        return self.hash


def _ideal_masks(uni: Universe) -> list[np.ndarray]:
    """The ideals as packed masks, ordered by (size, least member).

    Ties keep the order in which a set of the ideals' frozensets of
    element indices, filled in down-set order, iterates them: 1, 15 and
    23 tie groups at n = 3, 4 and 5, which no explicit order reproduces.
    A set's layout depends only on the hashes, the equality results and
    the insertion order of its entries, and adding an equal entry again
    leaves it unchanged.  So the distinct unions go into a set in the
    order they first occur, each carrying its frozenset's hash, and as
    distinct unions are unequal, identity serves as equality.
    """
    label = _attested_labels(uni, "J")
    comp = _component_labels(uni.n)
    reps = sorted(
        np.unique(label).tolist(),
        key=lambda r: (_J_CLASS_ORDER.index(COMPONENTS[comp[r]]), r),
    )
    k = len(reps)
    # Each rep's two-sided ideal is the union of the classes at or below
    # its own, so a down-set's union is the union of its classes' ideals.
    ideals = np.array([_two_sided_ideal(uni, r) for r in reps])
    order = np.unpackbits(ideals, axis=1, count=uni.size)[:, reps]
    below = [frozenset(np.flatnonzero(row).tolist()) for row in order]
    if k <= FULL_IDEAL_ENUM_CLASS_LIMIT:
        downsets = _downsets(below)
    else:
        downsets = {below[i] | below[j] for i in range(k) for j in range(i + 1)}
        downsets = sorted(downsets, key=lambda s: (len(s), sorted(s)))
    unions: dict[bytes, _Union] = {}
    for downset in downsets:
        mask = np.bitwise_or.reduce(ideals[list(downset)], axis=0)
        key = mask.tobytes()
        if key not in unions:
            unions[key] = _Union(mask, uni.members(mask))
    return [u.mask for u in sorted(set(unions.values()), key=lambda u: u.order)]


# -- fixed-point subgroups --------------------------------------------------


@dataclass(frozen=True)
class FixSet:
    """The permutations fixing both halves of a pair under conjugation."""

    pair: PermissiblePair
    elements: frozenset[Transformation]


def fix_set(pair: PermissiblePair) -> FixSet:
    """The g with t^g = t and e^g = e, by definition, scanning S_n, and
    attested against ``Cosets.stabiliser`` of phi(t, e), a lookup in its
    orbit's transversal: both as packed masks over S_n in lexicographic
    order.  At n = 1 phi(id, id) is the identity, which lies in no orbit,
    so the scan stands alone."""
    n = pair.t.n
    check_capacity(n, MAX_END_DEGREE, "fixed-point subgroup computation")
    t, e = pair.t, pair.e
    perms = list(enumerate_permutations(n))
    fixes = [conjugate(t, g) == t and conjugate(e, g) == e for g in perms]
    if n > 1:
        stabiliser = get_cosets(n).stabiliser(phi(t, e))
        lookup = [g in stabiliser for g in perms]
        _attest("fixers", perms, np.packbits(lookup), np.packbits(fixes))
    return FixSet(pair, frozenset(g for g, fixed in zip(perms, fixes) if fixed))


# -- abundance --------------------------------------------------------------


@dataclass(frozen=True)
class AbundanceReport:
    n: int
    left_abundant: bool
    right_abundant: bool
    left_fountain: bool
    right_fountain: bool

    def to_json(self) -> dict:
        return asdict(self)


def abundance_report(n: int) -> AbundanceReport:
    """Whether every class of R*, L*, R~ and L~ holds an idempotent: left
    and right abundance, then the left and right Fountain properties.

    Each relation's labels are attested as ``extended_partition`` attests
    them (``_attested_labels``), and a class holds an idempotent when its
    label is the label of one of the idempotents found by definition
    (``_idempotents``), which the brute sides of R*, R~ and L~ read too;
    no partition is built.
    """
    uni = get_universe(n)
    idem = _idempotents(n)

    def every_class_has_idempotent(relation: str) -> bool:
        label = _attested_labels(uni, relation)
        return bool(np.isin(label, label[idem]).all())

    return AbundanceReport(
        n=n,
        left_abundant=every_class_has_idempotent("R*"),
        right_abundant=every_class_has_idempotent("L*"),
        left_fountain=every_class_has_idempotent("R~"),
        right_fountain=every_class_has_idempotent("L~"),
    )
