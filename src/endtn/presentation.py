"""Orbits, minimal generating sets, and a monoid presentation of End(T_n).

Generators come in two flavours: q-symbols, the adjacent transpositions
presenting the automorphism group in Coxeter style, and p-symbols, one
canonical representative per essential orbit of singular elements.  Four
p-symbols are distinguished as markers (p^od, p^ev, p^np, p^tr), one per
multiplicative type, and the relation families R1..R10 rewrite any word
to the shape  p q...q  or  p p q...q.  The singular orbits, their
stabilisers and the conjugating q-tails come from ``endtn.cosets``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .endomorphisms import (
    Endomorphism,
    TypeTag,
    aut,
    epsilon,
    multiply,
    phi_trivial,
    sigma4,
    star_map,
)
from .cosets import get_cosets
from .errors import CapacityError, RewriteBudgetExceeded
from .transformations import Transformation, compose, enumerate_permutations
from .universe import get_universe

PRESENTATION_DEGREES = (5, 6)
REWRITE_STEP_BUDGET = 10_000

Word = tuple[str, ...]


# -- orbits -----------------------------------------------------------------


@dataclass(frozen=True)
class Orbit:
    """A right coset alpha Aut(T_n), with its shared rank and type."""

    representative: Endomorphism
    members: frozenset[Endomorphism]
    rank: int
    type: TypeTag
    essential: bool


def orbits(n: int) -> list[Orbit]:
    """All orbits: the automorphism group, the rank-7 block at n = 4, and
    the singular orbits grouped by simultaneous conjugacy of (t, e)."""
    return list(_orbits(n))


@lru_cache(maxsize=None)
def _orbits(n: int) -> tuple[Orbit, ...]:
    cosets = get_cosets(n)
    out = [
        Orbit(
            representative=epsilon(n),
            members=frozenset(aut(g) for g in enumerate_permutations(n)),
            rank=n**n,
            type=TypeTag.GROUP,
            essential=True,
        )
    ]
    if n == 4:
        out.append(
            Orbit(
                representative=sigma4(Transformation.identity(4)),
                members=frozenset(sigma4(g) for g in enumerate_permutations(4)),
                rank=7,
                type=TypeTag.EXCEPTIONAL,
                essential=True,
            )
        )
    reps = cosets.representatives

    # A rank-2 orbit fails to be essential exactly when it is hit by a
    # product of two rank-3 elements; with an even-type rank-3 element
    # present those products are the plus-companions of rank-3 elements.
    hit: set[Endomorphism] = set()
    if any(rep.type_tag == TypeTag.EVEN and rep.rank == 3 for rep in reps):
        hit = {
            cosets.representative(star_map(rep, "+")) for rep in reps if rep.rank == 3
        }

    trivial = phi_trivial(n)
    for rep in reps:
        if rep.rank == 3:
            essential = True
        elif rep.rank == 2:
            essential = rep not in hit
        else:
            essential = rep is trivial
        out.append(
            Orbit(
                representative=rep,
                members=cosets.orbit(rep),
                rank=rep.rank,
                type=rep.type_tag,
                essential=essential,
            )
        )
    return tuple(out)


def essential_orbits(n: int) -> list[Orbit]:
    """The singular essential orbits (the ones contributing p-generators)."""
    return [o for o in orbits(n) if o.essential and o.rank <= 3]


def rank_counts(n: int) -> tuple[int, int]:
    """(r_3, r_2): essential orbit counts of rank 3 and rank 2."""
    ess = essential_orbits(n)
    return (
        sum(1 for o in ess if o.rank == 3),
        sum(1 for o in ess if o.rank == 2),
    )


def minimal_generating_set(n: int) -> frozenset[Endomorphism]:
    """Two automorphism generators plus one representative per singular
    essential orbit; the size is 3 + r_3 + r_2."""
    if n not in PRESENTATION_DEGREES:
        raise CapacityError(
            f"minimal generating set is provided for n in {PRESENTATION_DEGREES}"
        )
    gens = {
        aut(Transformation.transposition(n, 1, 2)),
        aut(Transformation.cycle(n, range(1, n + 1))),
    }
    gens.update(o.representative for o in essential_orbits(n))
    return frozenset(gens)


def verify_generates(generators, n: int) -> bool:
    """Whether the multiplicative closure of the set is all of End(T_n).

    The closure of G is G together with its products by G on the right, so
    a breadth-first search that multiplies only the newly reached elements
    by the generators finds all of it (Froidure & Pin, 1997).
    """
    uni = get_universe(n)
    member = np.zeros(uni.size, dtype=bool)
    gens = np.unique(np.fromiter((uni.of(el) for el in generators), dtype=np.int64))
    member[gens] = True
    frontier = gens
    while len(frontier):
        reached = np.unique(uni.table[np.ix_(frontier, gens)])
        frontier = reached[~member[reached]]
        member[frontier] = True
    return bool(member.all())


# -- canonical reduced words in the symmetric group -------------------------


@lru_cache(maxsize=None)
def _canonical_words(n: int) -> dict[tuple[int, ...], tuple[str, ...]]:
    """Lexicographically least reduced word for every permutation, over
    the adjacent-transposition generators, by breadth-first search."""
    gens = [
        (q_symbol(i), Transformation.transposition(n, i, i + 1))
        for i in range(1, n)
    ]
    identity = Transformation.identity(n)
    words: dict[tuple[int, ...], tuple[str, ...]] = {identity.word: ()}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            base = words[g.word]
            for sym, s in gens:
                h = compose(g, s)
                if h.word not in words:
                    words[h.word] = base + (sym,)
                    nxt.append(h)
        frontier = nxt
    return words


def canonical_word(g: Transformation) -> Word:
    return _canonical_words(g.n)[g.word]


# -- symbols ----------------------------------------------------------------


def q_symbol(i: int) -> str:
    return f"q:{i}-{i + 1}"


def p_symbol(alpha: Endomorphism) -> str:
    return (
        "p:t="
        + ",".join(map(str, alpha.t.images))
        + ";e="
        + ",".join(map(str, alpha.e.images))
    )


_MARKER_TYPES = {
    "p^od": TypeTag.ODD,
    "p^ev": TypeTag.EVEN,
    "p^np": TypeTag.NON_PERMUTATION,
    "p^tr": TypeTag.TRIVIAL,
}


@dataclass(frozen=True)
class Relation:
    family: str
    lhs: Word
    rhs: Word

    def to_json(self) -> dict:
        return {"family": self.family, "lhs": list(self.lhs), "rhs": list(self.rhs)}


@dataclass(frozen=True)
class Presentation:
    n: int
    q_symbols: tuple[str, ...]
    p_symbols: tuple[str, ...]
    images: dict[str, Endomorphism]
    relations: tuple[Relation, ...]

    def theta(self, word: Word) -> Endomorphism:
        result = epsilon(self.n)
        for symbol in word:
            image = self.images.get(symbol)
            if image is None:
                raise ValueError(f"unknown symbol {symbol!r}")
            result = multiply(result, image)
        return result


@lru_cache(maxsize=None)
def presentation(n: int) -> Presentation:
    """The presentation on Coxeter q-generators and essential-orbit
    p-generators, with the relation families R_Pi and R1..R10."""
    if n not in PRESENTATION_DEGREES:
        raise CapacityError(f"presentation is provided for n in {PRESENTATION_DEGREES}")
    ess = essential_orbits(n)

    # Choose the markers: the lexicographically least rank-3 generator of
    # each of the odd/even/non-permutation types, and the trivial one.
    marker_for: dict[str, Endomorphism] = {}
    for tag, marker in (
        (TypeTag.ODD, "p^od"),
        (TypeTag.EVEN, "p^ev"),
        (TypeTag.NON_PERMUTATION, "p^np"),
    ):
        candidates = [o.representative for o in ess if o.type == tag and o.rank == 3]
        marker_for[marker] = min(candidates, key=Endomorphism.sort_key)
    marker_for["p^tr"] = phi_trivial(n)

    marker_of_element = {el: m for m, el in marker_for.items()}
    images: dict[str, Endomorphism] = {}
    q_symbols = tuple(q_symbol(i) for i in range(1, n))
    for i, sym in enumerate(q_symbols, start=1):
        images[sym] = aut(Transformation.transposition(n, i, i + 1))
    p_symbols = []
    symbol_of: dict[Endomorphism, str] = {}
    for orbit in ess:
        el = orbit.representative
        sym = marker_of_element.get(el, p_symbol(el))
        p_symbols.append(sym)
        images[sym] = el
        symbol_of[el] = sym
    p_symbols = tuple(p_symbols)

    def sym_type(sym: str) -> TypeTag:
        return images[sym].type_tag

    relations: list[Relation] = []

    # Coxeter relations presenting the automorphism group.
    for i in range(1, n):
        qi = q_symbol(i)
        relations.append(Relation("RPi", (qi, qi), ()))
    for i in range(1, n - 1):
        qi, qj = q_symbol(i), q_symbol(i + 1)
        relations.append(Relation("RPi", (qi, qj) * 3, ()))
    for i in range(1, n):
        for j in range(i + 2, n):
            qi, qj = q_symbol(i), q_symbol(j)
            relations.append(Relation("RPi", (qi, qj) * 2, ()))

    # R1: automorphism generators are left identities for every p.
    for q in q_symbols:
        for p in p_symbols:
            relations.append(Relation("R1", (q, p), (p,)))

    # R2: one canonical word per non-trivial element fixing a generator.
    cosets = get_cosets(n)
    for p in p_symbols:
        for g in sorted(cosets.stabiliser(images[p])):
            if not g.is_identity:
                relations.append(Relation("R2", (p,) + canonical_word(g), (p,)))

    # R3: products landing outside the essential orbits rewrite to the
    # canonical generator pair of their orbit, with a q-tail carrying the
    # conjugating permutation.
    pair_products: dict[Endomorphism, list[tuple[str, str]]] = {}
    essential_reps = {o.representative for o in orbits(n) if o.essential}
    for p1 in p_symbols:
        for p2 in p_symbols:
            rep = cosets.representative(multiply(images[p1], images[p2]))
            if rep not in essential_reps:
                pair_products.setdefault(rep, []).append((p1, p2))
    for pairs in pair_products.values():
        pairs.sort()
        u1, u2 = pairs[0]
        target = multiply(images[u1], images[u2])
        for p1, p2 in pairs:
            product = multiply(images[p1], images[p2])
            g = cosets.least_conjugator(product, target)
            if (p1, p2) == (u1, u2) and g.is_identity:
                continue
            relations.append(
                Relation("R3", (p1, p2) + canonical_word(g), (u1, u2))
            )

    # R4: in front of another p, only the type of the first factor matters.
    by_type: dict[TypeTag, list[str]] = {}
    for p in p_symbols:
        by_type.setdefault(sym_type(p), []).append(p)
    for tag, group in by_type.items():
        for p in group:
            for p_prime in group:
                if p != p_prime:
                    for target in p_symbols:
                        relations.append(
                            Relation("R4", (p, target), (p_prime, target))
                        )

    # R5..R10: marker combinatorics.
    od, ev, np_, tr = "p^od", "p^ev", "p^np", "p^tr"
    for p in p_symbols:
        relations.append(Relation("R5", (od, p), (p,)))
        if images[p].rank == 2:
            relations.append(Relation("R6", (ev, p), (p,)))
        relations.append(Relation("R7", (ev, ev, p), (ev, p)))
        relations.append(Relation("R8", (np_, ev, p), (np_, p)))
        relations.append(Relation("R8", (ev, np_, p), (np_, p)))
        relations.append(Relation("R8", (np_, np_, p), (np_, p)))
        relations.append(Relation("R10", (tr, np_, p), (np_, p)))
        if sym_type(p) in (TypeTag.ODD, TypeTag.EVEN):
            relations.append(Relation("R10", (tr, p), (tr,)))
    relations.append(Relation("R9", (ev, tr), (tr,)))
    relations.append(Relation("R9", (np_, tr), (tr,)))
    relations.append(Relation("R9", (tr, tr), (tr,)))

    return Presentation(
        n=n,
        q_symbols=q_symbols,
        p_symbols=p_symbols,
        images=images,
        relations=tuple(relations),
    )


def theta_eval(word: Word, n: int) -> Endomorphism:
    """Evaluate a word left-to-right; the empty word is the identity."""
    return presentation(n).theta(tuple(word))


# -- normal form ------------------------------------------------------------


def _marker_of_type(tag: TypeTag) -> str:
    for marker, t in _MARKER_TYPES.items():
        if t == tag:
            return marker
    raise ValueError(f"no marker for {tag}")


def normal_form(word, n: int) -> Word:
    """Rewrite to a pure q-word, or  p q...q,  or  p p q...q.

    Applies R1 (discard automorphism letters that precede a p), R4/R5
    (collapse every non-final p to its type marker, dropping odd ones),
    R6..R10 (shrink the marker prefix), then the R2/R3 clean-up that
    canonicalises the surviving generators and q-tail.  A step budget
    guards against a runaway rewrite.
    """
    pres = presentation(n)
    word = tuple(word)
    for symbol in word:
        if symbol not in pres.images:
            raise ValueError(f"unknown symbol {symbol!r}")
    budget = REWRITE_STEP_BUDGET

    def spend(k: int = 1):
        nonlocal budget
        budget -= k
        if budget < 0:
            raise RewriteBudgetExceeded(
                f"rewriting did not settle within {REWRITE_STEP_BUDGET} steps"
            )

    ps = [s for s in word if not s.startswith("q:")]
    if not ps:
        # Pure automorphism word: multiply out and take the canonical word.
        g = pres.theta(word).g
        return canonical_word(g)
    last_p = max(i for i, s in enumerate(word) if not s.startswith("q:"))
    tail = word[last_p + 1 :]
    spend(last_p + 1 - len(ps))  # R1 deletions

    # R4/R5: every p except the last collapses to its marker; odd markers
    # then vanish.
    prefix: list[str] = []
    for s in ps[:-1]:
        tag = pres.images[s].type_tag
        spend()
        if tag != TypeTag.ODD:
            prefix.append(_marker_of_type(tag))
    final = ps[-1]

    # R6..R10 on the marker prefix (rightmost pair first).  R7/R8 and the
    # absorbing half of R10 rewrite a pair only in front of a further p,
    # so they never fire on the final letter; R6, R9, and the swallowing
    # half of R10 are genuine two-letter relations and may consume it.
    changed = True
    while changed:
        changed = False
        seq = prefix + [final]
        for i in range(len(prefix) - 1, -1, -1):
            a, b = seq[i], seq[i + 1]
            followed = i + 1 < len(seq) - 1
            nxt = None
            if b == "p^tr" and a in ("p^ev", "p^np", "p^tr"):
                nxt = ["p^tr"]  # R9
            elif a == "p^tr" and pres.images[b].type_tag in (
                TypeTag.ODD,
                TypeTag.EVEN,
            ):
                nxt = ["p^tr"]  # R10
            elif a == "p^ev" and pres.images[b].rank == 2:
                nxt = [b]  # R6
            elif followed and a == "p^ev" and b == "p^ev":
                nxt = ["p^ev"]  # R7
            elif followed and a in ("p^np", "p^ev") and b == "p^np":
                nxt = ["p^np"]  # R8
            elif followed and a == "p^np" and b == "p^ev":
                nxt = ["p^np"]  # R8
            elif followed and a == "p^tr" and b == "p^np":
                nxt = ["p^np"]  # R10
            if nxt is not None:
                spend()
                seq[i : i + 2] = nxt
                prefix, final = seq[:-1], seq[-1]
                changed = True
                break

    # The remaining prefix is at most one marker: anything longer keeps
    # reducing above.  Clean up with R2/R3: replace the generators by the
    # canonical ones for their orbit and the tail by the least coset word.
    spend(len(prefix) + len(tail))
    value = pres.theta(tuple(prefix) + (final,) + tail)
    cosets = get_cosets(n)
    if len(prefix) == 0:
        target = pres.images[final]
        # value = target * psi_g for some g; take the least such g.
        return (final,) + canonical_word(cosets.least_conjugator(target, value))
    # Two-generator shape: canonicalise the pair per orbit of the value.
    u1, u2 = _canonical_pairs(n)[cosets.representative(value)]
    base = pres.theta((u1, u2))
    return (u1, u2) + canonical_word(cosets.least_conjugator(base, value))


@lru_cache(maxsize=None)
def _canonical_pairs(n: int) -> dict[Endomorphism, tuple[str, str]]:
    """Lexicographically least generator pair reaching each product orbit."""
    pres = presentation(n)
    cosets = get_cosets(n)
    pairs: dict[Endomorphism, tuple[str, str]] = {}
    for p1, p2 in itertools.product(sorted(pres.p_symbols), repeat=2):
        rep = cosets.representative(multiply(pres.images[p1], pres.images[p2]))
        pairs.setdefault(rep, (p1, p2))
    return pairs
