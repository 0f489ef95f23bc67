"""Orbits, minimal generating sets, and a monoid presentation of End(T_n).

Generators come in two flavours: q-symbols, the adjacent transpositions
presenting the automorphism group in Coxeter style, and p-symbols, one
canonical representative per essential orbit of singular elements.  Four
p-symbols are distinguished as markers (p^od, p^ev, p^np, p^tr), one per
multiplicative type, and the relation families R1..R10 hold under theta.
Every word has the value of one of shape  q...q,  p q...q  or  p p q...q;
``normal_form`` reads that word off the value's orbit, whose one- or
two-letter prefix is recorded while R3 is built.  The singular orbits,
their stabilisers and the conjugating q-tails come from ``endtn.cosets``.
Checking that the relations derive each normal form is not done here.
"""

from __future__ import annotations

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
from .errors import CapacityError
from .transformations import Transformation, compose, enumerate_permutations
from .universe import get_universe

PRESENTATION_DEGREES = (5, 6)

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


@dataclass(frozen=True, slots=True)
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
    # Normal-form prefix of each singular orbit, keyed by its representative.
    prefixes: dict[Endomorphism, Word]

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
    # conjugating permutation.  That pair is the orbit's normal-form
    # prefix; an essential orbit's prefix is its generator.
    prefixes: dict[Endomorphism, Word] = {images[p]: (p,) for p in p_symbols}
    pair_products: dict[Endomorphism, list[tuple[str, str]]] = {}
    essential_reps = {o.representative for o in orbits(n) if o.essential}
    for p1 in p_symbols:
        for p2 in p_symbols:
            rep = cosets.representative(multiply(images[p1], images[p2]))
            if rep not in essential_reps:
                pair_products.setdefault(rep, []).append((p1, p2))
    for rep, pairs in pair_products.items():
        pairs.sort()
        u1, u2 = pairs[0]
        prefixes[rep] = (u1, u2)
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
    # There are far more R4 relations than two-letter words, so each word
    # is one shared tuple.
    by_type: dict[TypeTag, list[str]] = {}
    for p in p_symbols:
        by_type.setdefault(sym_type(p), []).append(p)
    words_from = {p: [(p, target) for target in p_symbols] for p in p_symbols}
    for tag, group in by_type.items():
        for p in group:
            for p_prime in group:
                if p != p_prime:
                    for lhs, rhs in zip(words_from[p], words_from[p_prime]):
                        relations.append(Relation("R4", lhs, rhs))

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
        prefixes=prefixes,
    )


def theta_eval(word: Word, n: int) -> Endomorphism:
    """Evaluate a word left-to-right; the empty word is the identity."""
    return presentation(n).theta(tuple(word))


# -- normal form ------------------------------------------------------------


def normal_form(word, n: int) -> Word:
    """The normal form of the word's value: a q-word, or  p q...q,  or
    p p q...q.

    A unit gives its least reduced q-word.  Any other value gives its
    orbit's prefix (the orbit's generator if it is essential, otherwise
    the generator pair R3 rewrites to, ``Presentation.prefixes``) and the
    least q-word conjugating the prefix's value onto it.  The result
    depends only on the value, so equal elements share one normal form.
    """
    pres = presentation(n)
    value = pres.theta(tuple(word))
    if value.is_aut:
        return canonical_word(value.g)
    cosets = get_cosets(n)
    prefix = pres.prefixes[cosets.representative(value)]
    return prefix + canonical_word(cosets.least_conjugator(pres.theta(prefix), value))
