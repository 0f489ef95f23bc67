"""Elements of End(T_n) with symbolic multiplication and a composition oracle.

An endomorphism is one of three variants:

* ``aut(g)``      -- conjugation by a permutation g,
* ``phi(t, e)``   -- the singular map sending odd permutations to t, even
                     permutations to t^2 and non-permutations to e,
* ``sigma4(g)``   -- the twenty-four rank-7 maps that exist only at n = 4.

Values are interned, so equality checks are cheap and the symbolic product
of two interned elements is again interned.  ``elements(n)`` lists End(T_n)
once per degree; its singular block is read off the checked arrays of
permissible pairs, ``singular_words(n)``, with no pair object per element.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .errors import NotAnEndomorphismError
from .pairs import PermissiblePair, _checked_pair_words, u_members, u_words
from .transformations import (
    MAX_END_DEGREE,
    Transformation,
    check_capacity,
    compose,
    conjugate,
    enumerate_permutations,
    generators,
    permutation_parity,
    word_codes,
)


class TypeTag(enum.Enum):
    GROUP = "group"
    EXCEPTIONAL = "exceptional"
    ODD = "odd"
    EVEN = "even"
    NON_PERMUTATION = "non-permutation"
    TRIVIAL = "trivial"


_AUT, _PHI, _SIGMA4 = 0, 1, 2

_intern: dict[tuple, "Endomorphism"] = {}

# The Klein four-group in S_4, as 0-indexed image words.
_KLEIN_WORDS = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))


def klein_four() -> tuple[Transformation, ...]:
    return tuple(Transformation(w) for w in _KLEIN_WORDS)


@lru_cache(maxsize=None)
def _klein_reps() -> dict[Transformation, Transformation]:
    """Each s in S_4 mapped to the element of its coset Ks that fixes 4."""
    klein = klein_four()
    return {
        s: next(ks for ks in (compose(k, s) for k in klein) if ks.word[3] == 3)
        for s in enumerate_permutations(4)
    }


def coset_rep_fixing_4(s: Transformation) -> Transformation:
    """The unique element of the coset Ks that fixes the point 4."""
    rep = _klein_reps().get(s)
    if rep is None:
        raise ValueError("coset representatives are defined for permutations of S_4")
    return rep


class Endomorphism:
    """Interned symbolic element of End(T_n)."""

    __slots__ = ("kind", "n", "g", "t", "e", "t2", "type_tag", "_star", "_key")

    def __init__(self):
        raise TypeError("use the aut/phi/sigma4 factory functions")

    # -- accessors ---------------------------------------------------------

    @property
    def rank(self) -> int:
        if self.kind == _AUT:
            return self.n ** self.n
        if self.kind == _SIGMA4:
            return 7
        return len({self.t, self.t2, self.e})

    @property
    def is_aut(self) -> bool:
        return self.kind == _AUT

    @property
    def is_phi(self) -> bool:
        return self.kind == _PHI

    @property
    def is_sigma4(self) -> bool:
        return self.kind == _SIGMA4

    def sort_key(self) -> tuple:
        if self.kind == _AUT:
            return (0, self.g.word)
        if self.kind == _PHI:
            return (1, self.t.word, self.e.word)
        return (2, self.g.word)

    def key(self) -> str:
        """Canonical string key used in CLI output and partitions, built on
        first call and kept, so every call returns the same string."""
        try:
            return self._key
        except AttributeError:
            pass
        if self.kind == _AUT:
            key = "aut:g=" + ",".join(map(str, self.g.images))
        elif self.kind == _PHI:
            key = (
                "phi:t="
                + ",".join(map(str, self.t.images))
                + ";e="
                + ",".join(map(str, self.e.images))
            )
        else:
            key = "sigma4:g=" + ",".join(map(str, self.g.images))
        self._key = key
        return key

    def __repr__(self) -> str:
        return f"<{self.key()}>"

    def __lt__(self, other: "Endomorphism") -> bool:
        return self.sort_key() < other.sort_key()


def _make(kind: int, key: tuple, g, t, e, t2, type_tag: TypeTag) -> Endomorphism:
    self = object.__new__(Endomorphism)
    self.kind = kind
    self.g = g
    self.t = t
    # The degree is read on every product, so it is stored, not derived.
    self.n = g.n if g is not None else t.n
    self.e = e
    self.t2 = t2
    self.type_tag = type_tag
    # ``_star`` and ``_key`` are left unset until ``star_map`` and ``key``
    # first read them.
    _intern[key] = self
    return self


def aut(g: Transformation) -> Endomorphism:
    """The automorphism s -> s^g."""
    key = (_AUT, g.word)
    cached = _intern.get(key)
    if cached is not None:
        return cached
    if not g.is_permutation:
        raise ValueError("aut requires a permutation")
    return _make(_AUT, key, g, None, None, None, TypeTag.GROUP)


def phi(t: Transformation, e: Transformation) -> Endomorphism:
    """The singular endomorphism determined by the permissible pair (t, e);
    constructing the pair raises ``ValueError`` unless it is permissible."""
    key = (_PHI, t.word, e.word)
    cached = _intern.get(key)
    if cached is not None:
        return cached
    PermissiblePair(t, e)
    if t.n == 1:
        # At degree 1 the only permissible pair gives the identity map itself.
        return epsilon(1)
    tag = _tag_of(t)
    if tag is TypeTag.EVEN and t.is_identity and e.is_identity:
        tag = TypeTag.TRIVIAL
    return _make(_PHI, key, None, t, e, t.square(), tag)


def _tag_of(t: Transformation) -> TypeTag:
    """The type of every phi(t, e) but phi(id, id), which is trivial."""
    if not t.is_permutation:
        return TypeTag.NON_PERMUTATION
    if permutation_parity(t) == "odd":
        return TypeTag.ODD
    return TypeTag.EVEN


def sigma4(g: Transformation) -> Endomorphism:
    """A rank-7 endomorphism of T_4, indexed by g in S_4."""
    key = (_SIGMA4, g.word)
    cached = _intern.get(key)
    if cached is not None:
        return cached
    if g.n != 4:
        raise ValueError("sigma4 exists only at degree 4")
    if not g.is_permutation:
        raise ValueError("sigma4 requires a permutation")
    return _make(_SIGMA4, key, g, None, None, None, TypeTag.EXCEPTIONAL)


@lru_cache(maxsize=None)
def epsilon(n: int) -> Endomorphism:
    """The identity of End(T_n)."""
    return aut(Transformation.identity(n))


def phi_trivial(n: int) -> Endomorphism:
    """The trivial-type element sending everything to the identity map."""
    ident = Transformation.identity(n)
    return phi(ident, ident)


# -- action on T_n ---------------------------------------------------------


def apply(alpha: Endomorphism, s: Transformation) -> Transformation:
    """The value of s under alpha."""
    if alpha.n != s.n:
        raise ValueError(f"degree mismatch: {alpha.n} vs {s.n}")
    if alpha.kind == _AUT:
        return conjugate(s, alpha.g)
    if alpha.kind == _PHI:
        if not s.is_permutation:
            return alpha.e
        return alpha.t if permutation_parity(s) == "odd" else alpha.t2
    if not s.is_permutation:
        return Transformation.constant(4, alpha.g(4))
    return conjugate(coset_rep_fixing_4(s), alpha.g)


# -- symbolic multiplication -----------------------------------------------


def star_map(alpha: Endomorphism, which: str) -> Endomorphism:
    """The +/-/0 companions of a singular element.

    phi(t,e)+ = phi(t^2,e), phi(t,e)- = phi(e,e), phi(t,e)0 = phi(t^2,t^2).
    """
    if alpha.kind != _PHI:
        raise ValueError("star maps are defined for singular phi elements only")
    try:
        stars = alpha._star
    except AttributeError:
        stars = alpha._star = {}
    cached = stars.get(which)
    if cached is not None:
        return cached
    if which == "+":
        result = phi(alpha.t2, alpha.e)
    elif which == "-":
        result = phi(alpha.e, alpha.e)
    elif which == "0":
        result = phi(alpha.t2, alpha.t2)
    else:
        raise ValueError(f"unknown star map {which!r}")
    stars[which] = result
    return result


def multiply(alpha: Endomorphism, beta: Endomorphism) -> Endomorphism:
    """The product alpha then beta, computed symbolically."""
    if alpha.n != beta.n:
        raise ValueError(f"degree mismatch: {alpha.n} vs {beta.n}")
    ka, kb = alpha.kind, beta.kind
    if ka == _AUT:
        if kb == _AUT:
            return aut(compose(alpha.g, beta.g))
        if kb == _PHI:
            return beta
        return sigma4(compose(coset_rep_fixing_4(alpha.g), beta.g))
    if ka == _PHI:
        if kb == _AUT:
            g = beta.g
            return phi(conjugate(alpha.t, g), conjugate(alpha.e, g))
        if kb == _PHI:
            tag = alpha.type_tag
            if tag == TypeTag.ODD:
                return beta
            if tag == TypeTag.EVEN:
                return star_map(beta, "+")
            if tag == TypeTag.NON_PERMUTATION:
                return star_map(beta, "-")
            return star_map(beta, "0")
        return phi(apply(beta, alpha.t), apply(beta, alpha.e))
    # alpha is sigma4
    if kb == _AUT:
        return sigma4(compose(alpha.g, beta.g))
    if kb == _PHI:
        return beta
    return sigma4(compose(coset_rep_fixing_4(alpha.g), beta.g))


# -- identification and oracle ---------------------------------------------


def identify(
    table: Callable[[Transformation], Transformation], n: int
) -> Endomorphism:
    """Recover the symbolic form of an endomorphism from its value map.

    ``table`` must be an endomorphism of T_n: only its values on the
    generators of T_n (``generators(n)``) are read, once each, and an
    endomorphism is fixed by them.  One candidate is read off those
    values and returned only if its own values on the generators are the
    same objects; otherwise ``NotAnEndomorphismError`` is raised.
    """
    gens = generators(n)
    values = [table(s) for s in gens]
    if n == 1:
        candidate = epsilon(1)
    else:
        A, C = values[0], values[-1]
        B = values[1] if n > 2 else A  # b = a at n = 2
        if _is_n_cycle(B):
            # Only an automorphism aut(g) sends b to an n-cycle: a phi
            # sends it to t or t^2, a non-permutation or a permutation
            # squaring to id (not (1 2) at n = 2), and a sigma4 to a map
            # fixing a point.  c moves only 2, to 1, so C = c^g moves
            # only g(2), to g(1); and b^g = B gives g(i + 1) = B(g(i)).
            moved = [x for x, y in enumerate(C.word) if x != y]
            if len(moved) != 1:
                raise NotAnEndomorphismError("c has no automorphic image")
            g = [C.word[moved[0]]]
            for _ in range(n - 1):
                g.append(B.word[g[-1]])
            candidate = aut(Transformation(tuple(g)))
        elif n == 4 and tuple(values) in _sigma4_by_values():
            candidate = _sigma4_by_values()[tuple(values)]
        else:
            # phi(t, e) sends the odd a to t and the non-permutation c to e.
            try:
                candidate = phi(A, C)
            except ValueError as exc:
                raise NotAnEndomorphismError(str(exc)) from None
    if any(apply(candidate, s) is not v for s, v in zip(gens, values)):
        raise NotAnEndomorphismError("no endomorphism has the table's values")
    return candidate


def _is_n_cycle(s: Transformation) -> bool:
    if not s.is_permutation:
        return False
    word, x = s.word, 0
    for _ in range(s.n - 1):
        x = word[x]
        if x == 0:
            return False
    return True


@lru_cache(maxsize=None)
def _sigma4_by_values() -> dict[tuple[Transformation, ...], Endomorphism]:
    """The 24 rank-7 maps, each keyed by its values on ``generators(4)``."""
    gens = generators(4)
    return {
        tuple(apply(el, s) for s in gens): el
        for el in map(sigma4, enumerate_permutations(4))
    }


def oracle_multiply(alpha: Endomorphism, beta: Endomorphism) -> Endomorphism:
    """Function-composition product: identify(s -> (s alpha) beta).

    Independent of the symbolic multiplication table; used to verify it.
    """
    n = alpha.n
    if beta.n != n:
        raise ValueError(f"degree mismatch: {n} vs {beta.n}")
    check_capacity(n, MAX_END_DEGREE, "oracle multiplication")
    return identify(lambda s: apply(beta, apply(alpha, s)), n)


# -- enumeration -----------------------------------------------------------


def enumerate_End(n: int) -> Iterator[Endomorphism]:
    """All of End(T_n) in ``sort_key`` order: the n! automorphisms, the
    singular phis in the order of ``singular_words``, and at n = 4 the
    twenty-four rank-7 maps."""
    check_capacity(n, MAX_END_DEGREE, "End(T_n) enumeration")
    for g in enumerate_permutations(n):
        yield aut(g)
    t_words, e_words = singular_words(n)
    t = None
    for t_row, e in zip(u_members(t_words), u_members(e_words)):
        if t_row is not t:
            # The rows of one t are adjacent: its square and type once.
            t, t2, tag = t_row, t_row.square(), _tag_of(t_row)
            trivial = tag is TypeTag.EVEN and t.is_identity
        key = (_PHI, t.word, e.word)
        el = _intern.get(key)
        if el is None:
            el_tag = TypeTag.TRIVIAL if trivial and e is t else tag
            el = _make(_PHI, key, None, t, e, t2, el_tag)
        yield el
    if n == 4:
        for g in enumerate_permutations(4):
            yield sigma4(g)


@lru_cache(maxsize=None)
def elements(n: int) -> tuple[Endomorphism, ...]:
    """End(T_n) in ``sort_key`` order, enumerated once per degree: the units,
    then the singular elements by (t, e) word, then at n = 4 the rank-7
    maps.  Every table, partition and listing uses this order."""
    return tuple(enumerate_End(n))


@lru_cache(maxsize=None)
def singular_words(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The t and the e image words of the singular block of ``elements(n)``:
    every permissible pair, built and checked by ``_checked_pair_words``,
    as read-only ``int8`` rows sorted so that their ``pair_codes`` ascend.
    At n = 1 the one pair gives the identity, a unit, so there are none."""
    check_capacity(n, MAX_END_DEGREE, "permissible pair enumeration")
    u = u_words(n)[: 0 if n == 1 else None]
    sizes, e = _checked_pair_words(u)
    t = np.repeat(u, sizes, axis=0)
    order = np.lexsort((word_codes(e), word_codes(t)))
    t, e = t[order], e[order]
    t.flags.writeable = e.flags.writeable = False
    return t, e
