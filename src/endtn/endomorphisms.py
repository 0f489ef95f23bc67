"""Elements of End(T_n) with symbolic multiplication and a composition oracle.

An endomorphism is one of three variants:

* ``aut(g)``      -- conjugation by a permutation g,
* ``phi(t, e)``   -- the singular map sending odd permutations to t, even
                     permutations to t^2 and non-permutations to e,
* ``sigma4(g)``   -- the twenty-four rank-7 maps that exist only at n = 4.

Values are interned, so equality checks are cheap and the symbolic product
of two interned elements is again interned.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import Callable, Iterator

from .errors import NotAnEndomorphismError
from .pairs import PermissiblePair, enumerate_P, is_permissible
from .transformations import (
    MAX_END_DEGREE,
    Transformation,
    check_capacity,
    compose,
    conjugate,
    enumerate_permutations,
    permutation_parity,
)


class TypeTag(enum.Enum):
    GROUP = "group"
    EXCEPTIONAL = "exceptional"
    ODD = "odd"
    EVEN = "even"
    NON_PERMUTATION = "non-permutation"
    TRIVIAL = "trivial"


_AUT, _PHI, _SIGMA4 = 0, 1, 2
_KIND_NAMES = {_AUT: "aut", _PHI: "phi", _SIGMA4: "sigma4"}

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

    __slots__ = ("kind", "n", "g", "t", "e", "t2", "type_tag", "_star")

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
        """Canonical string key used in CLI output and partitions."""
        if self.kind == _AUT:
            return "aut:g=" + ",".join(map(str, self.g.images))
        if self.kind == _PHI:
            return (
                "phi:t="
                + ",".join(map(str, self.t.images))
                + ";e="
                + ",".join(map(str, self.e.images))
            )
        return "sigma4:g=" + ",".join(map(str, self.g.images))

    def __repr__(self) -> str:
        return f"<{self.key()}>"

    def __lt__(self, other: "Endomorphism") -> bool:
        return self.sort_key() < other.sort_key()


def _make(kind: int, key: tuple, **fields) -> Endomorphism:
    self = object.__new__(Endomorphism)
    self.kind = kind
    self.g = fields.get("g")
    self.t = fields.get("t")
    # The degree is read on every product, so it is stored, not derived.
    self.n = self.g.n if self.g is not None else self.t.n
    self.e = fields.get("e")
    self.t2 = fields.get("t2")
    self.type_tag = fields["type_tag"]
    self._star = {}
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
    return _make(_AUT, key, g=g, type_tag=TypeTag.GROUP)


def phi(t: Transformation, e: Transformation) -> Endomorphism:
    """The singular endomorphism determined by the permissible pair (t, e)."""
    cached = _intern.get((_PHI, t.word, e.word))
    if cached is not None:
        return cached
    return phi_of(PermissiblePair(t, e))


def phi_of(pair: PermissiblePair) -> Endomorphism:
    """``phi(pair.t, pair.e)``; constructing the pair has already checked
    that it is permissible."""
    t, e = pair.t, pair.e
    if t.n == 1:
        # At degree 1 the only permissible pair gives the identity map itself.
        return epsilon(1)
    key = (_PHI, t.word, e.word)
    cached = _intern.get(key)
    if cached is not None:
        return cached
    t2 = compose(t, t)
    if t.is_identity and e.is_identity:
        tag = TypeTag.TRIVIAL
    elif t.is_permutation and permutation_parity(t) == "odd":
        tag = TypeTag.ODD
    elif t.is_permutation:
        tag = TypeTag.EVEN
    else:
        tag = TypeTag.NON_PERMUTATION
    return _make(_PHI, key, t=t, e=e, t2=t2, type_tag=tag)


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
    return _make(_SIGMA4, key, g=g, type_tag=TypeTag.EXCEPTIONAL)


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
    cached = alpha._star.get(which)
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
    alpha._star[which] = result
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

    Probes constants and a couple of small permutations rather than
    scanning all of T_n.
    """
    const_images = [table(c) for c in _constants(n)]
    points = [c.word[0] if c.is_constant else None for c in const_images]
    if None not in points and len(set(points)) == n:
        # Constants map to n distinct constants: an automorphism.
        g = Transformation(tuple(points))
        result = aut(g)
        if n >= 2 and not _probes_match(table, result, n):
            raise NotAnEndomorphismError("table is inconsistent with any automorphism")
        return result
    e = const_images[0]
    if any(c is not e for c in const_images):
        raise NotAnEndomorphismError("constants map to distinct non-constant values")
    if n == 1:
        return epsilon(1)
    t = table(_probe_set(n)[2])  # the transposition (1 2)
    if is_permissible(t, e):
        candidate = phi(t, e)
        if _probes_match(table, candidate, n):
            return candidate
    if n == 4:
        for g in enumerate_permutations(4):
            candidate = sigma4(g)
            if _probes_match(table, candidate, 4):
                return candidate
    raise NotAnEndomorphismError("no symbolic endomorphism matches the table")


@lru_cache(maxsize=None)
def _constants(n: int) -> tuple[Transformation, ...]:
    return tuple(Transformation.constant(n, i) for i in range(1, n + 1))


@lru_cache(maxsize=None)
def _probe_set(n: int) -> tuple[Transformation, ...]:
    probes = [Transformation.identity(n), Transformation.constant(n, 1)]
    if n >= 2:
        probes.append(Transformation.transposition(n, 1, 2))
    if n >= 3:
        probes.append(Transformation.transposition(n, 1, 3))
        probes.append(Transformation.cycle(n, (1, 2, 3)))
    return tuple(probes)


def _probes_match(table, candidate: Endomorphism, n: int) -> bool:
    # Transformations are interned, so equal values are the same object.
    return all(table(s) is apply(candidate, s) for s in _probe_set(n))


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
    """All of End(T_n): n! automorphisms, the singular phis, and at n = 4
    the twenty-four rank-7 maps."""
    check_capacity(n, MAX_END_DEGREE, "End(T_n) enumeration")
    for g in enumerate_permutations(n):
        yield aut(g)
    if n >= 2:
        for pair in enumerate_P(n):
            yield phi_of(pair)
    if n == 4:
        for g in enumerate_permutations(4):
            yield sigma4(g)
