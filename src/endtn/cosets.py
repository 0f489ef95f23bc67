"""The right action of Aut(T_n) on the singular elements of End(T_n).

Post-composing phi(t, e) with the automorphism psi_g conjugates both
halves of the pair: phi(t, e) psi_g = phi(t^g, e^g).  The orbits
alpha Aut(T_n) of this action are the right cosets that the
presentation's p-generators represent and that the A, B and C Green's
classes are made of.

The singular elements are walked in ascending (t, e) word order.  The
first one not yet reached is the least member of its orbit, so it is the
orbit's representative, and only it is conjugated: by all of S_n at
once, in lexicographic order.  The first g that reaches a member is its
least conjugator, and the g that reach the representative itself are
Stab(rep).  Together (a transversal in the manner of a Schreier vector,
Seress, *Permutation Group Algorithms*, 2003, §2.1) they answer
stabiliser and conjugator queries for any member by lookup instead of a
scan of S_n.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .endomorphisms import Endomorphism, elements, singular_words
from .errors import VerificationError
from .transformations import (
    Transformation,
    enumerate_permutations,
    pair_codes,
    word_codes,
)


class Cosets:
    """The orbits alpha Aut(T_n) of the singular elements of degree n."""

    def __init__(self, n: int):
        # The singular block of the elements, in sort_key order, so the
        # codes ascend.  ``elements`` holds the capacity guard.
        phis = [el for el in elements(n) if el.is_phi]
        t, e = singular_words(n)
        codes = pair_codes(t, e)
        perms = list(enumerate_permutations(n))
        words = np.array([g.word for g in perms], dtype=np.int64)
        inverses = np.argsort(words, axis=1)

        def conjugates(s):
            # s^g = g^-1 s g for every g, one image word per row.
            return np.take_along_axis(words, s[inverses], axis=1)

        self._rep: dict[Endomorphism, Endomorphism] = {}
        self._conj: dict[Endomorphism, Transformation] = {}
        self._members: dict[Endomorphism, frozenset[Endomorphism]] = {}
        self._stab: dict[Endomorphism, np.ndarray] = {}
        for j, rep in enumerate(phis):
            if rep in self._rep:
                continue
            key = pair_codes(conjugates(t[j]), conjugates(e[j]))
            pos = np.minimum(np.searchsorted(codes, key), len(codes) - 1)
            missing = np.flatnonzero(codes[pos] != key)
            if len(missing):
                raise VerificationError(
                    "a conjugated permissible pair is not an element",
                    counterexample=(rep, perms[missing[0]]),
                )
            # np.unique returns each member's first position: its least g.
            members, first = np.unique(pos, return_index=True)
            for m, k in zip(members.tolist(), first.tolist()):
                self._rep[phis[m]] = rep
                self._conj[phis[m]] = perms[k]
            self._members[rep] = frozenset(phis[m] for m in members.tolist())
            # Stab(rep) as an array of image words, in lexicographic order.
            self._stab[rep] = words[pos == j]
        # Found in ascending order, so already sorted by sort_key.
        self.representatives: tuple[Endomorphism, ...] = tuple(self._members)

    def representative(self, alpha: Endomorphism) -> Endomorphism:
        """The member of alpha's orbit with the least (t, e) word."""
        return self._rep[alpha]

    def orbit(self, alpha: Endomorphism) -> frozenset[Endomorphism]:
        return self._members[self._rep[alpha]]

    def stabiliser(self, alpha: Endomorphism) -> frozenset[Transformation]:
        """The g with alpha psi_g = alpha: c^-1 Stab(rep) c, where c is the
        least g with rep psi_g = alpha."""
        c = np.array(self._conj[alpha].word)
        cinv = np.argsort(c)
        words = c[self._stab[self._rep[alpha]][:, cinv]]
        return frozenset(Transformation(tuple(w)) for w in words.tolist())

    def least_conjugator(
        self, alpha: Endomorphism, beta: Endomorphism
    ) -> Transformation:
        """The least g (by image word) with alpha psi_g = beta.

        Those g form the coset c_alpha^-1 Stab(rep) c_beta, where c_x is
        the least g with rep psi_g = x.
        """
        rep = self._rep[alpha]
        if self._rep[beta] is not rep:
            raise ValueError(f"{alpha!r} and {beta!r} lie in different orbits")
        ca_inv = np.argsort(self._conj[alpha].word)
        cb = np.array(self._conj[beta].word)
        words = cb[self._stab[rep][:, ca_inv]]
        least = words[np.argmin(word_codes(words))]
        return Transformation(tuple(least.tolist()))


@lru_cache(maxsize=None)
def get_cosets(n: int) -> Cosets:
    return Cosets(n)
