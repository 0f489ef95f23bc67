"""The right action of Aut(T_n) on the singular elements of End(T_n).

Post-composing phi(t, e) with the automorphism psi_g conjugates both
halves of the pair: phi(t, e) psi_g = phi(t^g, e^g).  The orbits
alpha Aut(T_n) of this action are the right cosets that the
presentation's p-generators represent and that the A, B and C Green's
classes are made of.

One pass over S_n in lexicographic order records, for every singular
alpha, its orbit's representative (the member with the least (t, e)
word), the least g with rep psi_g = alpha, and the g fixing alpha.  Kept
for the representatives only, the fixers give Stab(rep); together with
the least conjugators (a transversal in the manner of a Schreier vector,
Seress, *Permutation Group Algorithms*, 2003) they answer stabiliser and
conjugator queries for any member by lookup instead of a scan of S_n.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .endomorphisms import Endomorphism, phi_of
from .pairs import enumerate_P
from .transformations import (
    Transformation,
    conjugate_words,
    enumerate_permutations,
    word_codes,
)


class Cosets:
    """The orbits alpha Aut(T_n) of the singular elements of degree n."""

    def __init__(self, n: int):
        # At degree 1 the only permissible pair gives the identity, which
        # is not singular.  enumerate_P holds the capacity guard.
        phis = [phi_of(p) for p in enumerate_P(n)] if n > 1 else []
        # Conjugate each distinct t or e word once per g, then combine the
        # codes: far fewer rows than one (t, e) row per element.
        index: dict[Transformation, int] = {}
        ti = np.array([index.setdefault(el.t, len(index)) for el in phis], dtype=int)
        ei = np.array([index.setdefault(el.e, len(index)) for el in phis], dtype=int)
        words = np.array([w.word for w in index], dtype=np.int64).reshape(-1, n)

        def codes(rows):
            # Base-n code of the (t, e) word: numeric order is sort_key order.
            return rows[ti] * n**n + rows[ei]

        own = codes(word_codes(words))
        perms = list(enumerate_permutations(n))
        best = own.copy()
        conj = np.zeros(len(phis), dtype=int)  # perms[0] is the identity
        fixers = []
        for k, g in enumerate(perms):
            # Code of alpha psi_{g^-1}: it reaches the orbit minimum first
            # at the least g with rep psi_g = alpha.
            key = codes(word_codes(conjugate_words(words, g.inverse())))
            better = key < best
            best[better] = key[better]
            conj[better] = k
            fixers.append(np.flatnonzero(key == own))

        is_rep = own == best
        rep_at = {int(own[j]): phis[j] for j in np.flatnonzero(is_rep)}
        self._rep: dict[Endomorphism, Endomorphism] = {}
        self._conj: dict[Endomorphism, Transformation] = {}
        members: dict[Endomorphism, set[Endomorphism]] = {}
        for el, b, k in zip(phis, best.tolist(), conj.tolist()):
            rep = rep_at[b]
            self._rep[el] = rep
            self._conj[el] = perms[k]
            members.setdefault(rep, set()).add(el)
        self.representatives: tuple[Endomorphism, ...] = tuple(
            sorted(members, key=Endomorphism.sort_key)
        )
        self._members = {rep: frozenset(els) for rep, els in members.items()}

        # Stab(rep) as an array of image words, in lexicographic order.
        stab: dict[Endomorphism, list[tuple[int, ...]]] = {}
        for g, fixed in zip(perms, fixers):
            for j in fixed[is_rep[fixed]].tolist():
                stab.setdefault(phis[j], []).append(g.word)
        self._stab = {rep: np.array(ws) for rep, ws in stab.items()}

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
