"""The action of End(T_n) on T_n as arrays, read from the definition of
each element rather than from its product.

A map x of T_n is held as its code, the base-n number of its image word
(``word_codes``), so the codes 0, 1, ..., n^n - 1 list T_n in word order.
``action_matrix(n)`` holds A[α, x], the code of α(x), for every element α
of ``elements(n)`` and every x in T_n, by the rule of α's kind:

* aut(g) conjugates x by g;
* phi(t, e) sends x to e, t or t^2 as x is a non-permutation, an odd or
  an even permutation;
* each of the 24 sigma4 at n = 4 goes through ``apply``.

``check_homomorphisms`` proves from A that every listed element is an
endomorphism of T_n.  Since T_n is generated by ``generators(n)``, an
endomorphism is then fixed by its values on them, which is what
``product_mismatches`` compares for every cell of a product table.

The matrix is dense (20 MB at n = 5), so it is built only up to the
product table's degree.  This module reads nothing of the symbolic
product (``multiply``, ``star_map``) or of the modules built on it.
"""

from __future__ import annotations

import numpy as np

from .endomorphisms import apply, elements, singular_words
from .errors import VerificationError
from .transformations import (
    MAX_TABLE_DEGREE,
    Transformation,
    all_words,
    check_capacity,
    conjugate_words,
    enumerate_all,
    generators,
    permutation_parity,
    word_codes,
)

# Rows or columns per step of each array pass: bounds the temporaries to
# a few MB at n = 5.
_BLOCK = 64


def _codes(maps) -> np.ndarray:
    return word_codes(np.array([s.word for s in maps], dtype=np.int64))


def action_matrix(n: int) -> np.ndarray:
    """A[α, x]: the code of α(x), for α in ``elements(n)`` and x in T_n
    in code order."""
    check_capacity(n, MAX_TABLE_DEGREE, "the dense action matrix")
    els = elements(n)
    words = all_words(n)
    matrix = np.empty((len(els), len(words)), dtype=np.min_scalar_type(n**n - 1))
    perms = np.flatnonzero((np.sort(words, axis=1) == np.arange(n)).all(axis=1))
    # The class of each x: 0 a non-permutation, 1 odd, 2 even.
    classes = np.zeros(len(words), dtype=np.intp)
    classes[perms] = [
        1 if permutation_parity(Transformation(w)) == "odd" else 2
        for w in map(tuple, words[perms].tolist())
    ]
    phis = [i for i, el in enumerate(els) if el.is_phi]
    if phis:
        t, e = (w.astype(np.intp) for w in singular_words(n))
        t2 = np.take_along_axis(t, t, axis=1)
        matrix[phis] = np.stack(
            [word_codes(e), word_codes(t), word_codes(t2)], axis=1
        )[:, classes]
    for i, el in enumerate(els):
        if el.is_aut:
            matrix[i] = word_codes(conjugate_words(words, el.g))
        elif el.is_sigma4:
            matrix[i] = _codes(apply(el, x) for x in enumerate_all(n))
    return matrix


def _composition(n: int) -> np.ndarray:
    """R[u, v]: the code of the product uv (x -> (x u) v) of the maps with
    codes u and v."""
    words = all_words(n).astype(np.intp)
    powers = n ** np.arange(n - 1, -1, -1)
    table = np.empty((len(words), len(words)), dtype=np.min_scalar_type(n**n - 1))
    for start in range(0, len(words), _BLOCK):
        block = words[start:start + _BLOCK]
        # words[v, block[u, k]] is v applied after u at the point k.
        table[start:start + _BLOCK] = (words[:, block] @ powers).T
    return table


def check_homomorphisms(n: int) -> int:
    """Check A[α, xg] = A[α, x] A[α, g] for every element α, every x in
    T_n and every generator g, and return the number of checks.

    By induction on the length of x as a word in the generators, this
    proves that every element of ``elements(n)`` is an endomorphism of
    T_n.  The first failure raises ``VerificationError``.
    """
    matrix = action_matrix(n)
    product = _composition(n)
    els = elements(n)
    for g, code in zip(generators(n), _codes(generators(n))):
        times_g = product[:, code]
        for start in range(0, len(els), _BLOCK):
            rows = matrix[start:start + _BLOCK]
            bad = rows[:, times_g] != product[rows, rows[:, [code]]]
            if bad.any():
                i, x = np.argwhere(bad)[0]
                x = Transformation(tuple(all_words(n)[x].tolist()))
                raise VerificationError(
                    "an element does not act as a homomorphism",
                    counterexample=(els[start + i].key(), x.to_text(), g.to_text()),
                )
    return matrix.size * len(generators(n))


def product_mismatches(table: np.ndarray, n: int) -> np.ndarray:
    """The cells (α, β) of a product table of ``elements(n)`` where
    table[α, β] differs from α then β on some generator, read from the
    action matrix as A[table[α, β], g] against A[β, A[α, g]].

    With ``check_homomorphisms(n)``, no mismatch proves that every cell is
    the composition of its row and column element.
    """
    matrix = action_matrix(n)
    signatures = matrix[:, _codes(generators(n))]
    found = []
    for start in range(0, table.shape[1], _BLOCK):
        columns = np.arange(start, min(start + _BLOCK, table.shape[1]))
        cell = signatures[table[:, columns]]
        composed = matrix[columns[None, :, None], signatures[:, None, :]]
        rows, cols = np.nonzero((cell != composed).any(axis=2))
        found.append(np.stack([rows, columns[cols]], axis=1))
    return np.concatenate(found)
