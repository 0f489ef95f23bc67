"""The action of End(T_n) on T_n as arrays, read from the definition of
each element rather than from its product.

A map x of T_n is held as its code, the base-n number of its image word
(``word_codes``), so the codes 0, 1, ..., n^n - 1 list T_n in word order.
``act(words)`` holds A[α, x], the code of α(x), for every element α of
``elements(n)`` and each given x, by the rule of α's kind:

* aut(g) conjugates x by g;
* phi(t, e) sends x to e, t or t^2 as x is a non-permutation, an odd or
  an even permutation;
* each of the 24 sigma4 at n = 4 goes through ``apply``.

T_n is generated by ``generators(n)``, so an endomorphism is fixed by its
values on them, its signature, and ``composition_table`` builds the
product table from signatures.  On the dense A over T_n (``action_matrix``,
20 MB at n = 5) the tests run ``check_homomorphisms``, which proves every
listed element an endomorphism, and ``product_mismatches``, which checks
every cell of a table.  This module reads nothing of the symbolic product
(``multiply``, ``star_map``) or of the modules built on it.
"""

from __future__ import annotations

import numpy as np

from .endomorphisms import apply, elements, singular_words
from .errors import VerificationError
from .transformations import (
    BLOCK_ROWS,
    MAX_TABLE_DEGREE,
    Transformation,
    all_words,
    check_capacity,
    conjugate_words,
    generators,
    permutation_parity,
    word_codes,
)


def _codes(maps) -> np.ndarray:
    return word_codes(np.array([s.word for s in maps], dtype=np.int64))


def _classes(words: np.ndarray) -> np.ndarray:
    """Each row of image words as 0 (a non-permutation), 1 (odd) or 2 (even)."""
    n = words.shape[1]
    perms = np.flatnonzero((np.sort(words, axis=1) == np.arange(n)).all(axis=1))
    classes = np.zeros(len(words), dtype=np.intp)
    classes[perms] = [
        1 if permutation_parity(Transformation(w)) == "odd" else 2
        for w in map(tuple, words[perms].tolist())
    ]
    return classes


def act(words: np.ndarray) -> np.ndarray:
    """A[α, x]: the code of α(x), for α in ``elements(n)`` and each row x
    of ``words``, image words of degree n."""
    n = words.shape[1]
    els = elements(n)
    matrix = np.empty((len(els), len(words)), dtype=np.min_scalar_type(n**n - 1))
    t, e = (w.astype(np.intp) for w in singular_words(n))
    t2 = np.take_along_axis(t, t, axis=1)
    codes = np.stack([word_codes(e), word_codes(t), word_codes(t2)], axis=1)
    matrix[[el.is_phi for el in els]] = codes.astype(matrix.dtype)[:, _classes(words)]
    for i, el in enumerate(els):
        if el.is_aut:
            matrix[i] = word_codes(conjugate_words(words, el.g))
        elif el.is_sigma4:
            maps = map(Transformation, map(tuple, words.tolist()))
            matrix[i] = _codes(apply(el, x) for x in maps)
    return matrix


def action_matrix(n: int) -> np.ndarray:
    """``act`` on every x in T_n, in code order."""
    check_capacity(n, MAX_TABLE_DEGREE, "the dense action matrix")
    return act(all_words(n))


def _composition(n: int) -> np.ndarray:
    """R[u, v]: the code of the product uv (x -> (x u) v) of the maps with
    codes u and v."""
    words = all_words(n).astype(np.intp)
    powers = n ** np.arange(n - 1, -1, -1)
    table = np.empty((len(words), len(words)), dtype=np.min_scalar_type(n**n - 1))
    for start in range(0, len(words), BLOCK_ROWS):
        block = words[start:start + BLOCK_ROWS]
        # words[v, block[u, k]] is v applied after u at the point k.
        table[start:start + BLOCK_ROWS] = (words[:, block] @ powers).T
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
        for start in range(0, len(els), BLOCK_ROWS):
            rows = matrix[start:start + BLOCK_ROWS]
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
    for start in range(0, table.shape[1], BLOCK_ROWS):
        columns = np.arange(start, min(start + BLOCK_ROWS, table.shape[1]))
        cell = signatures[table[:, columns]]
        composed = matrix[columns[None, :, None], signatures[:, None, :]]
        rows, cols = np.nonzero((cell != composed).any(axis=2))
        found.append(np.stack([rows, columns[cols]], axis=1))
    return np.concatenate(found)


def composition_table(n: int) -> np.ndarray:
    """T[α, β]: the index in ``elements(n)`` of α then β, in ``uint16``.

    α then β has the signature β(α(g)), so ``act`` runs only on the codes
    that signatures use (635 at n = 5).  A φ column depends on α only
    through the classes of α's signature: it is filled once per pattern.
    Two elements with one signature, or a product that is no listed
    element, raise ``VerificationError``.
    """
    check_capacity(n, MAX_TABLE_DEGREE, "product table construction")
    els, words = elements(n), all_words(n)
    signatures = act(words[_codes(generators(n))])
    codes, slots = np.unique(signatures, return_inverse=True)
    slots, width = slots.reshape(signatures.shape), len(codes)
    # Each code's column among ``codes``, or ``width`` if no signature uses it.
    column = np.full(n**n, width, dtype=np.min_scalar_type(width))
    column[codes] = np.arange(width)
    images = column[act(words[codes])]

    def refuse(what: str, a: int, b: int):
        raise VerificationError(what, counterexample=(els[a].key(), els[b].key()))

    # A dense lookup: levels[k][p, c] numbers a signature's first k + 1
    # columns by p, the number of its first k, and c, its column k; the last
    # level gives the element.  -1 is none, and last rows and columns of -1
    # pass on a -1 from the level before and the column ``width``.
    levels, number = [], np.zeros(len(els), dtype=np.intp)
    for k in range(slots.shape[1]):
        shape = (number.max() + 2, width + 1)
        level = np.full(shape, -1, dtype=np.min_scalar_type(-len(els)))
        values = np.arange(len(els))
        if k < slots.shape[1] - 1:
            _, values = np.unique(number * width + slots[:, k], return_inverse=True)
        level[number, slots[:, k]] = values
        levels.append(level)
        number = level[number, slots[:, k]].astype(np.intp)
    # Read back, the last level keeps one of two elements with one signature.
    shared = np.flatnonzero(number != np.arange(len(els)))
    if len(shared):
        refuse("two elements have one signature", shared[0], number[shared[0]])

    def products(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        number = np.zeros((len(rows), len(cols)), dtype=np.intp)
        for k, level in enumerate(levels):
            number = level[number, images[cols, slots[rows, k, None]]]
        if (number < 0).any():
            r, c = np.argwhere(number < 0)[0]
            refuse("a product is not a listed element", rows[r], cols[c])
        return number

    phis = np.flatnonzero([el.is_phi for el in els])
    others = np.setdiff1d(np.arange(len(els)), phis)
    key = _classes(words[codes])[slots] @ 3 ** np.arange(slots.shape[1])
    _, first, pattern = np.unique(key, return_index=True, return_inverse=True)
    by_pattern = products(first, phis)
    table = np.empty((len(els), len(els)), dtype=np.uint16)
    for start in range(0, len(els), BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, len(els))
        table[start:stop, others] = products(np.arange(start, stop), others)
        table[start:stop, phis] = by_pattern[pattern[start:stop]]
    return table
