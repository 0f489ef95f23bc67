import numpy as np
import pytest

from endtn import pairs


@pytest.fixture
def extra_partner(monkeypatch):
    """``extra_partner(t, e)`` makes the pair construction list e as one
    more partner of the image word t, after t's own, so that the check of
    the batch has a bad pair to find."""

    def inject(bad_t, bad_e):
        real = pairs._partner_block

        def corrupted(t_words):
            sizes, e_words = real(t_words)
            rows = [tuple(w) for w in t_words.tolist()]
            if bad_t in rows:
                k = rows.index(bad_t)
                e_words = np.insert(e_words, sizes[: k + 1].sum(), bad_e, axis=0)
                sizes = sizes.copy()
                sizes[k] += 1
            return sizes, e_words

        monkeypatch.setattr(pairs, "_partner_block", corrupted)

    return inject
