"""Sparse integer vectors: finitely supported dicts {key: coefficient}.

A vector is canonical when its zero entries are dropped and its keys are in
sorted order; canonical vectors compare, print and hash deterministically.
This module imports nothing else from the package.
"""

from __future__ import annotations

import operator


def canon(vec: dict) -> dict:
    """The canonical form: sorted keys, int coefficients (a float, even 0.0,
    raises TypeError), no zeros."""
    return {k: i for k, c in sorted(vec.items()) if (i := operator.index(c))}


def canonical_order(vecs) -> list[dict]:
    """Sort sparse vectors deterministically (by their sorted item tuples)."""
    return [dict(items) for items in sorted(tuple(canon(v).items()) for v in vecs)]


def add(*vecs: dict) -> dict:
    """The canonical sum of any number of vectors."""
    out: dict = {}
    for vec in vecs:
        for k, c in vec.items():
            out[k] = out.get(k, 0) + c
    return canon(out)


def sub(a: dict, b: dict) -> dict:
    """a - b with zeros dropped, keys in a's order then b's."""
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) - c
    return {k: c for k, c in out.items() if c}


def scale(vec: dict, m: int) -> dict:
    """m * vec with zeros dropped."""
    return {k: c * m for k, c in vec.items() if c * m}
