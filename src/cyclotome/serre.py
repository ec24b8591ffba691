"""Graded dimensions of the quantum Serre quotient by exact rank computation.

The free algebra on generators E_1..E_n is graded by multidegree; the degree
slice of the two-sided ideal generated by the quantum Serre elements is a
matrix over Z[t] (the generators' t-denominators are cleared once), whose rank
over the fraction field is computed by a sparse, lazily scaled form of
Bareiss's fraction-free elimination: these matrices are mostly zero, and only
rows nonzero in a pivot column are touched.  Each slice is spanned by its
generators and by E_i r, r E_i for r in a basis of a slice one letter below;
the pivot rows of that slice's elimination are that basis.  Its columns are
the words that occur in its rows, sorted, then empty ones up to the number of
words of its content.  Slices whose supports, labelled by multiplicity, are
isomorphic are images of one another under a renaming of letters, so only
the first of each class is eliminated.  The quotient's graded dimension must
match the Kostant partition count in every degree; specializing t could drop
rank, so nothing here ever leaves Z[t].  Most of the arithmetic is a product
by a constant or a division by 1, which skip the general loops.
"""

from __future__ import annotations

from itertools import compress, zip_longest
from math import factorial, prod

from .quiver import DynkinQuiver, cartan_entry

#: The largest total degree serre_quotient_dims accepts.
MAX_DEGREE = 7


class DegreeTooLargeError(ValueError):
    pass


# -- dense Z[t] polynomials as trimmed tuples ------------------------------------

def ptrim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def psub(a, b):
    return ptrim([x - y for x, y in zip_longest(a, b, fillvalue=0)])


def pmul(a, b):
    if not a or not b:
        return ()
    if len(a) == 1 and a[0] and b[-1]:  # a nonzero constant times a trimmed polynomial
        return tuple(a[0] * y for y in b)
    if len(b) == 1 and b[0] and a[-1]:
        return tuple(x * b[0] for x in a)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return ptrim(out)


def pdivexact(a, b):
    """Exact division in Z[t]; raises if the division leaves a remainder."""
    if b and b[-1] == 0:
        b = ptrim(b)
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return ()
    if b == (1,) and a[-1]:
        return tuple(a)
    rem = list(a)
    out = [0] * (len(a) - len(b) + 1)
    lead = b[-1]
    for k in range(len(a) - len(b), -1, -1):
        coeff = rem[k + len(b) - 1]
        if coeff % lead:
            raise ArithmeticError("inexact polynomial division")
        q = coeff // lead
        out[k] = q
        if q:
            for j, y in enumerate(b):
                rem[k + j] -= q * y
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return ptrim(out)


def bareiss_rank(rows) -> list[int]:
    """Indices of a basis of the rows of a Z[t] matrix over Q(t); their count is its rank.

    ``rows`` is a dense list of rows of Z[t] tuples; a zero may be ``()`` or
    untrimmed; only nonempty cells are read.  The indices are those of the
    pivot rows, in pivot order: the elimination only subtracts pivot rows from
    other rows, so the input rows at these indices span all the others.  This
    is Bareiss's elimination (E. H. Bareiss, *Sylvester's identity and
    multistep integer-preserving Gaussian elimination*, Math. Comp. 22 (1968))
    on rows kept as ``{col: poly}``.  A row written at step k holds
    (k+1)-minors of the input and p_k, the k-th pivot (p_0 = 1), is a k-minor,
    so each division below is exact and checked by ``pdivexact``.

    Columns are taken in order; the pivot is the candidate row with the fewest
    nonzeros, and only rows nonzero in the pivot column are updated.  Dense
    Bareiss would scale every other row by p_k / p_(k-1) at step k; those
    factors telescope, so a row last written at step s is left as it is and
    its next update divides once by p_s:

        r[c] <- (p_(k+1) r[c] - r[col] prow[c]) / p_s,

    a product with an absent factor dropped.  A pivot row last written at
    step s < k is first brought to step k by multiplying with p_k / p_s.
    """
    live, step, by_col = {}, {}, {}
    for i, row in enumerate(rows):
        r = {c: p for c, x in compress(enumerate(row), row) if (p := x if x[-1] else ptrim(x))}
        if r:
            live[i], step[i] = r, 0
            for c in r:
                by_col.setdefault(c, set()).add(i)
    pivots, chosen = [(1,)], []
    for col in sorted(by_col):
        if not by_col[col]:
            continue
        i = min(by_col[col], key=lambda j: (len(live[j]), j))
        prow = live.pop(i)
        for c in prow:
            by_col[c].discard(i)
        k = len(pivots) - 1
        if step[i] < k:
            scale, ps = pivots[k], pivots[step[i]]
            prow = {c: pdivexact(pmul(x, scale), ps) for c, x in prow.items()}
        pv = prow.pop(col)
        for j in sorted(by_col[col]):
            r = live[j]
            arc = r.pop(col)
            ps = pivots[step[j]]
            new = {}
            for c, x in r.items():
                if c not in prow:
                    new[c] = pdivexact(pmul(pv, x), ps)
                elif num := psub(pmul(pv, x), pmul(arc, prow[c])):
                    new[c] = pdivexact(num, ps)
                else:
                    by_col[c].discard(j)
            neg = tuple(-y for y in arc)
            for c in prow.keys() - r.keys():
                new[c] = pdivexact(pmul(neg, prow[c]), ps)
                by_col[c].add(j)
            live[j], step[j] = new, k + 1
        pivots.append(pv)
        chosen.append(i)
    return chosen


# -- the quantum Serre ideal slice --------------------------------------------------

def serre_generators(quiver: DynkinQuiver):
    """The q-Serre elements with denominators cleared, as {word: Z[t] tuple}.

    Non-adjacent i, j: E_i E_j - E_j E_i.  Adjacent: t (E_i^2 E_j - [2]_t
    E_i E_j E_i + E_j E_i^2), the divided-power form scaled by t [2]_t, so the
    middle coefficient -(t + t^-1) becomes -(1 + t^2).
    """
    gens = []
    for i in quiver.vertices:
        for j in quiver.vertices:
            if i == j:
                continue
            if cartan_entry(quiver, i, j) == 0:
                gens.append({(i, j): (1,), (j, i): (-1,)})
            else:
                gens.append({(i, i, j): (0, 1), (i, j, i): (-1, 0, -1), (j, i, i): (0, 1)})
    return gens


def _multidegrees(n, total):
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _multidegrees(n - 1, total - first):
            yield (first,) + rest


def _rooted(quiver, beta, v, parent):
    """(code, preorder) of the support subtree at v away from parent: the code
    is (beta_v, sorted child codes), and the children come in code order."""
    kids = sorted(_rooted(quiver, beta, w, v) for w in quiver.neighbours[v] if w != parent and beta[w - 1])
    return (beta[v - 1], tuple(c for c, _ in kids)), (v,) + sum((o for _, o in kids), ())


def _shape(quiver, beta):
    """(key, order): two keys are equal exactly when the supports, labelled by
    beta, are isomorphic, and zipping their orders is such an isomorphism.
    Each component is rooted where its code is least (Aho, Hopcroft and
    Ullman, *The Design and Analysis of Computer Algorithms* (1974), 3.2)."""
    trees = []
    for v in quiver.vertices:
        if beta[v - 1] and not any(v in order for _, order in trees):
            trees.append(min(_rooted(quiver, beta, u, 0) for u in _rooted(quiver, beta, v, 0)[1]))
    trees.sort()
    return tuple(c for c, _ in trees), sum((o for _, o in trees), ())


def serre_quotient_dims(quiver: DynkinQuiver, maxdeg: int) -> dict[tuple[int, ...], int]:
    """Graded dimension of the free algebra mod the q-Serre ideal, per multidegree.

    Returns {beta: dim} for every multidegree with 1 <= |beta| <= maxdeg.
    The ideal I is generated in degree at least 2, so with gens_beta the
    generators of content beta,

        I_beta = span(gens_beta) + sum_i (E_i I_(beta-alpha_i) + I_(beta-alpha_i) E_i).

    Degrees are taken in increasing total degree, and each slice keeps, as
    {word: poly}, the rows at the pivot indices bareiss_rank returns: a basis
    of I_beta.  Every row is one u * gen * w, so it holds its generator's 2
    or 3 coefficients and is never zero.  The rows go to bareiss_rank dense,
    over the |beta|! / prod(beta_i!) words of content beta: first those that
    occur in the rows, in lexicographic order, then empty columns.

    Each u * gen * w of content beta has its letters in supp beta, and a
    Serre element's coefficients depend only on whether its letters are
    adjacent; so a bijection phi: supp beta -> supp beta' keeping adjacency
    and beta'_phi(i) = beta_i maps I_beta onto I_beta' exactly.  Only the
    first beta of each _shape key is eliminated; a later one renames the
    first's kept rows by phi, a basis of its slice, and copies its dimension.
    """
    if maxdeg > MAX_DEGREE:
        raise DegreeTooLargeError(f"total degree {maxdeg} exceeds cap {MAX_DEGREE}")
    kept: dict[tuple[int, ...], list] = {}
    for gen in serre_generators(quiver):
        word = next(iter(gen))
        kept.setdefault(tuple(map(word.count, quiver.vertices)), []).append(gen)
    out: dict[tuple[int, ...], int] = {}
    shapes = {}
    for total in range(1, maxdeg + 1):
        for beta in _multidegrees(quiver.n, total):
            key, order = _shape(quiver, beta)
            rep, rep_order = shapes.setdefault(key, (beta, order))
            if rep != beta:  # its own generators lie in the renamed span
                rename = dict(zip(rep_order, order)).__getitem__
                kept[beta] = [{tuple(map(rename, w)): p for w, p in r.items()} for r in kept[rep]]
                out[beta] = out[rep]
                continue
            below = [
                (i, r) for i in quiver.vertices
                for r in kept.get(beta[:i - 1] + (beta[i - 1] - 1,) + beta[i:], ())
            ]
            # E_i r first: in lexicographic column order each fills only the
            # words that start with i, and ties in the pivot choice go to the
            # earlier row, so the elimination fills in less.
            rows = [{(i,) + w: p for w, p in r.items()} for i, r in below]
            rows += [{w + (i,): p for w, p in r.items()} for i, r in below]
            rows += kept.pop(beta, [])
            col = {w: c for c, w in enumerate(sorted({w for r in rows for w in r}))}
            n_words = factorial(total) // prod(map(factorial, beta))
            dense = [[()] * n_words for _ in rows]
            for row, r in zip(dense, rows):
                for w, p in r.items():
                    row[col[w]] = p
            pivots = bareiss_rank(dense)
            kept[beta] = [rows[k] for k in pivots]
            out[beta] = n_words - len(pivots)
    return out
