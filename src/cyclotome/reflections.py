"""Explicit matrix representations and a brute-force Hom oracle.

Indecomposables are built from simples by unwinding reflection functors
(Bernstein, Gelfand and Ponomarev) in the sinks-first order of
quiver.height_function; equal heights are never adjacent, so their reflections
commute.  Each step replaces the space at a source by the cokernel of its
out-map, read off one row reduction of its columns.  Hom dimensions are the
nullities of the intertwiner systems ``phi_t M_h = N_h phi_s``.  Sharing only
the reflection order with derived.py, never its Euler-form Hom formula, this
checks that formula independently (Ext^1 on the shift-one gap is hom - <,>,
exact because the category is hereditary).
"""

from __future__ import annotations

from .derived import ARQuiver, DerivedObject
from .quiver import DynkinQuiver, euler_form, height_function


class ReflectionWalkError(RuntimeError):
    """The reflection walk lost admissibility, did not terminate, or rebuilt
    the wrong quiver or dimension vector; signals an internal bug."""


def _reflect_arrows(arrows, k):
    return tuple((t, s) if s == k or t == k else (s, t) for s, t in arrows)


def _reflect_root(quiver: DynkinQuiver, beta: tuple[int, ...], k: int) -> tuple[int, ...]:
    adj = sum(beta[j - 1] for j in quiver.vertices if quiver.adjacent(j, k))
    out = list(beta)
    out[k - 1] = adj - beta[k - 1]
    return tuple(out)


class Rep:
    """A representation: dims per vertex, one matrix per arrow (rows x cols = target x source)."""

    def __init__(self, arrows, dims, maps):
        self.arrows = tuple(arrows)
        self.dims = dict(dims)
        self.maps = dict(maps)


def _zero_matrix(rows, cols):
    return tuple(tuple(0 for _ in range(cols)) for _ in range(rows))


def _simple_rep(arrows, n, j) -> Rep:
    dims = {i: (1 if i == j else 0) for i in range(1, n + 1)}
    maps = {(s, t): _zero_matrix(dims[t], dims[s]) for s, t in arrows}
    return Rep(arrows, dims, maps)


def _rref(rows):
    """Row-reduce over Q; returns (reduced rows, pivot column list).

    Entries are ints or Fractions.  A pivot of -1 is its own inverse, so it
    keeps ints as ints and needs no ``fractions`` import.  Each pivot step
    reads the nonzero columns of the pivot row once and updates only those
    columns of the rows it clears.
    """
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        support = [j for j in range(c, ncols) if prow[j] != 0]
        pv = prow[c]
        if pv != 1:
            inv = -1  # the inverse of -1; rows of ints stay ints
            if pv != -1:
                from fractions import Fraction  # an int pivot of size 2 or more, or a Fraction
                inv = Fraction(1) / pv
            for j in support:
                prow[j] *= inv
        for i, row in enumerate(rows):
            f = row[c]
            if f != 0 and i != r:
                for j in support:
                    row[j] -= f * prow[j]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def matrix_rank(rows) -> int:
    return len(_rref(rows)[0])


def _cokernel_projection(f_columns, dim_total):
    """A (dim_total - r) x dim_total matrix whose kernel is the span of the columns.

    One row per free coordinate j of the columns' reduced form: 1 at j and minus
    column j's reduced entries at the pivots.  The rows are independent and
    vanish on every column, so their common kernel is exactly the span.
    """
    reduced, pivots = _rref(f_columns)
    rows = []
    for j in (c for c in range(dim_total) if c not in pivots):
        row = [int(i == j) for i in range(dim_total)]
        for p, red in zip(pivots, reduced):
            row[p] = -red[j]
        rows.append(tuple(row))
    return tuple(rows)


def _reflect_source_minus(rep: Rep, k: int) -> Rep:
    """C_k^- at a source k: replace the space at k by the cokernel of the out-map."""
    if any(t == k for _, t in rep.arrows):
        raise ValueError(f"vertex {k} is not a source")
    targets = sorted(t for s, t in rep.arrows if s == k)
    stacked = [row for t in targets for row in rep.maps[(k, t)]]  # f: M_k -> (+) M_t
    proj = _cokernel_projection(list(zip(*stacked)), len(stacked))
    maps = {arrow: mat for arrow, mat in rep.maps.items() if arrow[0] != k}
    offset = 0
    for t in targets:
        maps[(t, k)] = tuple(row[offset:offset + rep.dims[t]] for row in proj)
        offset += rep.dims[t]
    return Rep(_reflect_arrows(rep.arrows, k), {**rep.dims, k: len(proj)}, maps)


def indecomposable_rep(quiver: DynkinQuiver, root: tuple[int, ...]) -> Rep:
    """Explicit matrices for the indecomposable with the given positive root."""
    n = quiver.n
    seq = sorted(quiver.vertices, key=height_function(quiver).__getitem__)
    arrows = tuple(quiver.arrows)
    beta = tuple(root)
    steps = []  # (vertex, arrows before the reflection)
    t = 0
    cap = n * (quiver.coxeter_number + 2)
    while sum(beta) > 1:
        k = seq[t % n]
        if any(s == k for s, _ in arrows):
            raise ReflectionWalkError("sequence lost admissibility")
        beta_new = _reflect_root(quiver, beta, k)
        if any(x < 0 for x in beta_new):
            raise ValueError(f"{root} is not a positive root")
        # Reflect even when beta is fixed; the functor is an equivalence away
        # from S_k and the sink sequence stays admissible only if we do.
        steps.append((k, arrows))
        arrows = _reflect_arrows(arrows, k)
        beta = beta_new
        t += 1
        if t > cap:
            raise ReflectionWalkError(f"reflection walk did not terminate for {root}")
    j = beta.index(1) + 1
    rep = _simple_rep(arrows, n, j)
    for k, arrows_before in reversed(steps):
        rep = _reflect_source_minus(rep, k)
        if rep.arrows != tuple(arrows_before):
            raise ReflectionWalkError(f"unwinding {root} rebuilt the wrong arrows")
    if tuple(rep.dims[i] for i in quiver.vertices) != tuple(root):
        raise ReflectionWalkError(f"unwinding {root} gave dims {rep.dims}")
    return rep


def hom_space_dim(m: Rep, n_: Rep) -> int:
    """Nullity of the intertwiner system for Hom(M, N)."""
    verts = sorted(m.dims)
    unknown_offset = {}
    total = 0
    for v in verts:
        unknown_offset[v] = total
        total += n_.dims[v] * m.dims[v]
    rows = []
    for (s, t) in m.arrows:
        a = m.maps[(s, t)]   # dims: (m_t, m_s)
        b = n_.maps[(s, t)]  # dims: (n_t, n_s)
        # phi_t a - b phi_s = 0, one scalar equation per (r, c) in (n_t, m_s)
        for r in range(n_.dims[t]):
            for c in range(m.dims[s]):
                row = [0] * total
                for k in range(m.dims[t]):  # phi_t[r][k] * a[k][c]
                    if a[k][c] != 0:
                        row[unknown_offset[t] + r * m.dims[t] + k] += a[k][c]
                for k in range(n_.dims[s]):  # -b[r][k] * phi_s[k][c]
                    if b[r][k] != 0:
                        row[unknown_offset[s] + k * m.dims[s] + c] -= b[r][k]
                if any(x != 0 for x in row):
                    rows.append(row)
    return total - matrix_rank(rows)


def hom_dim_bruteforce(ar: ARQuiver, x: DerivedObject, y: DerivedObject) -> int:
    """Independent Hom oracle; agrees with ARQuiver.hom_dim on all inputs.

    Keeps each root's representation on ar under ("rep", root), and the
    intertwiner nullity that both gaps read under ("hom", rx, ry)."""
    gap = y.shift - x.shift
    if gap not in (0, 1):
        return 0
    rx = ar.root_of[x.slot]
    ry = ar.root_of[y.slot]
    hom = ar.stored(("hom", rx, ry), _root_pair_hom, ar, rx, ry)
    if gap == 0:
        return hom
    return hom - euler_form(ar.quiver, rx, ry)


def _root_pair_hom(ar: ARQuiver, rx: tuple[int, ...], ry: tuple[int, ...]) -> int:
    reps = [ar.stored(("rep", r), indecomposable_rep, ar.quiver, r) for r in (rx, ry)]
    return hom_space_dim(*reps)
