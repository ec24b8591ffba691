"""Explicit matrix representations and a brute-force Hom oracle.

Indecomposables are built from simples by unwinding reflection functors
(Bernstein, Gelfand and Ponomarev) in the sinks-first order of
quiver.height_function; equal heights are never adjacent, so their reflections
commute.  Each step replaces the space at a source by the cokernel of its
out-map, read off one row reduction of its columns.  Hom and Ext^1 are the
nullity and the corank of one intertwiner map, (phi_v)_v -> (phi_t M_a -
N_a phi_s)_a over the arrows a: s -> t, by the standard resolution
0 -> Hom(M, N) -> (+)_v Hom(M_v, N_v) -> (+)_a Hom(M_s, N_t) -> Ext^1(M, N) -> 0.
Sharing only the reflection order with derived.py and no Euler form at all,
this checks derived.py's closed Hom formula independently.
"""

from __future__ import annotations

from .derived import ARQuiver, DerivedObject
from .quiver import DynkinQuiver, height_function


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
    """A representation: dims per vertex and, per arrow, the nonzero entries
    {(row, col): value} of its matrix (rows x cols = target x source)."""

    def __init__(self, arrows, dims, maps):
        self.arrows = tuple(arrows)
        self.dims = dict(dims)
        self.maps = dict(maps)


def _simple_rep(arrows, n, j) -> Rep:
    dims = {i: (1 if i == j else 0) for i in range(1, n + 1)}
    return Rep(arrows, dims, {arrow: {} for arrow in arrows})


def _subtract(row, f, pivot):
    """row -= f * pivot in place, on {column: value} dicts that hold no zero."""
    for c, y in pivot.items():
        z = row.get(c, 0) - f * y
        if z:
            row[c] = z
        else:
            del row[c]


def _eliminate(rows):
    """Row-reduce over Q: the echelon basis {lead: row} of the rows' span.

    Rows are {column: value} dicts with no zero value, reduced in place; a
    row's lead is its smallest column.  Each incoming row is reduced only
    against the basis rows at its leads, and joins the basis, its lead scaled
    to 1, at the first lead no basis row has.  A lead of -1 is its own
    inverse, so it keeps ints as ints and needs no ``fractions`` import.
    """
    basis = {}
    for row in rows:
        while row:
            lead = min(row)
            pivot = basis.get(lead)
            if pivot is not None:
                _subtract(row, row[lead], pivot)
                continue
            x = row[lead]
            if x != 1:
                inv = -1  # the inverse of -1; rows of ints stay ints
                if x != -1:
                    from fractions import Fraction  # an int lead of size 2 or more, or a Fraction
                    inv = Fraction(1) / x
                for c in row:
                    row[c] *= inv
            basis[lead] = row
            break
    return basis


def _back_substitute(basis):
    """The reduced row echelon form of an echelon basis, in place: each row
    is cleared at the later leads, whose rows are already reduced."""
    for p in sorted(basis, reverse=True):
        row = basis[p]
        for q in [q for q in row if q != p and q in basis]:
            _subtract(row, row[q], basis[q])
    return basis


def matrix_rank(rows) -> int:
    """The rank over Q of a matrix given as a list of rows."""
    return len(_eliminate({c: x for c, x in enumerate(row) if x} for row in rows))


def _cokernel_projection(columns, dim_total):
    """Rows {coordinate: value} whose common kernel in Q^dim_total is the span
    of the columns, given as {coordinate: value} dicts and reduced in place.

    One row per free coordinate j of the columns' reduced form: 1 at j and minus
    column j's reduced entries at the leads.  The rows are independent and
    vanish on every column, so their common kernel is exactly the span.
    """
    reduced = _back_substitute(_eliminate(columns))
    rows = []
    for j in (j for j in range(dim_total) if j not in reduced):
        row = {j: 1}
        for p, red in reduced.items():
            if j in red:
                row[p] = -red[j]
        rows.append(row)
    return rows


def _reflect_source_minus(rep: Rep, k: int) -> Rep:
    """C_k^- at a source k: replace the space at k by the cokernel of the out-map."""
    if any(t == k for _, t in rep.arrows):
        raise ValueError(f"vertex {k} is not a source")
    targets = sorted(t for s, t in rep.arrows if s == k)
    coords = [(t, r) for t in targets for r in range(rep.dims[t])]  # of (+) M_t
    position = {coord: j for j, coord in enumerate(coords)}
    columns = [{} for _ in range(rep.dims[k])]  # f: M_k -> (+) M_t
    for t in targets:
        for (r, c), x in rep.maps[(k, t)].items():
            columns[c][position[t, r]] = x
    proj = _cokernel_projection(columns, len(coords))
    maps = {arrow: mat for arrow, mat in rep.maps.items() if arrow[0] != k}
    maps.update({(t, k): {} for t in targets})
    for i, row in enumerate(proj):
        for j, x in row.items():
            t, r = coords[j]
            maps[(t, k)][i, r] = x
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


def hom_dim_bruteforce(ar: ARQuiver, x: DerivedObject, y: DerivedObject) -> int:
    """Independent Hom oracle; agrees with ARQuiver.hom_dim on all inputs,
    refusing an object whose slot holds no module at any gap.

    Keeps each root's representation on ar under ("rep", root), and the pair
    (hom, ext) that gaps 0 and 1 read under ("hom", rx, ry)."""
    for obj in (x, y):
        if obj.slot not in ar.root_of:
            raise KeyError(f"slot {obj.slot} holds no module")
    gap = y.shift - x.shift
    if gap not in (0, 1):
        return 0
    rx, ry = ar.root_of[x.slot], ar.root_of[y.slot]
    return ar.stored(("hom", rx, ry), _hom_ext, ar, rx, ry)[gap]


def _hom_ext(ar: ARQuiver, rx: tuple[int, ...], ry: tuple[int, ...]) -> tuple[int, int]:
    """(dim Hom(M, N), dim Ext^1(M, N)) for the modules M, N of roots rx, ry.

    The unknowns are the entries of each phi_v, an n_v x m_v matrix, and each
    arrow a: s -> t gives one equation per entry of phi_t M_a - N_a phi_s, an
    n_t x m_s matrix.  One rank r of these equations gives the nullity
    unknowns - r and the corank equations - r.
    """
    m, n_ = (ar.stored(("rep", r), indecomposable_rep, ar.quiver, r) for r in (rx, ry))
    offset, unknowns = {}, 0
    for v, dim in m.dims.items():
        if dim and n_.dims[v]:
            offset[v] = unknowns
            unknowns += n_.dims[v] * dim
    rows, equations = [], 0
    for s, t in m.arrows:
        ms, mt, nt = m.dims[s], m.dims[t], n_.dims[t]
        if not ms * nt:
            continue
        equations += ms * nt
        system = [{} for _ in range(nt * ms)]  # the equation of entry (r, c) at r * ms + c
        for (k, c), x in m.maps[(s, t)].items():  # phi_t[r][k] * a[k][c]
            for r in range(nt):
                system[r * ms + c][offset[t] + r * mt + k] = x
        for (r, k), x in n_.maps[(s, t)].items():  # -b[r][k] * phi_s[k][c]
            for c in range(ms):
                system[r * ms + c][offset[s] + k * ms + c] = -x
        rows += system
    rank = len(_eliminate(rows))
    return unknowns - rank, equations - rank
