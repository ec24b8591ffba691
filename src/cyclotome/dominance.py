"""l-dominant pairs: the W/V cones, Cartan vectors, triangular decomposition,
the module lift iota, and complete enumeration.

A pair (v, w) of nonnegative vectors (v on sigma-I-hat, w on I-hat) is
l-dominant when w - C_q v >= 0 coordinatewise; these pairs index the nonempty
strata.  For w supported on the sigma(S_i) and sigma(Sigma S_i) vertices the
full solution set factors through a triangular decomposition: a Kostant
partition on the module side, its shift image on the other side, and a free
choice of Cartan coefficients in between.  The enumerator walks that structure
and can be cross-checked against a capped brute-force search.
"""

from __future__ import annotations

import operator
from itertools import chain, compress, product

from .cyclic import CycIndex, Vertex
from .derived import Slot
from .quiver import Frozen
from .vectors import add, canon, canonical_order, scale, sub


class NotDominantError(ValueError):
    pass


class DecompositionFailureError(RuntimeError):
    pass


class NotInWPlusError(ValueError):
    pass


class UnsupportedWeightError(ValueError):
    pass


class EnumerationMismatchError(RuntimeError):
    """Structural enumerator and brute-force search disagree."""


class LiftInvariantError(RuntimeError):
    """A module lift went negative, left V+ x W^S, or missed its residual;
    signals an internal bug."""


class VWPair:
    """A pair of finitely supported nonnegative vectors (v, w).

    forms keeps what it derives from a pair, its residual and Phi(w), on the
    index, not on the pair.  The hash of the key is taken on first use and
    kept in a slot; copies and pickles rebuild from (v, w).
    """

    __slots__ = ("v", "w", "_key", "_hash")

    def __init__(self, v: dict[Vertex, int], w: dict[Vertex, int]):
        self.v = canon(v)
        self.w = canon(w)
        if any(c < 0 for c in self.v.values()) or any(c < 0 for c in self.w.values()):
            raise ValueError("VWPair entries must be nonnegative")
        self._key = (tuple(self.v.items()), tuple(self.w.items()))
        self._hash = None

    def __reduce__(self):
        return VWPair, (self.v, self.w)

    def __eq__(self, other):
        return isinstance(other, VWPair) and self._key == other._key

    def __lt__(self, other):
        if not isinstance(other, VWPair):
            return NotImplemented
        return self._key < other._key

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._key)
        return self._hash

    def __add__(self, other: "VWPair") -> "VWPair":
        return VWPair(add(self.v, other.v), add(self.w, other.w))

    def __repr__(self):
        return f"VWPair(v={self.v}, w={self.w})"

    def pretty(self, index: CycIndex) -> str:
        return f"({format_vector(index, self.v)}, {format_vector(index, self.w)})"


def format_vector(index: CycIndex, vec: dict[Vertex, int]) -> str:
    """A sparse vector as a sum of named basis vectors e[...], in sorted order."""
    if not vec:
        return "0"
    return " + ".join(
        (f"{c}*" if c != 1 else "") + f"e[{index.vertex_name(k)}]"
        for k, c in sorted(vec.items())
    )


ZERO_PAIR = VWPair({}, {})


class Cones(Frozen):
    """Basis vertices of the W/V cones and the generators of the Cartan blocks,
    each a frozenset of vertices."""

    __slots__ = _fields = ("w_plus", "v_plus", "w_s", "w_minus", "v_minus", "w_sigma_s")

    def __init__(self, w_plus, v_plus, w_s, w_minus, v_minus, w_sigma_s):
        super().__init__(w_plus, v_plus, w_s, w_minus, v_minus, w_sigma_s)


def sigma_simples(index: CycIndex, i: int) -> tuple[Vertex, Vertex]:
    """(sigma S_i, sigma Sigma S_i): the I-hat vertices of i in W^S and W^SigmaS,
    read from one table per index."""
    return index.stored("sigma simples", _build_sigma_simples, index)[i]


def _build_sigma_simples(index: CycIndex) -> dict[int, tuple[Vertex, Vertex]]:
    out = {}
    for i in index.quiver.vertices:
        s = index.vertex_of_slot[index.ar.simple[i]]
        out[i] = index.sigma(s), index.sigma(index.shift_vertex(s))
    return out


def cones(index: CycIndex) -> Cones:
    """The cones of an index, computed on first use and stored on it."""
    return index.stored("cones", _build_cones, index)


def _build_cones(index: CycIndex) -> Cones:
    ar = index.ar
    module_vertices = {index.vertex_of_slot[s] for s in ar.modules}
    shifted_vertices = set(index.sigma_i_hat) - module_vertices
    noninj = {
        index.vertex_of_slot[s] for s in ar.modules if not ar.is_injective(s)
    }
    w_plus = frozenset(index.sigma(v) for v in module_vertices)
    w_minus = frozenset(index.sigma(v) for v in shifted_vertices)
    w_s, w_sigma_s = map(
        frozenset, zip(*(sigma_simples(index, i) for i in index.quiver.vertices))
    )
    v_minus = frozenset(index.shift_vertex(v) for v in noninj)
    return Cones(w_plus, frozenset(noninj), w_s, w_minus, v_minus, w_sigma_s)


# -- Cartan vectors -------------------------------------------------------------

def w_f(index: CycIndex, i: int) -> dict[Vertex, int]:
    """w^f_i = e_{sigma S_i} + e_{sigma Sigma S_i}."""
    s, ss = sigma_simples(index, i)
    return add({s: 1}, {ss: 1})


def v_f(index: CycIndex, i: int) -> dict[Vertex, int]:
    """v^f_i: Hom dimensions from S_i into every section object (a fresh copy
    of the vector stored on the index)."""
    return dict(_stored_v_f(index, i))


def _stored_v_f(index: CycIndex, i: int) -> dict[Vertex, int]:
    """v^f_i as the index keeps it, under ("v_f", i); never to be mutated."""
    return index.stored(("v_f", i), _build_v_f, index, i)


def _build_v_f(index: CycIndex, i: int) -> dict[Vertex, int]:
    ar, si = index.ar, index.ar.simple[i]
    return canon({v: ar.hom_into(si, y) for v, y in index.section.items()})


def v_sigma_f(index: CycIndex, i: int) -> dict[Vertex, int]:
    """The shift pullback of v^f_i, built fresh from the stored v^f_i."""
    return index.shift_pullback(v_f(index, i))


# -- dominance -------------------------------------------------------------------

def validate_pair(index: CycIndex, pair: VWPair) -> VWPair:
    """Enforce the index-set discipline: v on sigma-I-hat, w on I-hat."""
    index.assert_v_vector(pair.v)
    index.assert_w_vector(pair.w)
    return pair


def residual(index: CycIndex, pair: VWPair) -> dict[Vertex, int]:
    """w - C_q v as a signed vector on I-hat."""
    index.assert_w_vector(pair.w)
    return sub(pair.w, index.q_cartan_apply(pair.v))


def is_l_dominant(index: CycIndex, pair: VWPair) -> bool:
    return all(c >= 0 for c in residual(index, pair).values())


def decompose(index: CycIndex, pair: VWPair) -> tuple[VWPair, VWPair, VWPair]:
    """Split an l-dominant pair into its positive, Cartan and negative parts.

    Requires w supported on the sigma(S_i) / sigma(Sigma S_i) vertices; the
    Cartan coefficients are read off the injective coordinates of v, and the
    three parts are themselves l-dominant with w^0 - C_q v^0 = 0.
    """
    co = cones(index)
    if any(k not in co.w_s and k not in co.w_sigma_s for k in pair.w):
        raise UnsupportedWeightError("w is not supported on W^S + W^SigmaS")
    if not is_l_dominant(index, pair):
        raise NotDominantError(f"{pair!r} is not l-dominant")

    ar = index.ar
    b, bp = {}, {}
    for i in index.quiver.vertices:
        inj_vertex = index.vertex_of_slot[ar.injective[i]]
        b[i] = pair.v.get(inj_vertex, 0)
        bp[i] = pair.v.get(index.shift_vertex(inj_vertex), 0)
    v0 = add(
        *[scale(v_f(index, i), b[i]) for i in index.quiver.vertices],
        *[scale(v_sigma_f(index, i), bp[i]) for i in index.quiver.vertices],
    )
    w0 = add(*[scale(w_f(index, i), b[i] + bp[i]) for i in index.quiver.vertices])

    diff = sub(pair.v, v0)
    v_plus = {k: c for k, c in diff.items() if k in co.v_plus}
    v_minus = {k: c for k, c in diff.items() if k in co.v_minus}
    if add(v_plus, v_minus) != canon(diff):
        raise DecompositionFailureError("v - v0 is not supported on V+ and V-")

    w_rem = sub(pair.w, w0)
    w_plus = {k: c for k, c in w_rem.items() if k in co.w_plus}
    w_minus = {k: c for k, c in w_rem.items() if k in co.w_minus}
    if add(w_plus, w_minus) != canon(w_rem):
        raise DecompositionFailureError("w - w0 left the W+ / W- supports")

    parts = []
    for vv, ww in ((v_plus, w_plus), (v0, w0), (v_minus, w_minus)):
        if any(c < 0 for c in vv.values()) or any(c < 0 for c in ww.values()):
            raise DecompositionFailureError("a component went negative")
        part = VWPair(vv, ww)
        if not is_l_dominant(index, part):
            raise DecompositionFailureError(f"component {part!r} is not l-dominant")
        parts.append(part)
    if any(residual(index, parts[1]).values()):
        raise DecompositionFailureError("Cartan part has nonzero residual")
    if parts[0] + parts[1] + parts[2] != pair:
        raise DecompositionFailureError("components do not recombine")
    return tuple(parts)


# -- the module lift -------------------------------------------------------------

def iota(index: CycIndex, slot: Slot) -> VWPair:
    """The l-dominant lift of an indecomposable module N: w - C_q v = e_{sigma N}.

    Built once per module slot from the stored v^f_i; every call returns the
    pair stored on the index.
    """
    return index.stored(("iota", slot), _build_iota, index, slot)


def _build_iota(index: CycIndex, slot: Slot) -> VWPair:
    """iota(N) for N of root sum_i c_i alpha_i: iota_W = sum_i c_i e_{sigma S_i},
    and at each module x, iota_V[x] = sum_i c_i v^f_i[x] - hom(N, x).

    This is sum_i c_i hom(tau^-1 x, S_i) - hom(tau^-1 x, N).  At a non-injective
    x, hom(tau^-1 x, M) = ext^1(M, x) (the AR formula), and <N, x> =
    sum_i c_i <S_i, x> turns the ext^1 difference into the hom one.  At an
    injective x = I_j both are 0, as tau^-1 I_j = Sigma P_j and c_j - dim N_j = 0."""
    ar = index.ar
    support = [(c, i) for i, c in enumerate(ar.root_of[slot], 1) if c]
    cartan = [(c, _stored_v_f(index, i)) for c, i in support]
    iv: dict[Vertex, int] = {}
    for x in ar.modules:
        vx = index.vertex_of_slot[x]
        val = sum(c * vf.get(vx, 0) for c, vf in cartan) - ar.hom_into(slot, x)
        if val < 0:
            raise LiftInvariantError(f"iota_V of {slot} went negative at {x}")
        if val:
            iv[vx] = val
    return VWPair(iv, {sigma_simples(index, i)[0]: c for c, i in support})


def iota_additive(index: CycIndex, multiset) -> VWPair:
    """iota summed over a multiset of module slots (iterable of (slot, mult))."""
    total = ZERO_PAIR
    for slot, mult in multiset:
        part = iota(index, slot)
        total = total + VWPair(scale(part.v, mult), scale(part.w, mult))
    return total


def solve_w_tilde(index: CycIndex, wtilde: dict[Vertex, int]) -> VWPair:
    """The unique l-dominant pair in V+ x W^S with w - C_q v = wtilde (wtilde in W+)."""
    co = cones(index)
    wtilde = canon(wtilde)
    if any(c < 0 for c in wtilde.values()) or any(k not in co.w_plus for k in wtilde):
        raise NotInWPlusError("wtilde is not a nonnegative vector in W+")
    multiset = [
        (index.section[index.sigma_inv(y)], mult) for y, mult in wtilde.items()
    ]
    pair = iota_additive(index, multiset)
    if any(k not in co.v_plus for k in pair.v):
        raise LiftInvariantError("lift left V+")
    if any(k not in co.w_s for k in pair.w):
        raise LiftInvariantError("lift left W^S")
    got = canon(residual(index, pair))
    if got != wtilde:
        raise LiftInvariantError(f"lift residual {got} != {wtilde}")
    return pair


# -- Kostant partitions ------------------------------------------------------------

def positive_roots(index: CycIndex) -> list[tuple[int, ...]]:
    return list(index.ar.slot_of_root)  # sorted, as the window keeps them


def _root_weight(index: CycIndex, beta) -> tuple[int, ...]:
    """beta as a tuple, checked to have one nonnegative entry per vertex."""
    if len(beta) != index.quiver.n or any(x < 0 for x in beta):
        raise ValueError(f"beta must be {index.quiver.n} nonnegative integers")
    return tuple(beta)


def kostant_multisets(index: CycIndex, beta: tuple[int, ...]):
    """An iterator over every multiset of positive roots summing to beta, as root
    lists, in lexicographic order of root positions.  Each recursion level
    takes one root, with its multiplicity from high to low, and hands on only
    the later roots that still fit the rest: depth <= |Phi+| + 1."""
    return _multisets(index.ar.slot_of_root, _root_weight(index, beta))


def _multisets(roots, remaining):
    if not any(remaining):
        yield []
        return
    fits = [r for r in roots if all(map(operator.le, r, remaining))]
    for k, r in enumerate(fits):
        rests = [remaining]  # rests[m] = remaining - m r
        while min(rest := tuple(map(operator.sub, rests[-1], r))) >= 0:
            rests.append(rest)
        for mult in range(len(rests) - 1, 0, -1):
            for tail in _multisets(fits[k + 1:], rests[mult]):
                yield [r] * mult + tail


def kostant_partitions(index: CycIndex, beta: tuple[int, ...]) -> int:
    """Number of multisets of positive roots summing to beta, memoised in the
    window's "kostant" table; the oracle the listing and the lifts are checked
    against, so it keeps a fit helper of its own."""
    beta = _root_weight(index, beta)
    return _count(_fitting(index.ar.slot_of_root, beta), index.ar.stored("kostant", dict), beta)


def _fitting(roots, remaining):
    return [r for r in roots if all(map(operator.le, r, remaining))]


def _count(fits, memo, remaining):
    """Multisets of ``fits``, a tail of the sorted roots that fit remaining
    (so its length names it), summing to remaining; a root that does not fit
    now never fits a smaller remainder, so each level drops it."""
    if not any(remaining):
        return 1
    if not fits:
        return 0
    key = (remaining, len(fits))
    if key not in memo:
        r = fits[0]
        total, rest = 0, remaining
        while min(rest) >= 0:
            total += _count(_fitting(fits[1:], rest), memo, rest)
            rest = tuple(map(operator.sub, rest, r))
        memo[key] = total
    return memo[key]


# -- enumeration --------------------------------------------------------------------

def _dense_order(index: CycIndex):
    """(order, position of each vertex, |V+|, by_vertex): sigma-I-hat in one
    fixed order, and the itemgetter that takes a tuple over it to sorted
    vertex order.

    V+ sorted, then V- as the shift image of V+ in the same order, then the
    injective vertices sorted and their shift images, so the shift swaps the
    first two blocks and the last two.  Kept on the index."""
    return index.stored("dense order", _build_dense_order, index)


def _build_dense_order(index: CycIndex):
    plus, inj = [], []  # V+: the non-injective module vertices
    for s in index.ar.modules:
        (inj if index.ar.is_injective(s) else plus).append(index.vertex_of_slot[s])
    plus.sort()
    inj.sort()
    shift = index.shift_vertex
    order = tuple(plus + [shift(x) for x in plus] + inj + [shift(x) for x in inj])
    by_vertex = operator.itemgetter(*sorted(range(len(order)), key=order.__getitem__))
    return order, {x: k for k, x in enumerate(order)}, len(plus), by_vertex


def _cartan_terms(index: CycIndex, i: int, c: int) -> tuple[tuple[int, ...], ...]:
    """b v^f_i + (c - b) v^Sigma f_i for b = 0..c, each a tuple in sorted
    vertex order; kept on the index under ("cartan terms", i, c)."""
    return index.stored(("cartan terms", i, c), _build_cartan_terms, index, i, c)


def _build_cartan_terms(index: CycIndex, i: int, c: int):
    if c == 1:  # (v^Sigma f_i, v^f_i): the one place they are made dense
        verts = sorted(index.sigma_i_hat)
        vecs = v_sigma_f(index, i), v_f(index, i)
        return tuple(tuple(vec.get(x, 0) for x in verts) for vec in vecs)
    vsf, vf = _cartan_terms(index, i, 1)
    return tuple(tuple(b * x + (c - b) * y for x, y in zip(vf, vsf)) for b in range(c + 1))


def _lift_row(index: CycIndex, slot: Slot) -> tuple[int, ...]:
    """iota_V of a module as a tuple over V+, kept on the index."""
    return index.stored(("lift row", slot), _build_lift_row, index, slot)


def _build_lift_row(index: CycIndex, slot: Slot) -> tuple[int, ...]:
    _, pos, p, _ = _dense_order(index)
    row = [0] * p
    for x, c in iota(index, slot).v.items():
        if pos[x] >= p:
            raise LiftInvariantError("lift left V+")
        row[pos[x]] = c
    return tuple(row)


def _module_lift_vs(index: CycIndex, beta: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All v with (v, sum beta_i e_{sigma S_i}) l-dominant, one per Kostant
    multiset, as tuples over V+ in the dense order; built once per beta and
    kept on the index.  The lift walk covers what the non-simple roots leave
    by simple roots, in one way only, so every branch ends in a lift."""
    return index.stored(("lifts", beta), _build_module_lift_vs, index, beta)


def _build_module_lift_vs(index: CycIndex, beta: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    fits = [r for r in index.ar.slot_of_root if sum(r) > 1 and all(map(operator.le, r, beta))]
    out = []
    _lift_walk(index, fits, beta, (0,) * _dense_order(index)[2], out)
    if len(set(out)) != len(out):
        raise EnumerationMismatchError("two Kostant multisets lifted to one v")
    return tuple(out)


def _lift_walk(index: CycIndex, fits, remaining, acc, out) -> None:
    """Append to out acc plus the lift of each multiset of ``fits`` (the sorted
    non-simple roots that fit remaining) completed to remaining by simple
    roots.  Each root takes every multiplicity that fits and hands on only the
    later roots that still fit the rest."""
    if not fits:
        for i, c in enumerate(remaining, 1):
            if c:
                acc = tuple(a + c * x for a, x in zip(acc, _lift_row(index, index.ar.simple[i])))
        out.append(acc)
        return
    r, tail = fits[0], fits[1:]
    while True:
        _lift_walk(index, tail, remaining, acc, out)
        remaining = tuple(map(operator.sub, remaining, r))
        if min(remaining) < 0:
            return
        acc = tuple(map(operator.add, acc, _lift_row(index, index.ar.slot_of_root[r])))
        tail = [x for x in tail if all(map(operator.le, x, remaining))]


def enumerate_l_dominant(
    index: CycIndex, w: dict[Vertex, int], verify: bool = False
) -> list[dict[Vertex, int]]:
    """The complete set {v >= 0 : w - C_q v >= 0} for w in W^S + W^SigmaS.

    Walks the triangular structure (Kostant lifts on both wings, free Cartan
    coefficients in the middle) on tuples over the dense order, and optionally
    cross-checks a capped brute-force search; a mismatch raises
    EnumerationMismatchError.
    """
    co = cones(index)
    w = canon(w)
    if any(c < 0 for c in w.values()):
        raise UnsupportedWeightError("w must be nonnegative")
    if any(k not in co.w_s and k not in co.w_sigma_s for k in w):
        raise UnsupportedWeightError("w is not supported on W^S + W^SigmaS")

    verts = list(index.quiver.vertices)
    m, mp = {}, {}
    for i in verts:
        s, ss = sigma_simples(index, i)
        m[i], mp[i] = w.get(s, 0), w.get(ss, 0)

    order, _, p, by_vertex = _dense_order(index)
    tail = (0,) * (len(order) - 2 * p)
    # Each solution is kept as the flat (rank, value) pairs of its nonzero
    # coordinates, ranked in sorted vertex order; these sort as the sparse
    # item tuples do.
    ranks = range(len(order))

    def flat(s):
        return tuple(chain.from_iterable(compress(zip(ranks, s), s)))

    results: set[tuple[int, ...]] = set()
    expected = 0
    for c in product(*(range(min(m[i], mp[i]) + 1) for i in verts)):
        plus_vs = _module_lift_vs(index, tuple(m[i] - ci for i, ci in zip(verts, c)))
        minus_vs = _module_lift_vs(index, tuple(mp[i] - ci for i, ci in zip(verts, c)))
        cartan_vs = None  # None: only the zero vector
        for i, ci in zip(verts, c):
            if ci:
                terms = _cartan_terms(index, i, ci)
                cartan_vs = terms if cartan_vs is None else [
                    tuple(map(operator.add, v0, t)) for v0 in cartan_vs for t in terms
                ]
        expected += len(plus_vs) * len(minus_vs) * (len(cartan_vs) if cartan_vs else 1)
        # the V- block of a minus-wing lift is its shift pullback
        wings = (by_vertex(vp + vm + tail) for vp in plus_vs for vm in minus_vs)
        if cartan_vs is None:
            results.update(map(flat, wings))
        else:
            results.update(flat(tuple(map(operator.add, v, v0))) for v in wings for v0 in cartan_vs)
    if len(results) != expected:
        raise EnumerationMismatchError(
            f"triangular enumeration produced {len(results)} != {expected} pairs"
        )
    vertex_at = by_vertex(order).__getitem__
    out = [dict(zip(map(vertex_at, f[0::2]), f[1::2])) for f in sorted(results)]
    if verify:
        brute = enumerate_l_dominant_bruteforce(index, w)
        if brute != out:
            raise EnumerationMismatchError(
                f"brute force found {len(brute)} solutions, structure found {len(out)}"
            )
    return out


def _capped_search(index: CycIndex, coords, start: dict, sign: int, cap: int, zero=()):
    """Every v on coords, each value at most cap, with r = start + sign * C_q v
    nonnegative on I-hat and zero on the rows in `zero`; a list of (v, r).

    Coordinates are filled depth-first in height order, and r is updated from
    each coordinate's C_q column as values are assigned.  A row of r is
    settled once no unassigned coordinate can raise it (a row in `zero`: once
    none can change it), and a partial assignment is pruned as soon as a
    settled row is negative, or is in `zero` and nonzero.
    """
    coords = sorted(coords, key=lambda v: (v[1], v[0]))
    rows = sorted(index.i_hat)
    row_pos = {y: k for k, y in enumerate(rows)}
    cols = [
        [(row_pos[y], sign * c) for y, c in index.q_cartan_apply({x: 1}).items()]
        for x in coords
    ]
    strict = [y in zero for y in rows]
    settled_after = [-1] * len(rows)
    for k, col in enumerate(cols):
        for y, c in col:
            if c > 0 or strict[y]:
                settled_after[y] = k
    # done[k]: the settled rows that coords[k] changes, with its entry there;
    # once such a row fails and moves away as the value grows, stop
    done = [[(y, c) for y, c in col if settled_after[y] <= k] for k, col in enumerate(cols)]

    r = [start.get(y, 0) for y in rows]
    if any(r[y] < 0 or r[y] and strict[y] for y in range(len(rows)) if settled_after[y] < 0):
        return []
    found = []
    assignment = [0] * len(coords)

    def rec(k: int):
        if k == len(coords):
            v = {x: a for x, a in zip(coords, assignment) if a}
            found.append((v, {rows[y]: c for y, c in enumerate(r) if c}))
            return
        col = cols[k]
        value = 0
        while value <= cap:
            if not any(r[y] < 0 or r[y] and strict[y] for y, _ in done[k]):
                assignment[k] = value
                rec(k + 1)
            elif any(r[y] < 0 > c or r[y] > 0 < c and strict[y] for y, c in done[k]):
                break
            value += 1
            for y, c in col:
                r[y] += c
        for y, c in col:
            r[y] -= c * value
        assignment[k] = 0

    rec(0)
    del rec  # it refers to itself through its cell: a cycle left for gc
    return found


def enumerate_l_dominant_bruteforce(
    index: CycIndex, w: dict[Vertex, int], cap: int | None = None
) -> list[dict[Vertex, int]]:
    """Capped depth-first search for {v : w - C_q v >= 0}; verification oracle.

    The search updates the slack w - C_q v per coordinate and prunes once a
    slack coordinate is negative and no unassigned coordinate can raise it
    (only the adjacent-vertex contributions are positive).
    """
    index.assert_w_vector(w)
    w = canon(w)
    if cap is None:
        cap = sum(w.values()) * index.h
    return canonical_order(v for v, _ in _capped_search(index, index.sigma_i_hat, w, -1, cap))


def solve_w_tilde_bruteforce(index: CycIndex, wtilde: dict[Vertex, int]) -> list[VWPair]:
    """All (v, w) in V+ x W^S with w - C_q v = wtilde, each coordinate of v
    at most h times the mass of wtilde.

    The search over V+ updates w = wtilde + C_q v per coordinate and prunes
    once a coordinate of w is negative and no unassigned coordinate can raise
    it, or is nonzero outside W^S and no unassigned coordinate can change it.
    """
    co = cones(index)
    wtilde = canon(wtilde)
    if any(y not in index.i_hat for y in wtilde):
        return []  # such a coordinate of w is nonzero outside W^S
    cap = sum(wtilde.values()) * index.h
    found = _capped_search(index, co.v_plus, wtilde, 1, cap, index.i_hat - co.w_s)
    return sorted(VWPair(v, w) for v, w in found)
