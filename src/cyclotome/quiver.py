"""Oriented ADE Dynkin quivers: validation, Euler form, Cartan matrix, heights.

A quiver here is an orientation of a simply-laced Dynkin diagram (types A, D,
E).  Vertices are labelled 1..n, arrows are (source, target) pairs.  All later
root-of-unity combinatorics only needs the Euler form, the Cartan matrix and
an integer height function, so everything in this module is exact integer
arithmetic on plain tuples and dicts.  One walk of the tree gives the heights,
and the same walk checks that the tree is connected.
"""

from __future__ import annotations

from itertools import product


class QuiverError(ValueError):
    pass


class NotATreeError(QuiverError):
    """The underlying graph has a cycle or is disconnected."""


class NotSimplyLacedError(QuiverError):
    """Two arrows join the same pair of vertices (or a loop exists)."""


class NotADEError(QuiverError):
    """The underlying tree is not of type A, D, E6, E7 or E8."""


#: Coxeter numbers by type family; re-derived in the tests as the order of a
#: Coxeter element s_1...s_n of the Weyl group.
COXETER_NUMBER = {
    "A": lambda n: n + 1,
    "D": lambda n: 2 * n - 2,
    "E": {6: 12, 7: 18, 8: 30},
}


class Frozen:
    """Base of the frozen value classes: a subclass names its fields in
    ``_fields`` and keeps them in ``__slots__``; an instance prints, compares
    and hashes as the tuple of its fields, equals only its own class, and
    refuses every assignment after ``__init__``.  It stands in for a frozen
    dataclass because importing ``dataclasses`` costs more than this package."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which may set the fields
        return type(self), self._values()


_MISSING = object()


class Tables:
    """Base of ARQuiver and CycIndex: each per-quiver invariant is built on
    first use and kept under a key naming it and its arguments ("cones",
    ("v_f", i), ("hom", rx, ry), ...); stored() alone touches ``tables``."""

    def __init__(self):
        self.tables: dict = {}

    def stored(self, key, build, *args):
        """tables[key], built by calling build(*args) on first use."""
        value = self.tables.get(key, _MISSING)
        if value is _MISSING:
            value = self.tables[key] = build(*args)
        return value


class DynkinQuiver(Frozen):
    """An oriented ADE tree with its detected type and Coxeter number.

    ``neighbours[i]`` lists the vertices joined to i, in increasing order; it
    is derived from the arrows and takes no part in equality, hashing or repr.
    make_dynkin_quiver passes the table it validated the arrows with; a copy
    or pickle builds it again from the arrows.
    """

    _fields = ("n", "arrows", "dynkin_type", "coxeter_number")
    __slots__ = _fields + ("neighbours",)

    def __init__(self, n: int, arrows: tuple[tuple[int, int], ...], dynkin_type: str,
                 coxeter_number: int, neighbours: dict[int, tuple[int, ...]] | None = None):
        super().__init__(n, arrows, dynkin_type, coxeter_number)
        if neighbours is None:
            neighbours = _neighbour_table(n, arrows)
        object.__setattr__(self, "neighbours", neighbours)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def adjacent(self, i: int, j: int) -> bool:
        return j in self.neighbours.get(i, ())

    def orientation_label(self) -> str:
        return ",".join(f"{s}>{t}" for s, t in sorted(self.arrows))

    def __str__(self) -> str:
        return f"{self.dynkin_type}[{self.orientation_label()}]"


def _neighbour_table(n: int, arrows) -> dict[int, tuple[int, ...]]:
    """For each vertex 1..n, the vertices an arrow joins it to, in increasing order."""
    nbrs = {i: [] for i in range(1, n + 1)}
    for s, t in arrows:
        nbrs[s].append(t)
        nbrs[t].append(s)
    return {i: tuple(sorted(js)) for i, js in nbrs.items()}


def _classify_tree(n: int, adj: dict[int, tuple[int, ...]]) -> str:
    """Detect the ADE type of a tree from its degree sequence and arm lengths."""
    deg = {i: len(js) for i, js in adj.items()}
    if any(d > 3 for d in deg.values()):
        raise NotADEError("vertex of degree > 3")
    branch = [i for i, d in deg.items() if d == 3]
    if len(branch) > 1:
        raise NotADEError("more than one branch vertex")
    if not branch:
        return f"A{n}"
    # Arm lengths (edge counts) from the unique degree-3 vertex.
    c = branch[0]
    arms = []
    for start in adj[c]:
        length, prev, cur = 1, c, start
        while deg[cur] == 2:
            nxt = next(x for x in adj[cur] if x != prev)
            prev, cur = cur, nxt
            length += 1
        arms.append(length)
    arms.sort()
    if arms[:2] == [1, 1]:
        return f"D{n}"
    if arms == [1, 2, 2]:
        return "E6"
    if arms == [1, 2, 3]:
        return "E7"
    if arms == [1, 2, 4]:
        return "E8"
    raise NotADEError(f"arm lengths {arms} are not ADE")


def _coxeter_number(dynkin_type: str) -> int:
    family, rank = dynkin_type[0], int(dynkin_type[1:])
    if family == "E":
        return COXETER_NUMBER["E"][rank]
    return COXETER_NUMBER[family](rank)


def make_dynkin_quiver(n: int, arrows: list[tuple[int, int]]) -> DynkinQuiver:
    """Validate an edge list and return the classified quiver.

    Raises NotATreeError / NotSimplyLacedError / NotADEError when the input is
    not an orientation of a connected simply-laced ADE tree.
    """
    if n < 1:
        raise QuiverError("need at least one vertex")
    for s, t in arrows:
        if not (1 <= s <= n and 1 <= t <= n):
            raise QuiverError(f"arrow {s}->{t} uses an unknown vertex")
        if s == t:
            raise NotSimplyLacedError(f"loop at vertex {s}")
    edges = [tuple(sorted((s, t))) for s, t in arrows]
    if len(set(edges)) != len(edges):
        raise NotSimplyLacedError("parallel edges")
    if len(arrows) != n - 1:
        raise NotATreeError(f"{len(arrows)} arrows on {n} vertices is not a tree")
    # n-1 distinct edges + connected <=> tree (hence acyclic); connected
    # <=> the height walk from vertex 1 reaches every vertex.
    adj = _neighbour_table(n, arrows)
    if len(_heights(adj, arrows)) != n:
        raise NotATreeError("underlying graph is disconnected (so it has a cycle)")
    dynkin_type = _classify_tree(n, adj)
    return DynkinQuiver(n, tuple(arrows), dynkin_type, _coxeter_number(dynkin_type), adj)


def load_quiver(text: str) -> DynkinQuiver:
    """Parse the plain-text quiver format.

    Exactly one line ``vertices: n`` (a second raises QuiverError) and
    ``arrow: s t`` lines of integers; blank lines and ``#`` comments are
    ignored.  Any other line raises a QuiverError that quotes it.
    """
    n = None
    arrows: list[tuple[int, int]] = []
    forms = {"vertices": ("vertices: n", 1), "arrow": ("arrow: s t", 2)}  # shape, arity
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        key = key.strip().lower()
        if key not in forms:
            raise QuiverError(f"unrecognized line: {raw!r}")
        if key == "vertices" and n is not None:
            raise QuiverError(f"second 'vertices:' line: {raw!r}")
        try:
            values = tuple(int(x) for x in rest.split())
        except ValueError:
            values = ()
        shape, arity = forms[key]
        if len(values) != arity:
            raise QuiverError(f"expected '{shape}' with integers, got {raw!r}")
        if key == "vertices":
            n = values[0]
        else:
            arrows.append(values)
    if n is None:
        raise QuiverError("missing 'vertices: n' line")
    return make_dynkin_quiver(n, arrows)


# -- standard tree shapes and orientations -----------------------------------

def standard_edges(dynkin_type: str) -> list[tuple[int, int]]:
    """Undirected edges of the standard labelled ADE tree.

    A_n is the chain 1-2-...-n.  D_n is the chain 1-...-(n-2) with both n-1
    and n attached to n-2.  E_n is the chain 1-...-(n-1) with n attached to 3.
    """
    family, digits = dynkin_type[:1].upper(), dynkin_type[1:]
    rank = int(digits) if digits.isdecimal() else 0
    if family == "A" and rank >= 1:
        return [(k, k + 1) for k in range(1, rank)]
    if family == "D" and rank >= 4:
        return [(k, k + 1) for k in range(1, rank - 2)] + [
            (rank - 2, rank - 1),
            (rank - 2, rank),
        ]
    if family == "E" and rank in (6, 7, 8):
        return [(k, k + 1) for k in range(1, rank - 1)] + [(3, rank)]
    raise NotADEError(f"not an ADE type: {dynkin_type!r}")


def orient(dynkin_type: str, orientation: str = "linear") -> DynkinQuiver:
    """Built-in orientations of the standard tree.

    ``linear``      every edge points from the higher label to the lower one
                    (for A_n this is the chain n -> ... -> 2 -> 1);
    ``alternating`` every vertex is a source or a sink (arrows point from odd
                    to even height, which on a tree has the parity of the
                    distance from vertex 1).
    """
    edges = standard_edges(dynkin_type)
    n = max(max(e) for e in edges) if edges else 1
    if orientation == "linear":
        return make_dynkin_quiver(n, [(max(u, v), min(u, v)) for u, v in edges])
    if orientation != "alternating":
        raise QuiverError(f"unknown orientation {orientation!r}")
    # one walk of the edges read as arrows: each step changes the height by
    # one, so its parity is the parity of the distance from vertex 1
    xi = _heights(_neighbour_table(n, edges), edges)
    return make_dynkin_quiver(n, [(u, v) if xi[u] % 2 else (v, u) for u, v in edges])


def all_orientations(dynkin_type: str):
    """Yield every orientation of the standard tree (2^(n-1) quivers)."""
    edges = standard_edges(dynkin_type)
    n = max(max(e) for e in edges) if edges else 1
    for flips in product((False, True), repeat=len(edges)):
        arrows = [
            (v, u) if flip else (u, v)
            for (u, v), flip in zip(edges, flips)
        ]
        yield make_dynkin_quiver(n, arrows)


def some_orientations(dynkin_type: str) -> list[DynkinQuiver]:
    """A deterministic sample of orientations: linear, alternating and
    reversed-linear, each once."""
    edges = standard_edges(dynkin_type)
    n = max(max(e) for e in edges) if edges else 1
    picks = [orient(dynkin_type, "linear"), orient(dynkin_type, "alternating")]
    picks.append(make_dynkin_quiver(n, [(min(u, v), max(u, v)) for u, v in edges]))
    seen, out = set(), []
    for q in picks:
        if q.arrows not in seen:
            seen.add(q.arrows)
            out.append(q)
    return out


# -- forms and heights --------------------------------------------------------

def euler_form(q: DynkinQuiver, x, y) -> int:
    """<x,y> = sum_i x_i y_i - sum_(s->t) x_s y_t on dimension vectors.

    Dimension vectors are tuples indexed 1..n, read with offset 1.
    """
    total = sum(x[k] * y[k] for k in range(q.n))
    for s, t in q.arrows:
        total -= x[s - 1] * y[t - 1]
    return total


def cartan_entry(q: DynkinQuiver, i: int, j: int) -> int:
    """a_ij = <e_i,e_j> + <e_j,e_i>: 2 on the diagonal, -1 for adjacency, else 0."""
    ei = unit_vector(q, i)
    ej = unit_vector(q, j)
    return euler_form(q, ei, ej) + euler_form(q, ej, ei)


def unit_vector(q: DynkinQuiver, i: int) -> tuple[int, ...]:
    return tuple(1 if k == i else 0 for k in q.vertices)


def height_function(q: DynkinQuiver) -> dict[int, int]:
    """The canonical integer height lift: xi(1) = 0, xi(s) = xi(t) + 1 per arrow s->t.
    Sorted by xi, the vertices come sinks first: each arrow's target precedes its source."""
    return _heights(q.neighbours, q.arrows)


def _heights(adj: dict[int, tuple[int, ...]], arrows) -> dict[int, int]:
    """xi on the vertices that the walk from 1 reaches: all of them iff connected."""
    arrows = set(arrows)
    xi = {1: 0}
    frontier = [1]
    while frontier:
        x = frontier.pop()
        for y in adj[x]:
            if y not in xi:
                xi[y] = xi[x] - 1 if (x, y) in arrows else xi[x] + 1
                frontier.append(y)
    return xi
