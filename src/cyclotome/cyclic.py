"""The root-of-unity index world: heights mod 2h, the sets I-hat and sigma-I-hat,
the covering of the derived window, and the q-Cartan matrix.

Heights are residues mod 2h (h = Coxeter number), so the cyclic group generated
by a primitive 2h-th root of unity is handled purely additively.  A vertex is a
pair (i, a); I-hat collects the vertices with a = xi(i) mod 2 and sigma-I-hat
the others.  The canonical section identifies the sigma-I-hat vertex
(i, xi(i)+1+2d) with the window object tau^{-d} P_i for 0 <= d < h, which pins
down the shift involution on vertices and everything downstream.
"""

from __future__ import annotations

from .derived import ARQuiver, DerivedObject, Slot, knit
from .quiver import DynkinQuiver, height_function

Vertex = tuple[int, int]  # (quiver vertex i, height residue a mod 2h)


class IndexInvariantError(RuntimeError):
    """The section, the shift involution or C_q left its index set; signals
    an internal bug."""


class CycIndex:
    def __init__(self, quiver: DynkinQuiver, xi: dict[int, int] | None = None):
        self.quiver = quiver
        self.ar: ARQuiver = knit(quiver)
        self.h = quiver.coxeter_number
        self.two_h = 2 * self.h
        self.xi = dict(xi) if xi is not None else height_function(quiver)
        # Per-quiver invariants, each filled on first use: ("v_f", i),
        # ("iota", slot) and "cones" by dominance.py, with its enumeration
        # data over one dense order of sigma-I-hat: "dense order",
        # ("dense v_f", i), ("lift row", slot) and ("lifts", beta); each
        # read pair's ("residual", pair) and ("phi", pair) by forms.py, and
        # the generator pairs (name, i) by relations.py; see stored().
        self.tables: dict = {}

        self.i_hat: set[Vertex] = set()
        self.sigma_i_hat: set[Vertex] = set()
        for i in quiver.vertices:
            parity = self.xi[i] % 2
            for a in range(self.two_h):
                (self.i_hat if a % 2 == parity else self.sigma_i_hat).add((i, a))

        # Canonical section: (i, xi(i)+1+2d) <-> slot (i, d).
        self.section: dict[Vertex, Slot] = {}
        self.vertex_of_slot: dict[Slot, Vertex] = {}
        for i in quiver.vertices:
            for d in range(self.h):
                v = (i, (self.xi[i] + 1 + 2 * d) % self.two_h)
                self.section[v] = (i, d)
                self.vertex_of_slot[(i, d)] = v
        if set(self.section) != self.sigma_i_hat:
            raise IndexInvariantError("the section does not cover sigma-I-hat")

        # The shift involution on vertices: conjugate the slot-level shift
        # through the section on sigma-I-hat, extend to I-hat by commuting
        # with sigma.
        self.shift_vertex_map: dict[Vertex, Vertex] = {}
        for v, slot in self.section.items():
            self.shift_vertex_map[v] = self.vertex_of_slot[self.ar.sigma_slot[slot]]
        for v in self.i_hat:
            self.shift_vertex_map[v] = self.sigma(
                self.shift_vertex_map[self.sigma_inv(v)]
            )
        for v, w in self.shift_vertex_map.items():
            if self.shift_vertex_map[w] != v:
                raise IndexInvariantError("shift involution broken")

    def stored(self, key, build):
        """tables[key], built by calling build() on first use."""
        value = self.tables.get(key)
        if value is None:
            value = self.tables[key] = build()
        return value

    # -- vertex maps --

    def sigma(self, v: Vertex) -> Vertex:
        """sigma(i, a) = (i, a - 1): swaps I-hat and sigma-I-hat."""
        return (v[0], (v[1] - 1) % self.two_h)

    def sigma_inv(self, v: Vertex) -> Vertex:
        return (v[0], (v[1] + 1) % self.two_h)

    def tau_vertex(self, v: Vertex) -> Vertex:
        """tau = sigma^2 on vertices."""
        return (v[0], (v[1] - 2) % self.two_h)

    def shift_vertex(self, v: Vertex) -> Vertex:
        """The involution induced by the shift functor (commutes with sigma)."""
        return self.shift_vertex_map[v]

    # -- covering --

    def pi(self, obj: DerivedObject) -> Vertex:
        """The covering map from derived objects onto sigma-I-hat."""
        slot = obj.slot if obj.shift % 2 == 0 else self.ar.sigma_slot[obj.slot]
        return self.vertex_of_slot[slot]

    def object_at(self, v: Vertex) -> DerivedObject:
        """The canonical section: the window object covering a sigma-I-hat vertex."""
        return self.ar.object_of_slot(self.section[v])

    # -- vector plumbing --

    def e_slot(self, slot: Slot) -> dict[Vertex, int]:
        """Unit v-vector at the vertex of a window slot."""
        return {self.vertex_of_slot[slot]: 1}

    def assert_v_vector(self, v: dict[Vertex, int]) -> None:
        for key in v:
            if key not in self.sigma_i_hat:
                raise ValueError(f"v-vector key {key} is not in sigma-I-hat")

    def assert_w_vector(self, w: dict[Vertex, int]) -> None:
        for key in w:
            if key not in self.i_hat:
                raise ValueError(f"w-vector key {key} is not in I-hat")

    def shift_pullback(self, vec: dict[Vertex, int]) -> dict[Vertex, int]:
        """Sigma^* u = u o Sigma; an involution on both index halves."""
        return {self.shift_vertex_map[k]: c for k, c in vec.items() if c}

    # -- the q-Cartan matrix --

    def q_cartan_apply(self, v: dict[Vertex, int]) -> dict[Vertex, int]:
        """C_q e_(i,a) = e_(i,a+1) + e_(i,a-1) + sum_(j adj i) a_ij e_(j,a).

        Input supported on sigma-I-hat, output (signed) on I-hat.
        """
        self.assert_v_vector(v)
        neighbours = self.quiver.neighbours
        out: dict[Vertex, int] = {}
        for (i, a), c in v.items():
            if not c:
                continue
            for target in ((i, (a + 1) % self.two_h), (i, (a - 1) % self.two_h)):
                out[target] = out.get(target, 0) + c
            for j in neighbours[i]:
                t = (j, a)
                out[t] = out.get(t, 0) - c
        out = {k: c for k, c in out.items() if c}
        for key in out:
            if key not in self.i_hat:
                raise IndexInvariantError(f"C_q output key {key} escaped I-hat")
        return out

    def q_cartan_matrix(self) -> tuple[list[Vertex], list[Vertex], list[list[int]]]:
        """(row index = I-hat sorted, column index = sigma-I-hat sorted, matrix)."""
        rows = sorted(self.i_hat)
        cols = sorted(self.sigma_i_hat)
        row_pos = {v: k for k, v in enumerate(rows)}
        mat = [[0] * len(cols) for _ in rows]
        for c, x in enumerate(cols):
            for y, val in self.q_cartan_apply({x: 1}).items():
                mat[row_pos[y]][c] = val
        return rows, cols, mat

    # -- names --

    def vertex_name(self, v: Vertex) -> str:
        if v in self.sigma_i_hat:
            return self._object_token(self.object_at(v))
        return f"sigma({self._object_token(self.object_at(self.sigma_inv(v)))})"

    def _object_token(self, obj: DerivedObject) -> str:
        base = self.ar.slot_name(obj.slot)
        return base if obj.shift == 0 else f"Sigma{base}"


def build_index(quiver: DynkinQuiver, xi: dict[int, int] | None = None) -> CycIndex:
    return CycIndex(quiver, xi)


def rep_space_dot(index: CycIndex) -> str:
    """DOT ladder of the framed representation space: rows = vertices, columns
    = heights; alpha/beta arrows between the W and V layers, B arrows along
    the quiver arrows (all dropping the height by one).
    """
    lines = ["digraph rep_space {", "  rankdir=RL;"]

    def node_id(v: Vertex, layer: str) -> str:
        return f"{layer}_{v[0]}_{v[1]}"

    for v in sorted(index.sigma_i_hat):
        lines.append(f'  "{node_id(v, "V")}" [label="V({index.vertex_name(v)})"];')
    for v in sorted(index.i_hat):
        lines.append(
            f'  "{node_id(v, "W")}" [label="W({index.vertex_name(v)})" color=blue];'
        )
    for v in sorted(index.sigma_i_hat):
        # beta: V(x) -> W(sigma x); alpha: W(sigma^-1 x) -> V(x)
        lines.append(
            f'  "{node_id(v, "V")}" -> "{node_id(index.sigma(v), "W")}" [label="beta{v[0]}" color=blue];'
        )
        lines.append(
            f'  "{node_id(index.sigma_inv(v), "W")}" -> "{node_id(v, "V")}" [label="alpha{v[0]}" color=red];'
        )
    for s, t in index.quiver.arrows:
        for v in sorted(index.sigma_i_hat):
            if v[0] == s:
                target = (t, (v[1] - 1) % index.two_h)
                lines.append(f'  "{node_id(v, "V")}" -> "{node_id(target, "V")}" [label="B"];')
            if v[0] == t:
                target = (s, (v[1] - 1) % index.two_h)
                lines.append(
                    f'  "{node_id(v, "V")}" -> "{node_id(target, "V")}" [label="Bbar"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
