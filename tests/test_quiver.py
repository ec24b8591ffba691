"""Quiver validation, Euler form, Cartan entries, and height functions.

Core claims:
    - load_quiver classifies ADE trees and rejects cycles / multi-edges / non-ADE
    - load_quiver refuses a second ``vertices:`` line
    - the Coxeter number table matches the order of a Coxeter element s_1...s_n,
      powered here from the reflections alone
    - euler_form is Z-bilinear and cartan_entry symmetric
    - the neighbour table matches the arrows and leaves equality, hashing and
      repr to the four declared fields; orient builds it once for a linear
      quiver and at most twice for an alternating one (once for the parity
      walk of the edges)
    - height functions obey the arrow rule on every arrow, any orientation, and
      keep their pinned values on the built-in orientations of A1-A8, D4-D8
      and E6-E8
    - the alternating orientation makes every vertex a source or a sink, with
      the sinks exactly the even-height vertices
"""

from itertools import permutations

import pytest

from cyclotome import (
    NotADEError,
    NotATreeError,
    NotSimplyLacedError,
    all_orientations,
    cartan_entry,
    euler_form,
    height_function,
    load_quiver,
    make_dynkin_quiver,
    orient,
    unit_vector,
)
from cyclotome import quiver
from cyclotome.quiver import QuiverError


ALL_TYPES = [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 8)] + ["E6", "E7", "E8"]


# == 1. loading and classification =============================================

class TestLoadQuiver:
    def test_linear_a3_matches_fixture(self):
        q = load_quiver("vertices: 3\narrow: 3 2\narrow: 2 1\n")
        assert q.dynkin_type == "A3"
        assert q.coxeter_number == 4  # a primitive 8-th root of unity world

    def test_single_vertex_is_a1(self):
        q = load_quiver("vertices: 1\n")
        assert q.dynkin_type == "A1"
        assert q.coxeter_number == 2

    def test_cycle_rejected(self):
        with pytest.raises(NotATreeError):
            make_dynkin_quiver(3, [(1, 2), (2, 3), (3, 1)])

    def test_disconnected_rejected(self):
        # 3 distinct edges on 4 vertices with vertex 4 isolated, then with
        # vertex 1, where the height walk starts, isolated
        for arrows in ([(1, 2), (2, 3), (3, 1)], [(2, 3), (3, 4), (4, 2)]):
            with pytest.raises(NotATreeError, match="disconnected"):
                make_dynkin_quiver(4, arrows)

    def test_parallel_edge_rejected(self):
        with pytest.raises(NotSimplyLacedError):
            make_dynkin_quiver(2, [(1, 2), (2, 1)])

    def test_star_with_four_arms_rejected(self):
        with pytest.raises(NotADEError):
            make_dynkin_quiver(5, [(2, 1), (3, 1), (4, 1), (5, 1)])

    def test_two_branch_vertices_rejected(self):
        # arms (2,2,2) from a single center is not ADE either
        with pytest.raises(NotADEError):
            make_dynkin_quiver(7, [(2, 1), (3, 2), (4, 1), (5, 4), (6, 1), (7, 6)])

    def test_second_vertices_line_rejected(self):
        # the later line would silently win and load this as A3
        with pytest.raises(QuiverError, match="second 'vertices:' line"):
            load_quiver("vertices: 2\nvertices: 3\narrow: 1 2\narrow: 2 3\n")

    @pytest.mark.parametrize("t,h", [("A1", 2), ("A4", 5), ("D4", 6), ("D5", 8),
                                     ("E6", 12), ("E7", 18), ("E8", 30)])
    def test_types_and_coxeter_table(self, t, h):
        q = orient(t, "linear")
        assert q.dynkin_type == t
        assert q.coxeter_number == h


# == 2. the Coxeter number re-derived ==========================================

def coxeter_order(q, labels=None) -> int:
    """The order of the Coxeter element s_1...s_n on root coordinates, or of
    the product of the s_k in the order of ``labels``, where s_k(beta)_k =
    sum of beta_j over the neighbours j of k, minus beta_k; None past the
    64th power.  Reads only q.n and q.arrows."""
    nbrs = {k: [] for k in range(q.n)}
    for s, t in q.arrows:
        nbrs[s - 1].append(t - 1)
        nbrs[t - 1].append(s - 1)

    def coxeter(beta):
        beta = list(beta)
        for k in reversed(labels or range(1, q.n + 1)):  # the last factor acts first
            beta[k - 1] = sum(beta[j] for j in nbrs[k - 1]) - beta[k - 1]
        return tuple(beta)

    units = [tuple(int(k == j) for k in range(q.n)) for j in range(q.n)]
    images = units
    for order in range(1, 65):
        images = [coxeter(beta) for beta in images]
        if images == units:
            return order
    return None


@pytest.mark.parametrize("t", ALL_TYPES)
def test_coxeter_number_is_order_of_coxeter_matrix(t):
    q = orient(t, "linear")
    assert coxeter_order(q) == q.coxeter_number


def test_coxeter_order_is_orientation_independent():
    # each orientation's Coxeter element multiplies the s_k sinks first, and
    # on a tree every order of the vertices is sinks first for one orientation
    for q in (orient("A3", "linear"), orient("D4", "linear")):
        for labels in permutations(q.vertices):
            assert coxeter_order(q, labels) == q.coxeter_number


# == 3. forms ====================================================================

class TestEulerForm:
    def test_single_arrow_contributes_minus_one(self):
        q = make_dynkin_quiver(2, [(2, 1)])
        assert euler_form(q, unit_vector(q, 2), unit_vector(q, 1)) == -1
        assert euler_form(q, unit_vector(q, 1), unit_vector(q, 2)) == 0

    def test_diagonal_is_one(self):
        q = orient("D4", "alternating")
        for i in q.vertices:
            assert euler_form(q, unit_vector(q, i), unit_vector(q, i)) == 1

    def test_projective_against_simple(self):
        # <dim P_3, dim S_2> = <(1,1,1),(0,1,0)> = 0 in linear A3
        q = orient("A3", "linear")
        assert euler_form(q, (1, 1, 1), (0, 1, 0)) == 0

    def test_bilinear(self):
        q = orient("A4", "alternating")
        x, y, z = (1, 2, 0, 1), (0, 1, 1, 0), (2, 0, 1, 3)
        lhs = euler_form(q, tuple(a + b for a, b in zip(x, y)), z)
        assert lhs == euler_form(q, x, z) + euler_form(q, y, z)
        rhs = euler_form(q, z, tuple(3 * a for a in x))
        assert rhs == 3 * euler_form(q, z, x)

    def test_cartan_entries(self):
        q = orient("A3", "linear")
        assert cartan_entry(q, 1, 1) == 2
        assert cartan_entry(q, 1, 2) == -1
        assert cartan_entry(q, 1, 3) == 0

    def test_cartan_symmetric_all_orientations(self):
        for q in all_orientations("D4"):
            for i in q.vertices:
                for j in q.vertices:
                    assert cartan_entry(q, i, j) == cartan_entry(q, j, i)


class TestNeighbourTable:
    def test_matches_arrows(self):
        for q in all_orientations("D5"):
            for i in q.vertices:
                expected = sorted(
                    j for j in q.vertices if (i, j) in q.arrows or (j, i) in q.arrows
                )
                assert list(q.neighbours[i]) == expected
                for j in q.vertices:
                    assert q.adjacent(i, j) == (j in expected)

    def test_equality_hash_and_repr_ignore_it(self):
        a = orient("E6", "alternating")
        b = make_dynkin_quiver(a.n, list(a.arrows))
        assert a == b and hash(a) == hash(b)
        assert a != orient("E6", "linear")
        assert repr(a) == (
            f"DynkinQuiver(n={a.n}, arrows={a.arrows!r}, "
            f"dynkin_type='E6', coxeter_number=12)"
        )
        assert hash(a) == hash((a.n, a.arrows, a.dynkin_type, a.coxeter_number))

    @pytest.mark.parametrize("orientation,most", [("linear", 1), ("alternating", 2)])
    def test_orient_builds_few_tables(self, monkeypatch, orientation, most):
        built = []
        table = quiver._neighbour_table
        monkeypatch.setattr(quiver, "_neighbour_table", lambda *a: built.append(a) or table(*a))
        q = orient("E8", orientation)
        assert len(built) <= most
        assert q.neighbours == table(q.n, q.arrows)


# == 4. heights ===================================================================

class TestHeightFunction:
    def test_linear_a3_heights(self):
        q = orient("A3", "linear")
        assert height_function(q) == {1: 0, 2: 1, 3: 2}

    def test_a1(self):
        assert height_function(orient("A1", "linear")) == {1: 0}

    def test_a2(self):
        assert height_function(orient("A2", "linear")) == {1: 0, 2: 1}

    @pytest.mark.parametrize(
        "t",
        [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"],
    )
    def test_alternating_sinks_are_the_even_heights(self, t):
        q = orient(t, "alternating")
        tails = {s for s, _ in q.arrows}
        heads = {tgt for _, tgt in q.arrows}
        assert not tails & heads  # no vertex has an arrow in and an arrow out
        xi = height_function(q)
        sinks = set(q.vertices) - tails
        assert sinks == {i for i in q.vertices if xi[i] % 2 == 0}

    # heights of the built-in orientations, vertex by vertex from 1
    PINNED_HEIGHTS = {
        ("A1", "linear"): (0,),
        ("A2", "linear"): (0, 1),
        ("A3", "linear"): (0, 1, 2),
        ("A4", "linear"): (0, 1, 2, 3),
        ("A5", "linear"): (0, 1, 2, 3, 4),
        ("A6", "linear"): (0, 1, 2, 3, 4, 5),
        ("A7", "linear"): (0, 1, 2, 3, 4, 5, 6),
        ("A8", "linear"): (0, 1, 2, 3, 4, 5, 6, 7),
        ("D4", "linear"): (0, 1, 2, 2),
        ("D5", "linear"): (0, 1, 2, 3, 3),
        ("D6", "linear"): (0, 1, 2, 3, 4, 4),
        ("D7", "linear"): (0, 1, 2, 3, 4, 5, 5),
        ("D8", "linear"): (0, 1, 2, 3, 4, 5, 6, 6),
        ("E6", "linear"): (0, 1, 2, 3, 4, 3),
        ("E7", "linear"): (0, 1, 2, 3, 4, 5, 3),
        ("E8", "linear"): (0, 1, 2, 3, 4, 5, 6, 3),
        ("A1", "alternating"): (0,),
        ("A2", "alternating"): (0, 1),
        ("A3", "alternating"): (0, 1, 0),
        ("A4", "alternating"): (0, 1, 0, 1),
        ("A5", "alternating"): (0, 1, 0, 1, 0),
        ("A6", "alternating"): (0, 1, 0, 1, 0, 1),
        ("A7", "alternating"): (0, 1, 0, 1, 0, 1, 0),
        ("A8", "alternating"): (0, 1, 0, 1, 0, 1, 0, 1),
        ("D4", "alternating"): (0, 1, 0, 0),
        ("D5", "alternating"): (0, 1, 0, 1, 1),
        ("D6", "alternating"): (0, 1, 0, 1, 0, 0),
        ("D7", "alternating"): (0, 1, 0, 1, 0, 1, 1),
        ("D8", "alternating"): (0, 1, 0, 1, 0, 1, 0, 0),
        ("E6", "alternating"): (0, 1, 0, 1, 0, 1),
        ("E7", "alternating"): (0, 1, 0, 1, 0, 1, 1),
        ("E8", "alternating"): (0, 1, 0, 1, 0, 1, 0, 1),
    }

    @pytest.mark.parametrize("key", sorted(PINNED_HEIGHTS), ids=lambda k: "-".join(k))
    def test_built_in_orientations_keep_their_heights(self, key):
        xi = height_function(orient(*key))
        assert xi == dict(enumerate(self.PINNED_HEIGHTS[key], start=1))

    @pytest.mark.parametrize("t", ["A4", "D4", "E6"])
    def test_arrow_rule_every_orientation(self, t):
        for q in all_orientations(t):
            xi = height_function(q)
            for s, tgt in q.arrows:
                assert xi[s] == xi[tgt] + 1
            assert xi[1] == 0
