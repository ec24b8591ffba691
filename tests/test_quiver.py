"""Quiver validation, Euler form, Cartan entries, and height functions.

Core claims:
    - load_quiver classifies ADE trees and rejects cycles / multi-edges / non-ADE
    - the Coxeter number table matches the order of the Coxeter transformation
    - euler_form is Z-bilinear, cartan_entry symmetric, and reads dicts and
      tuples alike
    - the neighbour table matches the arrows and leaves equality, hashing and
      repr to the four declared fields
    - height functions obey the arrow rule on every arrow, any orientation, and
      keep their pinned values on the built-in orientations of A1-A8, D4-D8
      and E6-E8
    - the alternating orientation makes every vertex a source or a sink, with
      the sinks exactly the even-height vertices
"""

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
from cyclotome.derived import matrix_order
from cyclotome.quiver import euler_matrix
from cyclotome.derived import mat_mul, mat_neg, mat_transpose, unipotent_inverse


ALL_TYPES = ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6", "E7", "E8"]


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
        # 3 distinct edges on 4 vertices with vertex 4 isolated
        with pytest.raises(NotATreeError):
            make_dynkin_quiver(4, [(1, 2), (2, 3), (3, 1)])

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

    @pytest.mark.parametrize("t,h", [("A1", 2), ("A4", 5), ("D4", 6), ("D5", 8),
                                     ("E6", 12), ("E7", 18), ("E8", 30)])
    def test_types_and_coxeter_table(self, t, h):
        q = orient(t, "linear")
        assert q.dynkin_type == t
        assert q.coxeter_number == h


# == 2. the Coxeter number re-derived ==========================================

@pytest.mark.parametrize("t", ALL_TYPES)
def test_coxeter_number_is_order_of_coxeter_matrix(t):
    q = orient(t, "linear")
    e = euler_matrix(q)
    cox = mat_neg(mat_mul(unipotent_inverse(e), mat_transpose(e)))
    assert matrix_order(cox) == q.coxeter_number


def test_coxeter_order_is_orientation_independent():
    for q in all_orientations("A3"):
        e = euler_matrix(q)
        cox = mat_neg(mat_mul(unipotent_inverse(e), mat_transpose(e)))
        assert matrix_order(cox) == 4


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

    def test_dict_inputs_match_tuples(self):
        q = orient("E6", "alternating")
        x, y = (1, 2, 0, 1, 3, 0), (0, 1, 1, 2, 0, 1)
        dx = {i: c for i, c in zip(q.vertices, x) if c}
        dy = {i: c for i, c in zip(q.vertices, y) if c}
        assert 0 not in dx.values() and len(dx) < q.n
        assert euler_form(q, dx, dy) == euler_form(q, x, y)
        assert euler_form(q, dx, y) == euler_form(q, x, dy) == euler_form(q, x, y)
        assert euler_form(q, {}, y) == 0

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
