"""Cyclic index sets, the covering/section dictionary, and the q-Cartan matrix.

Core claims:
    - |I-hat| = |sigma-I-hat| = nh, and they partition I x <epsilon>
    - one build_index walks the tree for the heights once: the index reads
      the xi its window was knitted by
    - the section inverts the covering; the covering sends P_i to
      (i, xi(i)+1) and commutes with tau
    - sigma swaps the halves, sigma^2 = tau, the shift involution squares to
      the identity and commutes with sigma
    - the shift rule (i, a) -> (nu(i), a + h) is checked against the section:
      a window whose slot-level shift is another involution is refused
    - C_q follows the displayed rule, lands in I-hat, commutes with the shift
      pullback, and has a nonzero integer kernel
"""

import pytest

from cyclotome import (
    build_index, height_function, orient, quiver, some_orientations, v_f, v_sigma_f, w_f,
)
from cyclotome import cyclic
from cyclotome.cyclic import IndexInvariantError
from cyclotome.derived import DerivedObject
from cyclotome.reflections import matrix_rank


TYPES = ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6"]


# == 1. index sets ================================================================

@pytest.mark.parametrize("t", TYPES)
def test_cardinalities(t):
    idx = build_index(orient(t, "linear"))
    n, h = idx.quiver.n, idx.h
    assert len(idx.sigma_i_hat) == n * h
    assert len(idx.i_hat) == n * h
    assert idx.i_hat.isdisjoint(idx.sigma_i_hat)
    assert len(idx.i_hat | idx.sigma_i_hat) == 2 * n * h


def test_build_index_walks_the_tree_once(monkeypatch):
    q = orient("E8", "alternating")
    calls = []

    def counted(*args, _real=quiver._heights):
        calls.append(args)
        return _real(*args)

    monkeypatch.setattr(quiver, "_heights", counted)
    idx = build_index(q)
    assert len(calls) == 1
    assert idx.xi is idx.ar.xi
    assert idx.xi == height_function(q)


def test_a1_index_sets():
    idx = build_index(orient("A1", "linear"))
    assert idx.i_hat == {(1, 0), (1, 2)}
    assert idx.sigma_i_hat == {(1, 1), (1, 3)}


def test_a3_section_matches_height_rule():
    idx = build_index(orient("A3", "linear"))
    # (i, i + 2d mod 8) -> tau^{-d} P_i under xi(i) = i - 1
    for i in idx.quiver.vertices:
        for d in range(idx.h):
            assert idx.section[(i, (i + 2 * d) % 8)] == (i, d)


# == 2. covering and section =======================================================

@pytest.mark.parametrize("t", ["A2", "A3", "D4"])
def test_section_inverts_covering(t):
    idx = build_index(orient(t, "alternating"))
    for v in idx.sigma_i_hat:
        assert idx.pi(idx.object_at(v)) == v


def test_covering_sends_projectives_one_step_up():
    idx = build_index(orient("A3", "linear"))
    for i in idx.quiver.vertices:
        p = DerivedObject(idx.ar.projective[i], 0)
        assert idx.pi(p) == (i, (idx.xi[i] + 1) % idx.two_h)


@pytest.mark.parametrize("t", ["A3", "D4"])
def test_covering_commutes_with_tau(t):
    idx = build_index(orient(t, "linear"))
    for v in idx.sigma_i_hat:
        obj = idx.object_at(v)
        assert idx.pi(idx.ar.tau(obj)) == idx.tau_vertex(idx.pi(obj))


def test_section_image_is_modules_and_shifts():
    idx = build_index(orient("D4", "linear"))
    shifts = {idx.object_at(v).shift for v in idx.sigma_i_hat}
    assert shifts == {0, 1}


# == 3. sigma and the shift involution ===============================================

def test_sigma_swaps_halves_and_squares_to_tau():
    idx = build_index(orient("A3", "alternating"))
    for v in idx.i_hat | idx.sigma_i_hat:
        image = idx.sigma(v)
        if v in idx.i_hat:
            assert image in idx.sigma_i_hat
        else:
            assert image in idx.i_hat
        assert idx.sigma(image) == idx.tau_vertex(v)


def test_a1_shift_swaps_the_two_slots():
    idx = build_index(orient("A1", "linear"))
    assert idx.shift_vertex((1, 1)) == (1, 3)
    assert idx.shift_vertex((1, 3)) == (1, 1)


@pytest.mark.parametrize("t", ["A3", "D4", "E6"])
def test_shift_involution_and_sigma_commutation(t):
    idx = build_index(orient(t, "linear"))
    for v in idx.i_hat | idx.sigma_i_hat:
        assert idx.shift_vertex(idx.shift_vertex(v)) == v
        assert idx.shift_vertex(idx.sigma(v)) == idx.sigma(idx.shift_vertex(v))


@pytest.mark.parametrize("t", ["A1", "A4", "D5", "E6"])
def test_shift_rule_must_match_the_section(t, monkeypatch):
    # the identity is an involution of the window slots too, but not the shift
    def knit_without_shift(q, _real=cyclic.knit):
        ar = _real(q)
        ar.sigma_slot = {slot: slot for slot in ar.sigma_slot}
        return ar

    monkeypatch.setattr(cyclic, "knit", knit_without_shift)
    with pytest.raises(IndexInvariantError, match="shift rule disagrees with the section"):
        build_index(orient(t, "alternating"))


def test_shift_preserves_halves():
    idx = build_index(orient("D4", "alternating"))
    for v in idx.i_hat:
        assert idx.shift_vertex(v) in idx.i_hat
    for v in idx.sigma_i_hat:
        assert idx.shift_vertex(v) in idx.sigma_i_hat


# == 4. the q-Cartan matrix ==========================================================

def test_a3_displayed_rule():
    idx = build_index(orient("A3", "linear"))
    out = idx.q_cartan_apply({(1, 1): 1})
    assert out == {(1, 2): 1, (1, 0): 1, (2, 1): -1}


def test_a1_no_adjacency_terms():
    idx = build_index(orient("A1", "linear"))
    assert idx.q_cartan_apply({(1, 1): 1}) == {(1, 2): 1, (1, 0): 1}


def test_zero_maps_to_zero():
    idx = build_index(orient("A2", "linear"))
    assert idx.q_cartan_apply({}) == {}


@pytest.mark.parametrize("t", ["A2", "A3", "D4"])
def test_output_parity(t):
    idx = build_index(orient(t, "alternating"))
    for x in idx.sigma_i_hat:
        for key in idx.q_cartan_apply({x: 1}):
            assert key in idx.i_hat


def test_q_cartan_commutes_with_shift_pullback():
    for q in some_orientations("A3"):
        idx = build_index(q)
        for x in idx.sigma_i_hat:
            lhs = idx.q_cartan_apply(idx.shift_pullback({x: 1}))
            rhs = idx.shift_pullback(idx.q_cartan_apply({x: 1}))
            assert lhs == rhs


@pytest.mark.parametrize("t", ["A2", "A3", "D4"])
def test_kernel_is_nonzero(t):
    idx = build_index(orient(t, "linear"))
    rows, cols, mat = idx.q_cartan_matrix()
    n, h = idx.quiver.n, idx.h
    assert len(rows) == len(cols) == n * h
    rank = matrix_rank(mat)
    assert rank < n * h
    # Concrete witness: v^f_i and v^(Sigma f_i) share the image w^f_i.
    for i in idx.quiver.vertices:
        a, b = v_f(idx, i), v_sigma_f(idx, i)
        assert a != b
        assert idx.q_cartan_apply(a) == idx.q_cartan_apply(b) == w_f(idx, i)
