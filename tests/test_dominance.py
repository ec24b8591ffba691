"""l-dominance, Cartan vectors, the iota lift, decomposition, enumeration.

Core claims:
    - the A1/A2 Chevalley vectors and iota values match their known forms
    - w^f_i - C_q v^f_i = 0 = w^f_i - C_q v^(Sigma f_i), all types, several
      orientations
    - iota_W(N) - C_q iota_V(N) = e_{sigma N} for every indecomposable
    - decompose splits l-dominant pairs into l-dominant triples that recombine
    - enumerate_l_dominant is complete (brute-force check) and counts follow
      Kostant partitions on the W^S sector
    - solve_w_tilde is the unique V+ x W^S lift (brute-force check)
    - the Kostant recursions go one level per root, not one per root copy:
      a multiplicity of 1500 neither overflows the stack nor changes the
      order in which the multisets come out
    - the lifts of beta that the enumerator keeps on the index are the iota
      images of the Kostant multisets of beta, one per multiset
    - the brute-force searches, which update their slack per coordinate and
      prune, find what a full capped product finds
    - no entry point leaves a reference cycle behind: with the cyclic
      collector off, a gc.collect() after each call finds nothing, also after
      a Kostant generator is dropped half-way
"""

import gc
from collections import Counter
from itertools import combinations_with_replacement, product

import pytest

from cyclotome import (
    NotDominantError,
    NotInWPlusError,
    UnsupportedWeightError,
    VWPair,
    build_index,
    cones,
    decompose,
    enumerate_l_dominant,
    enumerate_l_dominant_bruteforce,
    iota,
    is_l_dominant,
    kostant_multisets,
    kostant_partitions,
    orient,
    positive_roots,
    residual,
    solve_w_tilde,
    solve_w_tilde_bruteforce,
    some_orientations,
    v_f,
    v_sigma_f,
    w_f,
)
from cyclotome import dominance, serre_quotient_dims
from cyclotome.dominance import iota_additive
from cyclotome.vectors import add, canonical_order


def a1():
    return build_index(orient("A1", "linear"))


def a2():
    return build_index(orient("A2", "linear"))


def vertex_of(idx, name_slot):
    return idx.vertex_of_slot[name_slot]


def weights(basis, top):
    """Every sum of at most `top` basis vectors, as sparse vectors."""
    for mass in range(top + 1):
        for picks in combinations_with_replacement(basis, mass):
            yield dict(Counter(picks))


# == 1. Cartan vectors =============================================================

class TestCartanVectors:
    def test_a1_fixture(self):
        idx = a1()
        # v^f = e_S at (1,1); w^f = e_{sigma S} + e_{sigma Sigma S} at (1,0),(1,2)
        assert v_f(idx, 1) == {(1, 1): 1}
        assert w_f(idx, 1) == {(1, 0): 1, (1, 2): 1}
        assert v_sigma_f(idx, 1) == {(1, 3): 1}

    def test_a2_all_four_vectors(self):
        idx = a2()
        ar = idx.ar
        e = lambda slot: {idx.vertex_of_slot[slot]: 1}
        s1, p2, s2 = ar.simple[1], ar.projective[2], ar.simple[2]
        sig = ar.sigma_slot
        assert v_f(idx, 1) == add(e(s1), e(p2))
        assert v_f(idx, 2) == add(e(s2), e(sig[s1]))
        assert v_sigma_f(idx, 1) == add(e(sig[s1]), e(sig[p2]))
        assert v_sigma_f(idx, 2) == add(e(sig[s2]), e(s1))

    @pytest.mark.parametrize("t", ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6"])
    def test_cartan_identity(self, t):
        for q in some_orientations(t):
            idx = build_index(q)
            for i in idx.quiver.vertices:
                wf = w_f(idx, i)
                assert idx.q_cartan_apply(v_f(idx, i)) == wf
                assert idx.q_cartan_apply(v_sigma_f(idx, i)) == wf


# == 2. dominance and decomposition ==================================================

class TestDominance:
    def test_zero_v_always_dominant(self):
        idx = a2()
        for w in ({}, w_f(idx, 1), {(1, 0): 3, (2, 5): 1}):
            assert is_l_dominant(idx, VWPair({}, w))

    def test_a1_cartan_pair_dominant_with_zero_residual(self):
        idx = a1()
        pair = VWPair(v_f(idx, 1), w_f(idx, 1))
        assert is_l_dominant(idx, pair)
        assert residual(idx, pair) == {}

    def test_a1_single_weight_not_dominant(self):
        idx = a1()
        pair = VWPair({(1, 1): 1}, {(1, 0): 1})
        assert not is_l_dominant(idx, pair)
        # the failing coordinate is sigma Sigma S = (1, 2)
        assert residual(idx, pair) == {(1, 2): -1}

    def test_decompose_zero(self):
        idx = a2()
        zero = VWPair({}, {})
        assert decompose(idx, zero) == (zero, zero, zero)

    def test_decompose_a1_cartan(self):
        idx = a1()
        pair = VWPair(v_f(idx, 1), w_f(idx, 1))
        plus, cart, minus = decompose(idx, pair)
        assert plus == VWPair({}, {})
        assert cart == pair
        assert minus == VWPair({}, {})

    def test_decompose_a1_weight_only(self):
        idx = a1()
        pair = VWPair({}, w_f(idx, 1))
        plus, cart, minus = decompose(idx, pair)
        assert plus == VWPair({}, {(1, 0): 1})
        assert cart == VWPair({}, {})
        assert minus == VWPair({}, {(1, 2): 1})

    def test_decompose_rejects_non_dominant(self):
        idx = a1()
        with pytest.raises(NotDominantError):
            decompose(idx, VWPair({(1, 1): 1}, {(1, 0): 1}))

    def test_decompose_rejects_unsupported_weight(self):
        idx = a2()
        # sigma(P2) is not a W^S or W^SigmaS vertex
        bad = {idx.sigma(idx.vertex_of_slot[idx.ar.projective[2]]): 1}
        with pytest.raises(UnsupportedWeightError):
            decompose(idx, VWPair({}, bad))

    @pytest.mark.parametrize("t", ["A2", "A3", "D4"])
    def test_decompose_recombines_everywhere(self, t):
        idx = build_index(orient(t, "linear"))
        verts = list(idx.quiver.vertices)
        w = add(
            w_f(idx, verts[0]),
            {idx.sigma(idx.vertex_of_slot[idx.ar.simple[verts[-1]]]): 1},
        )
        for v in enumerate_l_dominant(idx, w):
            pair = VWPair(v, w)
            plus, cart, minus = decompose(idx, pair)
            assert plus + cart + minus == pair
            assert residual(idx, cart) == {}


# == 3. the iota lift ==================================================================

class TestIota:
    def test_a2_fixtures(self):
        idx = a2()
        ar = idx.ar
        assert iota(idx, ar.simple[1]) == VWPair({}, {(1, 0): 1})
        assert iota(idx, ar.simple[2]) == VWPair({}, {(1, 2): 1})
        assert iota(idx, ar.projective[2]) == VWPair(
            {(1, 1): 1}, {(1, 0): 1, (1, 2): 1}
        )

    @pytest.mark.parametrize(
        "t", ["A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6"]
    )
    def test_lift_identity_every_indecomposable(self, t):
        idx = build_index(orient(t, "alternating"))
        for slot in idx.ar.modules:
            pair = iota(idx, slot)
            assert is_l_dominant(idx, pair)
            expected = {idx.sigma(idx.vertex_of_slot[slot]): 1}
            assert residual(idx, pair) == expected

    def test_lift_lands_in_v_plus_w_s(self):
        idx = build_index(orient("D4", "linear"))
        co = cones(idx)
        for slot in idx.ar.modules:
            pair = iota(idx, slot)
            assert all(k in co.v_plus for k in pair.v)
            assert all(k in co.w_s for k in pair.w)


# == 4. solve_w_tilde ===================================================================

class TestSolve:
    def test_simple_weight_lifts_trivially(self):
        idx = a2()
        for i in idx.quiver.vertices:
            y = idx.sigma(idx.vertex_of_slot[idx.ar.simple[i]])
            assert solve_w_tilde(idx, {y: 1}) == VWPair({}, {y: 1})

    def test_a2_projective_weight(self):
        idx = a2()
        y = idx.sigma(idx.vertex_of_slot[idx.ar.projective[2]])
        assert solve_w_tilde(idx, {y: 1}) == iota(idx, idx.ar.projective[2])

    def test_additive_over_simples(self):
        idx = a2()
        y1 = idx.sigma(idx.vertex_of_slot[idx.ar.simple[1]])
        y2 = idx.sigma(idx.vertex_of_slot[idx.ar.simple[2]])
        assert solve_w_tilde(idx, {y1: 1, y2: 1}) == VWPair({}, {y1: 1, y2: 1})

    def test_rejects_vectors_outside_w_plus(self):
        idx = a1()
        with pytest.raises(NotInWPlusError):
            solve_w_tilde(idx, {(1, 2): 1})  # sigma Sigma S is not in W+

    def test_uniqueness_small_a2(self):
        idx = a2()
        ws = sorted(idx.sigma(idx.vertex_of_slot[s]) for s in idx.ar.modules)
        for y1 in ws:
            for y2 in ws:
                wt = add({y1: 1}, {y2: 1})
                sols = solve_w_tilde_bruteforce(idx, wt)
                assert sols == [solve_w_tilde(idx, wt)]

    @pytest.mark.parametrize("t,top", [("A3", 5), ("A4", 3)])
    def test_uniqueness_beyond_criterion_5(self, t, top):
        idx = build_index(orient(t, "linear"))
        for wt in weights(sorted(cones(idx).w_plus), top):
            assert solve_w_tilde_bruteforce(idx, wt) == [solve_w_tilde(idx, wt)], wt

    @pytest.mark.parametrize("t", ["A2", "A3"])
    def test_pruned_search_is_the_full_product(self, t):
        idx = build_index(orient(t, "linear"))
        co = cones(idx)
        v_coords = sorted(co.v_plus)
        for wt in weights(sorted(idx.i_hat), 2):
            cap = sum(wt.values()) * idx.h
            full = []
            for values in product(range(cap + 1), repeat=len(v_coords)):
                v = {x: val for x, val in zip(v_coords, values) if val}
                w = add(wt, idx.q_cartan_apply(v))
                if all(c >= 0 for c in w.values()) and all(k in co.w_s for k in w):
                    full.append(VWPair(v, w))
            assert solve_w_tilde_bruteforce(idx, wt) == sorted(full), wt


# == 5. Kostant partitions ===============================================================

class TestKostant:
    def test_simple_root(self):
        idx = a2()
        assert kostant_partitions(idx, (1, 0)) == 1

    def test_zero(self):
        idx = a2()
        assert kostant_partitions(idx, (0, 0)) == 1

    def test_a2_highest_root(self):
        idx = a2()
        assert kostant_partitions(idx, (1, 1)) == 2
        assert kostant_partitions(idx, (2, 1)) == 2

    def test_multisets_match_counts(self):
        idx = build_index(orient("A3", "linear"))
        for beta in [(1, 1, 0), (1, 1, 1), (2, 1, 1), (0, 2, 1)]:
            assert len(list(kostant_multisets(idx, beta))) == kostant_partitions(
                idx, beta
            )

    def test_d4_highest_root(self):
        idx = build_index(orient("D4", "linear"))
        # beta = alpha_1 + alpha_2 + alpha_3 + alpha_4 around the triple point
        count = kostant_partitions(idx, (1, 1, 1, 1))
        by_hand = len(list(kostant_multisets(idx, (1, 1, 1, 1))))
        assert count == by_hand

    def test_a_large_multiplicity(self):
        idx = build_index(orient("A3", "linear"))
        assert kostant_partitions(idx, (1500, 0, 0)) == 1
        assert list(kostant_multisets(idx, (1500, 0, 0))) == [[(1, 0, 0)] * 1500]

    @pytest.mark.parametrize("t", ["A3", "A4", "D4"])
    def test_yield_order_is_the_one_copy_per_level_recursion(self, t):
        idx = build_index(orient(t, "alternating"))
        roots = positive_roots(idx)

        def one_copy_per_level(remaining, start):
            """The recursion kostant_multisets had before: one level per root
            copy, so its depth grows with the multiplicities."""
            if all(x == 0 for x in remaining):
                yield []
                return
            for k in range(start, len(roots)):
                r = roots[k]
                if all(a >= b for a, b in zip(remaining, r)):
                    rest = tuple(a - b for a, b in zip(remaining, r))
                    for tail in one_copy_per_level(rest, k):
                        yield [r] + tail

        for beta in product(range(4), repeat=idx.quiver.n):
            reference = list(one_copy_per_level(beta, 0))
            assert list(kostant_multisets(idx, beta)) == reference, beta
            assert kostant_partitions(idx, beta) == len(reference), beta


# == 6. enumeration ======================================================================

class TestEnumerate:
    def test_cartan_weight_gives_three(self):
        idx = a2()
        for i in idx.quiver.vertices:
            got = enumerate_l_dominant(idx, w_f(idx, i), verify=True)
            assert got == canonical_order([{}, v_f(idx, i), v_sigma_f(idx, i)])

    def test_mixed_simple_weights_give_zero_only(self):
        idx = a2()
        s1 = idx.sigma(idx.vertex_of_slot[idx.ar.simple[1]])
        ss2 = idx.sigma(
            idx.shift_vertex(idx.vertex_of_slot[idx.ar.simple[2]])
        )
        assert enumerate_l_dominant(idx, {s1: 1, ss2: 1}, verify=True) == [{}]

    def test_a2_two_kostant_partitions(self):
        idx = a2()
        s1 = idx.sigma(idx.vertex_of_slot[idx.ar.simple[1]])
        s2 = idx.sigma(idx.vertex_of_slot[idx.ar.simple[2]])
        got = enumerate_l_dominant(idx, {s1: 1, s2: 1}, verify=True)
        assert got == canonical_order([{}, {(1, 1): 1}])

    def test_rejects_unsupported_weight(self):
        idx = a2()
        bad = {idx.sigma(idx.vertex_of_slot[idx.ar.projective[2]]): 1}
        with pytest.raises(UnsupportedWeightError):
            enumerate_l_dominant(idx, bad)

    def test_counts_are_kostant_on_ws(self):
        idx = a2()
        verts = list(idx.quiver.vertices)
        for m1 in range(4):
            for m2 in range(4):
                w = {}
                if m1:
                    w[idx.sigma(idx.vertex_of_slot[idx.ar.simple[1]])] = m1
                if m2:
                    w[idx.sigma(idx.vertex_of_slot[idx.ar.simple[2]])] = m2
                assert len(enumerate_l_dominant(idx, w)) == kostant_partitions(
                    idx, (m1, m2)
                )

    def test_brute_force_agrees_on_mixed_sector(self):
        idx = a2()
        s1 = idx.vertex_of_slot[idx.ar.simple[1]]
        w = add(
            {idx.sigma(s1): 1},
            {idx.sigma(idx.shift_vertex(s1)): 1},
            {idx.sigma(idx.vertex_of_slot[idx.ar.simple[2]]): 1},
        )
        structural = enumerate_l_dominant(idx, w)
        brute = enumerate_l_dominant_bruteforce(idx, w)
        assert structural == brute

    def test_a3_mixed_sector_verified(self):
        idx = build_index(orient("A3", "linear"))
        s = {i: idx.vertex_of_slot[idx.ar.simple[i]] for i in (1, 2, 3)}
        w = add(
            {idx.sigma(s[1]): 1},
            {idx.sigma(s[2]): 1},
            {idx.sigma(idx.shift_vertex(s[1])): 1},
            {idx.sigma(idx.shift_vertex(s[2])): 1},
        )
        got = enumerate_l_dominant(idx, w, verify=True)
        # sum over Cartan splittings: 4 + 2 + 2 + 4
        assert len(got) == 12

    def test_triangular_count_identity(self):
        # |enumerate(w)| for w = m e_{sigma S_i} + m' e_{sigma Sigma S_i}
        # equals sum over Cartan splittings of Kostant products.
        idx = a2()
        s1 = idx.vertex_of_slot[idx.ar.simple[1]]
        for m in range(3):
            for mp in range(3):
                w = add(
                    {idx.sigma(s1): m} if m else {},
                    {idx.sigma(idx.shift_vertex(s1)): mp} if mp else {},
                )
                total = sum(
                    (c + 1)
                    * kostant_partitions(idx, (m - c, 0))
                    * kostant_partitions(idx, (mp - c, 0))
                    for c in range(min(m, mp) + 1)
                )
                assert len(enumerate_l_dominant(idx, w)) == total

    @pytest.mark.parametrize("t,cap", [("A2", 2), ("A3", 1)])
    def test_brute_force_is_the_full_capped_product(self, t, cap):
        idx = build_index(orient(t, "linear"))
        coords = sorted(idx.sigma_i_hat)
        residuals = []
        for values in product(range(cap + 1), repeat=len(coords)):
            v = {x: val for x, val in zip(coords, values) if val}
            residuals.append((v, idx.q_cartan_apply(v)))
        for w in weights(sorted(idx.i_hat), 2):
            full = [v for v, cv in residuals if all(w.get(y, 0) >= c for y, c in cv.items())]
            assert enumerate_l_dominant_bruteforce(idx, w, cap) == canonical_order(full), w


# == 7. the stored lifts =================================================================

@pytest.mark.parametrize("t,top", [("A3", 2), ("A4", 2), ("D4", 2), ("E6", 1)])
def test_stored_lifts_are_the_kostant_lifts(t, top):
    idx = build_index(orient(t, "alternating"))
    ar = idx.ar
    order, _, _ = dominance._dense_order(idx)
    for beta in product(range(top + 1), repeat=ar.quiver.n):
        stored = dominance._module_lift_vs(idx, beta)
        got = {tuple(sorted((order[k], c) for k, c in enumerate(v) if c)) for v in stored}
        want = {
            tuple(iota_additive(idx, Counter(ar.slot_of_root[r] for r in m).items()).v.items())
            for m in kostant_multisets(idx, beta)
        }
        assert got == want, beta
        assert len(stored) == len(got) == kostant_partitions(idx, beta), beta


# == 8. composite lifts ===================================================================

def test_iota_additive_matches_residual():
    idx = build_index(orient("A3", "linear"))
    ar = idx.ar
    multiset = [(ar.projective[2], 2), (ar.simple[3], 1)]
    pair = iota_additive(idx, multiset)
    expected = add(
        {idx.sigma(idx.vertex_of_slot[ar.projective[2]]): 2},
        {idx.sigma(idx.vertex_of_slot[ar.simple[3]]): 1},
    )
    assert residual(idx, pair) == expected


# == 9. reference cycles ==================================================================

def simple_weight(idx, masses):
    """The W^S weight with multiplicity masses[i - 1] at sigma(S_i)."""
    return {idx.sigma(idx.vertex_of_slot[idx.ar.simple[i]]): m for i, m in enumerate(masses, 1) if m}


@pytest.mark.parametrize("call", [
    lambda idx: enumerate_l_dominant(idx, simple_weight(idx, (1, 1, 0))),
    lambda idx: enumerate_l_dominant(idx, simple_weight(idx, (1, 2, 1)), verify=True),
    lambda idx: enumerate_l_dominant_bruteforce(idx, simple_weight(idx, (1, 1, 0))),
    lambda idx: solve_w_tilde_bruteforce(idx, {idx.sigma(idx.vertex_of_slot[idx.ar.projective[2]]): 1}),
    lambda idx: list(kostant_multisets(idx, (1, 2, 1))),
    lambda idx: next(kostant_multisets(idx, (2, 2, 2))),
    lambda idx: kostant_partitions(idx, (2, 3, 2)),
    lambda idx: serre_quotient_dims(idx.quiver, 4),
], ids=["enumerate", "enumerate-verify", "enumerate-bruteforce", "solve-bruteforce",
        "multisets", "multisets-dropped", "partitions", "serre-dims"])
def test_entry_points_leave_no_reference_cycles(call):
    idx = build_index(orient("A3", "linear"))  # fresh, so each call builds what it stores
    gc.collect()
    gc.disable()
    try:
        call(idx)
        assert gc.collect() == 0
    finally:
        gc.enable()
