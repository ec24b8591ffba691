"""Acceptance suite: one test per criterion, exact equality everywhere.

Each test prints a single PASS/FAIL line (run pytest with -s to see them all);
tolerances are zero by construction — every comparison is between exact
integers, half-integers, vectors, or formal sums.
"""

from itertools import product

from cyclotome import (
    VWPair,
    all_orientations,
    build_index,
    d_form,
    enumerate_l_dominant,
    iota,
    is_l_dominant,
    kostant_partitions,
    orient,
    residual,
    serre_quotient_dims,
    solve_w_tilde,
    solve_w_tilde_bruteforce,
    some_orientations,
    v_f,
    v_sigma_f,
    verify_ef,
    verify_ek,
    verify_kk,
    verify_same_form,
    verify_same_n,
    verify_serre,
    w_f,
)
from cyclotome.forms import leading_exponent
from cyclotome.laurent import HalfInt
from cyclotome.quiver import cartan_entry
from cyclotome.reflections import hom_dim_bruteforce
from cyclotome.vectors import add


def conclude(number: int, description: str, ok: bool):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number}: {description}"


LISTED_TYPES = ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6"]


def test_criterion_1_index_cardinalities():
    ok = True
    for t in LISTED_TYPES:
        idx = build_index(orient(t, "linear"))
        n, h = idx.quiver.n, idx.h
        ok = ok and len(idx.sigma_i_hat) == n * h and len(idx.i_hat) == n * h
    conclude(1, "index cardinality nh for A1-A5, D4, D5, E6", ok)


def test_criterion_2_cartan_vector_identity():
    ok = True
    for t in LISTED_TYPES:
        for q in some_orientations(t):
            idx = build_index(q)
            for i in idx.quiver.vertices:
                wf = w_f(idx, i)
                ok = ok and idx.q_cartan_apply(v_f(idx, i)) == wf
                ok = ok and idx.q_cartan_apply(v_sigma_f(idx, i)) == wf
    conclude(2, "w^f - C_q v^f = 0 = w^f - C_q v^Sigma-f, 3+ orientations each", ok)


def test_criterion_3_small_rank_fixtures():
    ok = True
    a1 = build_index(orient("A1", "linear"))
    ok = ok and v_f(a1, 1) == {(1, 1): 1}
    ok = ok and v_sigma_f(a1, 1) == {(1, 3): 1}
    ok = ok and w_f(a1, 1) == {(1, 0): 1, (1, 2): 1}

    a2 = build_index(orient("A2", "linear"))
    ar = a2.ar
    e = lambda slot: {a2.vertex_of_slot[slot]: 1}
    sig = ar.sigma_slot
    s1, s2, p2 = ar.simple[1], ar.simple[2], ar.projective[2]
    ok = ok and v_f(a2, 1) == add(e(s1), e(p2))
    ok = ok and v_f(a2, 2) == add(e(s2), e(sig[s1]))
    ok = ok and v_sigma_f(a2, 1) == add(e(sig[s1]), e(sig[p2]))
    ok = ok and v_sigma_f(a2, 2) == add(e(sig[s2]), e(s1))
    ok = ok and iota(a2, s1) == VWPair({}, {(1, 0): 1})
    ok = ok and iota(a2, s2) == VWPair({}, {(1, 2): 1})
    ok = ok and iota(a2, p2) == VWPair({(1, 1): 1}, {(1, 0): 1, (1, 2): 1})
    conclude(3, "A1/A2 Chevalley vectors and the three iota examples", ok)


def test_criterion_4_iota_identity_rank_le_6():
    ok = True
    for t in ["A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6"]:
        idx = build_index(orient(t, "alternating"))
        for slot in idx.ar.modules:
            pair = iota(idx, slot)
            want = {idx.sigma(idx.vertex_of_slot[slot]): 1}
            ok = ok and is_l_dominant(idx, pair)
            ok = ok and residual(idx, pair) == want
    conclude(4, "iota_W(N) - C_q iota_V(N) = e_sigma(N), every N, rank <= 6", ok)


def test_criterion_5_uniqueness_of_lifts_a3():
    idx = build_index(orient("A3", "linear"))
    basis = sorted(idx.sigma(idx.vertex_of_slot[s]) for s in idx.ar.modules)
    ok = True
    checked = 0
    for mass in range(1, 5):
        for combo in _multisets(basis, mass):
            wtilde = {}
            for y in combo:
                wtilde[y] = wtilde.get(y, 0) + 1
            sols = solve_w_tilde_bruteforce(idx, wtilde)
            ok = ok and sols == [solve_w_tilde(idx, wtilde)]
            checked += 1
    conclude(5, f"unique V+ x W^S lift for all {checked} weights of mass <= 4", ok)


def _multisets(pool, size):
    if size == 0:
        yield ()
        return
    for k, item in enumerate(pool):
        for rest in _multisets(pool[k:], size - 1):
            yield (item,) + rest


def test_criterion_6_enumeration_counts_follow_kostant():
    ok = True
    checked = 0
    for t in ("A2", "A3"):
        idx = build_index(orient(t, "linear"))
        verts = list(idx.quiver.vertices)
        for masses in product(range(7), repeat=len(verts)):
            if not 0 < sum(masses) <= 6:
                continue
            w = {}
            for i, m in zip(verts, masses):
                if m:
                    w[idx.sigma(idx.vertex_of_slot[idx.ar.simple[i]])] = m
            count = len(enumerate_l_dominant(idx, w))
            ok = ok and count == kostant_partitions(idx, tuple(masses))
            checked += 1
    conclude(6, f"|enumerate(w)| = Kostant count on {checked} W^S weights", ok)


def test_criterion_7_relation_suite():
    ok = True
    reports = 0
    for t in ("A2", "A3", "D4"):
        for q in all_orientations(t):
            idx = build_index(q)
            for i in idx.quiver.vertices:
                for j in idx.quiver.vertices:
                    rs = [
                        verify_ek(idx, i, j),
                        verify_ef(idx, i, j),
                        verify_kk(idx, i, j),
                    ]
                    if i != j:
                        rs.append(verify_serre(idx, i, j))
                    ok = ok and all(r.passed for r in rs)
                    reports += len(rs)
    conclude(7, f"EK/EF/KK/Serre pass: {reports} reports, all orientations", ok)


def test_criterion_8_section5_identities():
    ok = True
    for t in ("A3", "D4"):
        for q in all_orientations(t):
            ok = ok and verify_same_form(build_index(q)).passed
    a2 = build_index(orient("A2", "linear"))
    ok = ok and verify_same_n(a2, mass_cap=3).passed
    conclude(8, "height-comparison identity and the mass<=3 pair identity", ok)


def test_criterion_9_hom_oracle_equivalence():
    ok = True
    pairs = 0
    for t in ("A1", "A2", "A3", "A4", "D4"):
        for q in all_orientations(t):
            ar = build_index(q).ar
            objs = [ar.object_of_slot(s) for s in ar.window_slots()]
            for x in objs:
                for y in objs:
                    pairs += 1
                    ok = ok and ar.hom_dim(x, y) == hom_dim_bruteforce(ar, x, y)
    conclude(9, f"closed Hom formula == intertwiner oracle on {pairs} pairs", ok)


def test_criterion_10_graded_dimensions():
    ok = True
    for t, maxdeg in (("A2", 5), ("A3", 4)):
        q = orient(t, "linear")
        idx = build_index(q)
        dims = serre_quotient_dims(q, maxdeg)
        for beta, dim in dims.items():
            ok = ok and dim == kostant_partitions(idx, beta)
    conclude(10, "Serre-quotient graded dims = Kostant counts (A2<=5, A3<=4)", ok)


def test_criterion_11_structural_identities():
    ok = True
    for t in ("A3", "D4", "E6"):
        idx = build_index(orient(t, "linear"))
        ar = idx.ar
        for slot in ar.window_slots():
            x = ar.object_of_slot(slot)
            y = x
            for _ in range(ar.h):
                y = ar.tau(y)
            ok = ok and y == ar.sigma_shift(x, -2)
        for v in idx.i_hat | idx.sigma_i_hat:
            ok = ok and idx.shift_vertex(idx.shift_vertex(v)) == v
    for q in all_orientations("A3"):
        idx = build_index(q)
        sp = lambda m: VWPair(idx.shift_pullback(m.v), idx.shift_pullback(m.w))
        pool = []
        for i in idx.quiver.vertices:
            pool.append(VWPair({}, {idx.sigma(idx.vertex_of_slot[idx.ar.simple[i]]): 1}))
            pool.append(VWPair(v_f(idx, i), w_f(idx, i)))
            pool.append(VWPair(v_sigma_f(idx, i), w_f(idx, i)))
        for m1 in pool:
            for m2 in pool:
                ok = ok and d_form(idx, sp(m1), sp(m2)) == d_form(idx, m1, m2)
        for i in idx.quiver.vertices:
            for j in idx.quiver.vertices:
                m_e = VWPair({}, {idx.sigma(idx.vertex_of_slot[idx.ar.simple[i]]): 1})
                m_k = VWPair(v_f(idx, j), w_f(idx, j))
                diff = leading_exponent(idx, m_e, m_k) - leading_exponent(idx, m_k, m_e)
                ok = ok and diff == HalfInt.of(cartan_entry(idx.quiver, i, j))
    conclude(11, "tau^h = shift^-2, shift^2 = 1, d shift-equivariant, EK = a_ij", ok)
