"""Wider orientation coverage: rank-4 and D5/E6 sweeps, E7/E8 smoke, random
sampling.

Core claims:
    - the relation suite is orientation-uniform on every rank-4 quiver
    - verify_all passes on every orientation of D5 and E6 at mass cap 2, with
      one check count per type, so a check that vanishes on some orientation
      shows
    - knitting, index invariants, and the Cartan-vector identity survive on
      E7/E8 (large h) and on randomly sampled orientations of D5/D6/E6,
      drawn from a seed that is the same in every process
    - on both built-in orientations of E7 and E8, every module N lifts to a
      pair with residual e_{sigma N} and v in V+
"""

import random

import pytest

from cyclotome import (
    all_orientations,
    build_index,
    cones,
    iota,
    make_dynkin_quiver,
    orient,
    residual,
    v_f,
    v_sigma_f,
    verify_all,
    verify_ef,
    verify_ek,
    verify_kk,
    verify_serre,
    w_f,
)


@pytest.mark.parametrize("t", ["A4", "D4"])
def test_relation_suite_every_rank4_orientation(t):
    for q in all_orientations(t):
        idx = build_index(q)
        for i in idx.quiver.vertices:
            for j in idx.quiver.vertices:
                assert verify_ek(idx, i, j).passed, (q, "ek", i, j)
                assert verify_ef(idx, i, j).passed, (q, "ef", i, j)
                assert verify_kk(idx, i, j).passed, (q, "kk", i, j)
                if i != j:
                    assert verify_serre(idx, i, j).passed, (q, "serre", i, j)


@pytest.mark.parametrize("t", ["A2", "A3", "A4", "D4"])
def test_height_comparison_identity_every_rank4_orientation(t):
    from cyclotome import verify_same_form

    for q in all_orientations(t):
        assert verify_same_form(build_index(q)).passed, q


@pytest.mark.parametrize("t,checks", [("D5", 1224), ("E6", 1753)])
def test_verify_all_every_orientation(t, checks):
    counts = set()
    for q in all_orientations(t):
        reports = verify_all(build_index(q), mass_cap=2)
        assert all(r.passed for r in reports), q
        counts.add(sum(len(r.checks) for r in reports))
    assert counts == {checks}


@pytest.mark.parametrize("t,h", [("E7", 18), ("E8", 30)])
def test_large_types_smoke(t, h):
    for orientation in ("linear", "alternating"):
        idx = build_index(orient(t, orientation))
        n = idx.quiver.n
        assert idx.h == h
        assert len(idx.sigma_i_hat) == n * h
        assert len(idx.ar.modules) == n * h // 2
        for i in (1, n):
            wf = w_f(idx, i)
            assert idx.q_cartan_apply(v_f(idx, i)) == wf
            assert idx.q_cartan_apply(v_sigma_f(idx, i)) == wf
        v_plus = cones(idx).v_plus
        for slot in idx.ar.modules:
            pair = iota(idx, slot)
            assert residual(idx, pair) == {idx.sigma(idx.vertex_of_slot[slot]): 1}, slot
            assert set(pair.v) <= v_plus, slot


def random_orientation(rng, t):
    from cyclotome.quiver import standard_edges

    edges = standard_edges(t)
    n = max(max(e) for e in edges)
    arrows = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    return make_dynkin_quiver(n, arrows)


@pytest.mark.parametrize("t", ["D5", "D6", "E6"])
def test_random_orientations_keep_invariants(t):
    rng = random.Random(t)  # a str seed is the same in every process; hash(t) is not
    for _ in range(4):
        idx = build_index(random_orientation(rng, t))
        for i in idx.quiver.vertices:
            assert idx.q_cartan_apply(v_f(idx, i)) == w_f(idx, i)
        for v in idx.sigma_i_hat:
            assert idx.shift_vertex(idx.shift_vertex(v)) == v
            assert idx.pi(idx.object_at(v)) == v
        for slot in idx.ar.modules[:: max(1, len(idx.ar.modules) // 6)]:
            pair = iota(idx, slot)
            assert residual(idx, pair) == {idx.sigma(idx.vertex_of_slot[slot]): 1}
