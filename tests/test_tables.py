"""The per-quiver tables on ARQuiver and CycIndex, which both keep every
invariant through Tables.stored.

Core claims:
    - stored(key, build, *args) calls build(*args) once per key, on the first
      read, and hands back that value on every later read, a falsy value
      (0, {}, None) included
    - v_f and v_sigma_f hand out copies: mutating one leaves the next call as
      it was
    - the tables depend only on the quiver, never on the order of the
      queries: an index queried in order and a fresh index queried in reverse
      order agree on v_f, v_sigma_f, cones, iota of every module, hom_dim on
      every module pair at gaps 0 and 1, the Kostant count of every root
      of height at most 3 and of its sum with its mirror in the sorted list of
      those roots, and enumerate_l_dominant on every W^S + W^SigmaS weight of
      mass at most 2
    - the Kostant lifts of a root vector, kept on the index, still go through
      the injectivity check when they are built: lifts that collide raise
      EnumerationMismatchError; and no enumeration hands out a vector that a
      later one reads
    - the stored Euler pairing that hom_dim, hl_form and verify_same_form
      read is the Euler form of the two modules' roots
"""

from itertools import combinations_with_replacement

import pytest

from cyclotome import (
    EnumerationMismatchError, build_index, cones, enumerate_l_dominant, euler_form, iota, knit,
    kostant_partitions, orient, positive_roots, some_orientations, v_f, v_sigma_f,
)
from cyclotome import dominance
from cyclotome.derived import DerivedObject
from cyclotome.quiver import Tables

TYPES = ["A1", "A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6", "E7", "E8"]


@pytest.mark.parametrize("value", [0, {}, None, (1, 2)], ids=repr)
def test_stored_builds_once_per_key(value):
    tables, built = Tables(), []

    def build(*args):
        built.append(args)
        return value

    for _ in range(3):
        assert tables.stored("key", build, 1, 2) is value
    assert tables.stored(("key", 2), build) is value
    assert built == [(1, 2), ()]


@pytest.mark.parametrize("getter", [v_f, v_sigma_f], ids=lambda f: f.__name__)
def test_returned_vectors_are_copies(getter):
    idx = build_index(orient("D4", "alternating"))
    for i in idx.quiver.vertices:
        first = getter(idx, i)
        expected = dict(first)
        first[next(iter(first))] += 5
        first[(0, 0)] = 1
        assert getter(idx, i) == expected


LOOKUPS = {
    "v_f": v_f, "v_sigma_f": v_sigma_f, "cones": cones, "iota": iota,
    "kostant": kostant_partitions,
    "enumerate": lambda idx, items: enumerate_l_dominant(idx, dict(items)),
}


def _small_weights(idx):
    """Every weight on W^S + W^SigmaS of mass at most 2, as sorted item tuples."""
    co = cones(idx)
    basis = sorted(co.w_s | co.w_sigma_s)
    out = []
    for mass in range(3):
        for picks in combinations_with_replacement(basis, mass):
            w = {}
            for y in picks:
                w[y] = w.get(y, 0) + 1
            out.append(tuple(sorted(w.items())))
    return out


def _queries(idx):
    """Every table-backed value of an index, as (kind, *arguments) tuples."""
    verts = list(idx.quiver.vertices)
    modules = idx.ar.modules
    low = [r for r in positive_roots(idx) if sum(r) <= 3]
    betas = low + [tuple(map(sum, zip(r, s))) for r, s in zip(low, reversed(low))]
    return (
        [("v_f", i) for i in verts]
        + [("v_sigma_f", i) for i in verts]
        + [("cones",)]
        + [("iota", m) for m in modules]
        + [("hom", x, y, gap) for gap in (0, 1) for x in modules for y in modules]
        + [("kostant", beta) for beta in betas]
        + [("enumerate", items) for items in _small_weights(idx)]
    )


def _answer(idx, query):
    kind, *args = query
    if kind == "hom":
        x, y, gap = args
        return idx.ar.hom_dim(DerivedObject(x, 0), DerivedObject(y, gap))
    return LOOKUPS[kind](idx, *args)


@pytest.mark.parametrize("dynkin_type", TYPES)
def test_query_order_does_not_matter(dynkin_type):
    for q in some_orientations(dynkin_type):
        first, second = build_index(q), build_index(q)
        queries = _queries(first)
        forward = {query: _answer(first, query) for query in queries}
        backward = {query: _answer(second, query) for query in reversed(queries)}
        assert forward == backward


@pytest.mark.parametrize("dynkin_type", ["A3", "D4", "E6"])
def test_euler_pairing_is_the_euler_form_of_the_roots(dynkin_type):
    ar = knit(orient(dynkin_type, "alternating"))
    for m in ar.modules:
        for n in ar.modules:
            expected = euler_form(ar.quiver, ar.root_of[m], ar.root_of[n])
            assert ar.euler_pairing(m, n) == expected


def test_colliding_lifts_raise(monkeypatch):
    # lift the module of root alpha_1 + alpha_2 to iota(S1) + iota(S2): its
    # two Kostant multisets then lift to one v
    idx = build_index(orient("A2", "linear"))
    ar, real = idx.ar, dominance.iota
    top, s1, s2 = (ar.slot_of_root[r] for r in ((1, 1), (1, 0), (0, 1)))

    def colliding(index, slot):
        return real(index, s1) + real(index, s2) if slot == top else real(index, slot)

    monkeypatch.setattr(dominance, "iota", colliding)
    w = {y: 1 for y in cones(idx).w_s}
    with pytest.raises(EnumerationMismatchError, match="lifted to one v"):
        enumerate_l_dominant(idx, w)


def test_enumerations_hand_out_fresh_vectors():
    idx = build_index(orient("D4", "alternating"))
    for items in _small_weights(idx):
        first = enumerate_l_dominant(idx, dict(items))
        expected = [dict(v) for v in first]
        for v in first:
            for k in list(v):
                v[k] += 3
            v[(0, 0)] = 1
        first.append({(0, 1): 1})
        assert enumerate_l_dominant(idx, dict(items)) == expected
