"""The relation verifier: EK / EF / KK / Serre, section-5 identities, and the
exponent dictionary.

Core claims:
    - every verifier passes on the small types, all orientations
    - the numeric fixtures (twisted exponents, shifts, Serre case data) match
    - reports expose exact computed/expected values and serialize to JSON
    - verify(index, relation) gives exactly the reports verify_all gives for
      that relation
    - no verifier passes vacuously: serre on i = i and same-form on a quiver
      with one module raise CaseMismatchError
    - same-n evaluates only the ordered pairs of the module lifts of height
      <= its cap: its verdict is that of the full loop over all N^2 ordered
      pairs of the enumerated pool, the lifts lie in the pool and span it
      with independent rows (by the Fraction RREF), a perturbed hl_form is
      caught with real failing pairs, and both sides of the identity are
      bilinear off the l-dominant pairs too
    - same-n reads N from the Kostant counts of the mass vectors of total
      <= its cap, in the order of the filtered product of masses, so a cap
      of 10**20 raises no OverflowError; a cap below 1 raises
      CaseMismatchError, since no lift would be evaluated
"""

import json
import random
from itertools import product

import pytest

from cyclotome import forms, relations
from cyclotome import (
    VWPair,
    RELATIONS,
    build_index,
    all_orientations,
    orient,
    chevalley_exponent_table,
    chevalley_generators,
    verify,
    verify_all,
    verify_ef,
    verify_ek,
    verify_kk,
    verify_same_form,
    verify_same_n,
    verify_serre,
)
from cyclotome.dominance import (
    enumerate_l_dominant, iota, is_l_dominant, kostant_partitions, residual, sigma_simples,
)
from cyclotome.forms import hl_extension, script_n
from cyclotome.laurent import HalfInt
from cyclotome.reflections import matrix_rank
from cyclotome.relations import CaseMismatchError
from cyclotome.vectors import add, scale


def check_value(report, name):
    for c in report.checks:
        if c.name == name:
            return c.computed
    raise KeyError(name)


def a2():
    return build_index(orient("A2", "linear"))


# == 1. EK =========================================================================

class TestEK:
    def test_diagonal_exponents(self):
        rep = verify_ek(a2(), 1, 1)
        assert rep.passed
        assert check_value(rep, "E,K': tilde exponent") == 2
        assert check_value(rep, "E,K': twisted exponent") == HalfInt.of(2)

    def test_a2_off_diagonal(self):
        rep = verify_ek(a2(), 1, 2)
        assert rep.passed
        assert check_value(rep, "E,K': twisted exponent") == HalfInt.of(-1)

    def test_a3_orthogonal_pair(self):
        idx = build_index(orient("A3", "linear"))
        rep = verify_ek(idx, 1, 3)
        assert rep.passed
        assert check_value(rep, "E,K': twisted exponent") == HalfInt.of(0)

    def test_all_pairs_all_orientations_a3(self):
        for q in all_orientations("A3"):
            idx = build_index(q)
            for i in idx.quiver.vertices:
                for j in idx.quiver.vertices:
                    assert verify_ek(idx, i, j).passed, (q, i, j)


# == 2. EF =========================================================================

class TestEF:
    def test_a1_shifts(self):
        idx = build_index(orient("A1", "linear"))
        rep = verify_ef(idx, 1, 1)
        assert rep.passed
        assert check_value(rep, "EF shifts at v^f, v^Sigma f, 0") == (1, -1, 0)

    def test_a2_off_diagonal_commutes(self):
        rep = verify_ef(a2(), 1, 2)
        assert rep.passed

    def test_formal_identity_structure(self):
        idx = a2()
        rep = verify_ef(idx, 2, 2)
        assert rep.passed
        names = [c.name for c in rep.checks]
        assert "[E,F] = (t - t^-1)(K' - K) labels" in names

    def test_all_orientations_a2(self):
        for q in all_orientations("A2"):
            idx = build_index(q)
            for i in (1, 2):
                for j in (1, 2):
                    assert verify_ef(idx, i, j).passed


# == 3. KK =========================================================================

class TestKK:
    def test_diagonal_exponent_zero(self):
        rep = verify_kk(a2(), 1, 1)
        assert rep.passed
        assert check_value(rep, "K'K': tilde exponent") == 0

    def test_a2_tilde_exponent(self):
        rep = verify_kk(a2(), 1, 2)
        assert rep.passed
        assert check_value(rep, "K'K': tilde exponent") == 1
        assert check_value(rep, "K'K': twisted exponent") == HalfInt.of(0)

    def test_all_pairs_d4(self):
        idx = build_index(orient("D4", "alternating"))
        for i in idx.quiver.vertices:
            for j in idx.quiver.vertices:
                assert verify_kk(idx, i, j).passed


# == 4. quantum Serre ===============================================================

class TestSerre:
    def test_a2_case_one(self):
        rep = verify_serre(a2(), 1, 2)
        assert rep.passed
        assert check_value(rep, "case (i): chi") == 1
        # in A2 the almost-split sequence ending at S_2 is S_1 -> P_2 -> S_2,
        # so delta = 1; it shows up as the stated d-value
        assert check_value(rep, "d((0,e_sigmaSj),(e_Si,e_sigmaSi))") == 1

    def test_a2_case_two(self):
        rep = verify_serre(a2(), 2, 1)
        assert rep.passed
        assert check_value(rep, "case (ii): (delta, chi)") == (0, -1)

    def test_star_orientation_case_one_with_zero_delta(self):
        # vertex 2 a sink: the middle term of the sequence ending at S_1 is
        # not simple, so delta = 0 while chi = 1; the cubic still cancels
        from cyclotome import make_dynkin_quiver

        idx = build_index(make_dynkin_quiver(3, [(1, 2), (3, 2)]))
        rep = verify_serre(idx, 2, 1)
        assert rep.passed
        assert check_value(rep, "case (i): chi") == 1
        assert check_value(rep, "d((0,e_sigmaSj),(e_Si,e_sigmaSi))") == 0

    def test_a3_nonadjacent_commutes(self):
        idx = build_index(orient("A3", "linear"))
        rep = verify_serre(idx, 1, 3)
        assert rep.passed
        assert check_value(rep, "case") == "commuting"

    def test_diagonal_rejected(self):
        with pytest.raises(CaseMismatchError):
            verify_serre(a2(), 1, 1)

    def test_all_ordered_pairs_all_orientations_a3(self):
        for q in all_orientations("A3"):
            idx = build_index(q)
            for i in idx.quiver.vertices:
                for j in idx.quiver.vertices:
                    if i != j:
                        assert verify_serre(idx, i, j).passed, (q, i, j)


# == 5. section-5 identities ==========================================================

class TestSection5:
    def test_same_form_a2_a3(self):
        for t in ("A2", "A3"):
            idx = build_index(orient(t, "linear"))
            assert verify_same_form(idx).passed

    def test_same_n_a2(self):
        rep = verify_same_n(a2(), mass_cap=3)
        assert rep.passed

    def test_same_form_all_orientations_a3(self):
        for q in all_orientations("A3"):
            assert verify_same_form(build_index(q)).passed

    def test_same_form_rejects_a_single_module(self):
        # A1 has one module, so no ordered pair of distinct modules to compare
        idx = build_index(orient("A1"))
        with pytest.raises(CaseMismatchError):
            verify_same_form(idx)
        assert verify(idx, "same-form") == []


def same_n_masses(idx, mass_cap):
    """The mass vectors of total <= mass_cap, in the order same-n counts them:
    the full product of masses, filtered."""
    return [
        masses for masses in product(range(mass_cap + 1), repeat=idx.quiver.n)
        if sum(masses) <= mass_cap
    ]


def same_n_pool(idx, mass_cap):
    """Every l-dominant pair in V+ x W^S of mass <= mass_cap, enumerated."""
    pool = []
    for masses in same_n_masses(idx, mass_cap):
        w = {sigma_simples(idx, i)[0]: m for i, m in zip(idx.quiver.vertices, masses) if m}
        pool += [VWPair(v, w) for v in enumerate_l_dominant(idx, w)]
    return pool


def same_n_lifts(idx, mass_cap):
    """The lifts of the modules of height <= mass_cap."""
    return [iota(idx, m) for m in idx.ar.modules if sum(idx.ar.root_of[m]) <= mass_cap]


def vw_rows(pool):
    """Each pair's (v, w) coordinates as an integer row over their sorted union."""
    coords = sorted({x for m in pool for x in (*m.v, *m.w)})
    return [[m.v.get(x, 0) + m.w.get(x, 0) for x in coords] for m in pool]


def same_n_holds(idx, m1, m2):
    rhs = HalfInt(hl_extension(idx, residual(idx, m1), residual(idx, m2)))
    return script_n(idx, m1, m2) == rhs


SAME_N_CASES = [
    (t, o, cap)
    for t, cap in (("A2", 3), ("A3", 3), ("A4", 3), ("D4", 3), ("E6", 3))
    for o in ("linear", "alternating")
]


class TestSameNCertificate:
    @pytest.mark.parametrize("t,o,cap", SAME_N_CASES)
    def test_basis_verdict_is_the_full_loops(self, t, o, cap):
        idx = build_index(orient(t, o))
        pool = same_n_pool(idx, cap)
        rep = verify_same_n(idx, cap)
        assert [c.name for c in rep.checks] == [
            f"identity holds on all {len(pool)}^2 ordered pairs"
        ]
        assert rep.passed
        assert all(same_n_holds(idx, m1, m2) for m1 in pool for m2 in pool)
        lifts = same_n_lifts(idx, cap)
        assert set(lifts) <= set(pool)
        rows = vw_rows(pool + lifts)
        assert matrix_rank(rows[:len(pool)]) == matrix_rank(rows) == len(lifts) < len(pool)

    @pytest.mark.parametrize("t", ["A3", "D4"])
    def test_it_evaluates_each_ordered_lift_pair_once(self, t, monkeypatch):
        idx = build_index(orient(t, "alternating"))
        for cap in range(1, 6):
            seen = []

            def recording(index, m1, m2):
                seen.append((m1, m2))
                return script_n(index, m1, m2)

            monkeypatch.setattr(relations, "script_n", recording)
            assert verify_same_n(idx, cap).passed
            lifts = same_n_lifts(idx, cap)
            assert seen == [(m1, m2) for m1 in lifts for m2 in lifts]

    def test_a_perturbed_hl_form_fails_on_real_pairs(self, monkeypatch):
        idx = build_index(orient("A3", "alternating"))
        m0, n0 = idx.ar.modules[0], idx.ar.modules[1]
        honest = forms.hl_form

        def perturbed(index, m, n):
            return honest(index, m, n) + ((m, n) == (m0, n0))

        monkeypatch.setattr(forms, "hl_form", perturbed)
        rep = verify_same_n(idx, 3)
        assert not rep.passed
        failures = rep.checks[0].computed
        pool = same_n_pool(idx, 3)
        assert failures and len(failures) < len(pool) ** 2
        for m1, m2, lhs, rhs in failures:
            assert m1 in pool and m2 in pool
            assert lhs == script_n(idx, m1, m2)
            assert rhs == HalfInt(hl_extension(idx, residual(idx, m1), residual(idx, m2)))
            assert not same_n_holds(idx, m1, m2)

    @pytest.mark.parametrize("t", ["A3", "D4"])
    def test_weights_are_the_filtered_product(self, t, monkeypatch):
        idx = build_index(orient(t, "alternating"))
        for cap in range(1, 5):
            seen = []

            def recording(index, beta):
                seen.append(beta)
                return kostant_partitions(index, beta)

            monkeypatch.setattr(relations, "kostant_partitions", recording)
            assert verify_same_n(idx, cap).passed
            assert seen == same_n_masses(idx, cap)

    def test_a_huge_cap_reaches_the_count(self, monkeypatch):
        class Reached(Exception):
            pass

        def stop(index, beta):
            raise Reached

        monkeypatch.setattr(relations, "kostant_partitions", stop)
        with pytest.raises(Reached):
            verify_same_n(a2(), 10**20)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_a_cap_below_one_is_rejected(self, cap):
        # no module has height 0, so no lift would be evaluated
        with pytest.raises(CaseMismatchError):
            verify_same_n(a2(), cap)

    @pytest.mark.parametrize("t", ["A3", "D4"])
    def test_both_sides_are_bilinear(self, t):
        idx = build_index(orient(t, "alternating"))
        pool = same_n_pool(idx, 3)
        rng = random.Random(4096)

        def combination():
            """Seeded terms (c, part), each part the v half or the w half of a
            pool pair, and their sum: a pair that is mostly not l-dominant."""
            terms = [(rng.randint(1, 3), VWPair(m.v, {})) for m in rng.sample(pool, 3)]
            terms += [(1, VWPair({}, rng.choice(pool).w))]
            total = VWPair(
                add(*(scale(p.v, c) for c, p in terms)), add(*(scale(p.w, c) for c, p in terms))
            )
            return terms, total

        not_dominant = 0
        for _ in range(20):
            (t1, x1), (t2, x2) = combination(), combination()
            not_dominant += not is_l_dominant(idx, x1)
            lhs = sum(c1 * c2 * script_n(idx, p1, p2).twice for c1, p1 in t1 for c2, p2 in t2)
            assert script_n(idx, x1, x2).twice == lhs
            rhs = sum(
                c1 * c2 * hl_extension(idx, residual(idx, p1), residual(idx, p2))
                for c1, p1 in t1 for c2, p2 in t2
            )
            assert hl_extension(idx, residual(idx, x1), residual(idx, x2)) == rhs
        assert not_dominant > 10


# == 6. the dictionary and the driver ===================================================

class TestDictionary:
    def test_generator_labels(self):
        idx = a2()
        gens = chevalley_generators(idx)
        assert set(gens) == {"E1", "E2", "F1", "F2", "K1", "K2", "K'1", "K'2"}
        assert gens["K'1"].v == {(1, 1): 1, (2, 2): 1}

    def test_exponent_table_a2(self):
        rep = chevalley_exponent_table(a2())
        assert rep.passed

    def test_exponent_table_a3(self):
        idx = build_index(orient("A3", "alternating"))
        rep = chevalley_exponent_table(idx)
        assert rep.passed

    def test_verify_all_a2(self):
        reports = verify_all(a2())
        assert reports
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("relation", RELATIONS)
    def test_verify_matches_verify_all(self, relation):
        idx = build_index(orient("A3", "alternating"))
        reports = verify(idx, relation, mass_cap=2)
        assert reports
        assert [r.to_dict() for r in reports] == [
            r.to_dict() for r in verify_all(idx, mass_cap=2) if r.relation == relation
        ]

    def test_verify_rejects_an_unknown_relation(self):
        with pytest.raises(ValueError, match="unknown relation"):
            verify(a2(), "all")

    def test_report_serializes(self):
        rep = verify_ek(a2(), 1, 2)
        payload = json.dumps(rep.to_dict())
        parsed = json.loads(payload)
        assert parsed["pass"] is True
        assert parsed["relation"] == "ek"
        assert all(c["pass"] for c in parsed["checks"])

    def test_failing_check_fails_report(self):
        from cyclotome.relations import Check, VerificationReport

        rep = VerificationReport("demo", "A2", "", ())
        rep.add("doomed", 1, 2)
        assert not rep.passed
        payload = rep.to_dict()
        assert payload["pass"] is False
        assert payload["checks"][0]["pass"] is False

    def test_relabeling_invariance_a2(self):
        # the two linear A2 orientations differ by swapping vertex labels
        r1 = verify_ek(build_index(orient("A2", "linear")), 1, 2)
        q_rev = [q for q in all_orientations("A2") if q.arrows == ((1, 2),)][0]
        r2 = verify_ek(build_index(q_rev), 2, 1)
        assert [c.computed for c in r1.checks if "twisted" in c.name] == [
            c.computed for c in r2.checks if "twisted" in c.name
        ]
