"""The derived window: knitting, functors, Hom dimensions, and the oracle.

Core claims:
    - the window has nh slots, half carrying positive classes (one per
      positive root, cross-checked against a reflection-closure oracle)
    - tau commutes with the shift, the Serre functor tau o shift takes P_i
      to I_i, and tau^h = shift^-2
    - mesh middle terms satisfy class additivity
    - the Euler form alone fixes every knitted class: <P_i, e_j> = delta_ij,
      and <tau^-1 x, y> = -<y, x> (Serre duality) along each row
    - the closed Hom formula agrees with the intertwiner oracle, on every
      module pair of every D5 orientation and of alternating E6, in either
      order of the two gaps
    - the oracle builds one representation per root and one nullity per root
      pair, whichever gaps it is asked: D4 at both gaps takes 12 and 144
    - the oracle's representations have the root as dimension vector, map
      entries of -1, 0 and 1 only, and a local endomorphism ring, on every
      orientation of D5 and both built-in ones of E8
    - the oracle's elimination returns the reduced row echelon form of its
      input, with the pivot list, and the cokernel projection read off it
      has rows that vanish on the columns, are independent, and number
      dim_total - rank
    - Hom wraps correctly through the slot-level tau
"""

import random
from fractions import Fraction

import pytest

from cyclotome import all_orientations, euler_form, knit, orient, reflections, unit_vector
from cyclotome.derived import DerivedObject
from cyclotome.quiver import cartan_entry
from cyclotome.reflections import hom_dim_bruteforce, indecomposable_rep, hom_space_dim


def reflection_closure_roots(q):
    """Positive roots via reflection closure from the simples; independent of
    the AR machinery."""
    n = q.n
    simples = [tuple(1 if k == i else 0 for k in range(1, n + 1)) for i in q.vertices]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        beta = frontier.pop()
        for i in q.vertices:
            pairing = sum(beta[j - 1] * cartan_entry(q, j, i) for j in q.vertices)
            new = list(beta)
            new[i - 1] -= pairing
            new = tuple(new)
            if all(x >= 0 for x in new) and any(new) and new not in roots:
                roots.add(new)
                frontier.append(new)
    return roots


# == 1. knitting fixtures ========================================================

class TestKnit:
    def test_a2_positive_window(self):
        ar = knit(orient("A2", "linear"))
        positives = {slot: ar.root_of[slot] for slot in ar.modules}
        assert positives == {(1, 0): (1, 0), (2, 0): (1, 1), (1, 1): (0, 1)}

    def test_a1_window(self):
        ar = knit(orient("A1", "linear"))
        assert ar.window_slots() == [(1, 0), (1, 1)]
        assert ar.class_of[(1, 0)] == (1,)
        assert ar.class_of[(1, 1)] == (-1,)

    def test_a3_counts(self):
        ar = knit(orient("A3", "linear"))
        assert len(ar.window_slots()) == 12
        assert len(ar.modules) == 6

    def test_a3_figure_objects(self):
        ar = knit(orient("A3", "linear"))
        names = {s: ar.object_name(ar.object_of_slot(s)) for s in ar.window_slots()}
        assert names[(1, 1)] == "S2"
        assert names[(2, 1)] == "I2"
        assert names[(1, 2)] == "S3"
        assert names[(2, 2)] == "ΣP2"
        assert names[(3, 3)] == "ΣS3"

    @pytest.mark.parametrize("t", ["A2", "A4", "D4", "E6"])
    def test_positive_classes_are_the_positive_roots(self, t):
        q = orient(t, "alternating")
        ar = knit(q)
        assert set(ar.root_of.values()) == reflection_closure_roots(q)
        assert len(ar.modules) == q.n * q.coxeter_number // 2

    def test_mesh_additivity(self):
        # class(tau y) + class(y) = sum of middle-term classes
        for q in all_orientations("A3"):
            ar = knit(q)
            for (i, d), middle in ar.mesh.items():
                lhs = tuple(
                    a + b
                    for a, b in zip(ar.class_of[(i, d - 1)], ar.class_of[(i, d)])
                )
                total = tuple(
                    sum(ar.class_of[s][k] * m for s, m in middle.items())
                    for k in range(q.n)
                )
                assert lhs == total

    @pytest.mark.parametrize("t", ["A1", "A2", "A3", "A4", "A5", "D4", "D5",
                                   "A6", "D6", "E6", "E7", "E8"])
    def test_classes_are_fixed_by_the_euler_form(self, t):
        # The Euler form is unimodular, so the pairings with every e_j fix a
        # class: <class(i, 0), e_j> = delta_ij makes class(i, 0) = dim P_i, and
        # Serre duality <tau^-1 x, y> = -<y, x> fixes each class from the one
        # before it in its row.
        # every orientation up to rank 5, the two built-in ones above it
        if int(t[1:]) <= 5:
            quivers = all_orientations(t)
        else:
            quivers = [orient(t, "linear"), orient(t, "alternating")]
        for q in quivers:
            ar = knit(q)
            units = [unit_vector(q, j) for j in q.vertices]
            for i in q.vertices:
                assert [euler_form(q, ar.class_of[(i, 0)], e) for e in units] == list(units[i - 1])
                for d in range(1, ar.h):
                    x, y = ar.class_of[(i, d - 1)], ar.class_of[(i, d)]
                    assert [euler_form(q, y, e) for e in units] == [-euler_form(q, e, x)
                                                                    for e in units]

    def test_mesh_middles_are_plain_multiplicity_dicts(self):
        ar = knit(orient("A3", "linear"))  # arrows 2 -> 1 and 3 -> 2
        assert ar.mesh[(2, 1)] == {(1, 1): 1, (3, 0): 1}
        assert ar.mesh[(1, 3)] == {(2, 2): 1}
        assert all(type(middle) is dict for middle in ar.mesh.values())


# == 2. functors ==================================================================

class TestFunctors:
    def test_tau_commutes_with_shift(self):
        ar = knit(orient("A3", "alternating"))
        for slot in ar.modules:
            x = DerivedObject(slot, 0)
            assert ar.tau(ar.sigma_shift(x)) == ar.sigma_shift(ar.tau(x))

    def test_nu_on_projectives_gives_injectives(self):
        # the Serre functor nu = tau o Sigma
        for t in ("A3", "D4"):
            ar = knit(orient(t, "linear"))
            for i in ar.quiver.vertices:
                p = DerivedObject(ar.projective[i], 0)
                assert ar.tau(ar.sigma_shift(p)) == DerivedObject(ar.injective[i], 0)

    @pytest.mark.parametrize("t", ["A2", "A3", "D4", "E6"])
    def test_tau_h_equals_shift_minus_two(self, t):
        ar = knit(orient(t, "linear"))
        for slot in ar.window_slots():
            x = ar.object_of_slot(slot)
            y = x
            for _ in range(ar.h):
                y = ar.tau(y)
            assert y == ar.sigma_shift(x, -2)


# == 3. Hom dimensions =============================================================

class TestHomDim:
    def test_a2_hom_p2_s2(self):
        ar = knit(orient("A2", "linear"))
        p2 = DerivedObject(ar.projective[2], 0)
        s2 = DerivedObject(ar.simple[2], 0)
        assert ar.hom_dim(p2, s2) == 1

    def test_endomorphisms_are_one_dimensional(self):
        ar = knit(orient("D4", "alternating"))
        for slot in ar.modules:
            x = DerivedObject(slot, 0)
            assert ar.hom_dim(x, x) == 1

    def test_a2_extension_s2_shift_s1(self):
        ar = knit(orient("A2", "linear"))
        s2 = DerivedObject(ar.simple[2], 0)
        s1 = DerivedObject(ar.simple[1], 1)
        assert ar.hom_dim(s2, s1) == 1

    def test_hom_ext_never_coexist(self):
        ar = knit(orient("A4", "linear"))
        for a in ar.modules:
            for b in ar.modules:
                x, y = DerivedObject(a, 0), DerivedObject(b, 0)
                hom = ar.hom_dim(x, y)
                ext = ar.hom_dim(x, DerivedObject(b, 1))
                assert hom == 0 or ext == 0

    def test_wrap_identity(self):
        # Hom(x, tau M_y) = Hom(x, M_{tau y}) with y running over slots and
        # tau y wrapping mod h.
        for q in all_orientations("A3"):
            ar = knit(q)
            for m in ar.modules:
                x = DerivedObject(m, 0)
                for i, d in ar.window_slots():
                    lhs = ar.hom_dim(x, ar.tau(ar.object_of_slot((i, d))))
                    rhs = ar.hom_dim(x, ar.object_of_slot((i, (d - 1) % ar.h)))
                    assert lhs == rhs


# == 4. the brute-force oracle ======================================================

def wide_oracle_quivers():
    """Every orientation of D5 and both built-in ones of E8: 560 representations."""
    return [*all_orientations("D5"), orient("E8", "linear"), orient("E8", "alternating")]


class TestOracle:
    def test_reps_have_root_dimensions(self):
        for q in wide_oracle_quivers():
            ar = knit(q)
            for slot in ar.modules:
                rep = indecomposable_rep(q, ar.root_of[slot])
                assert tuple(rep.dims[i] for i in q.vertices) == ar.root_of[slot], (q, slot)
                entries = [x for mat in rep.maps.values() for row in mat for x in row]
                assert all(type(x) is int and -1 <= x <= 1 for x in entries), (q, slot)

    def test_simple_homs(self):
        ar = knit(orient("A3", "linear"))
        s1 = DerivedObject(ar.simple[1], 0)
        s3 = DerivedObject(ar.simple[3], 0)
        assert hom_dim_bruteforce(ar, s1, s3) == 0

    def test_projective_hom_is_vertex_dimension(self):
        q = orient("D4", "linear")
        ar = knit(q)
        for i in q.vertices:
            p = DerivedObject(ar.projective[i], 0)
            for slot in ar.modules:
                n = DerivedObject(slot, 0)
                assert hom_dim_bruteforce(ar, p, n) == ar.root_of[slot][i - 1]

    def test_indecomposable_end_ring_is_local(self):
        for q in wide_oracle_quivers():
            ar = knit(q)
            for slot in ar.modules:
                rep = indecomposable_rep(q, ar.root_of[slot])
                assert hom_space_dim(rep, rep) == 1, (q, slot)

    @pytest.mark.parametrize("t", ["A2", "A3"])
    def test_oracle_matches_closed_formula_everywhere(self, t):
        for q in all_orientations(t):
            ar = knit(q)
            objs = [ar.object_of_slot(s) for s in ar.window_slots()]
            for x in objs:
                for y in objs:
                    assert ar.hom_dim(x, y) == hom_dim_bruteforce(ar, x, y), (
                        q,
                        x,
                        y,
                    )


class TestOracleOnModulePairs:
    @pytest.mark.parametrize("t", ["D5", "E6"])
    @pytest.mark.parametrize("gap_one_first", [False, True], ids=["interleaved", "gap-1-first"])
    def test_oracle_matches_closed_formula_on_every_module_pair(self, t, gap_one_first):
        # the oracle keeps one nullity per root pair for both gaps, so the
        # order in which its memo fills must not change an answer
        quivers = list(all_orientations(t)) if t == "D5" else [orient(t, "alternating")]
        wrong = []
        for quiver in quivers:
            ar = knit(quiver)
            triples = [(x, y, gap) for x in ar.modules for y in ar.modules for gap in (0, 1)]
            if gap_one_first:
                triples.sort(key=lambda xyg: -xyg[2])
            for x, y, gap in triples:
                a, b = DerivedObject(x, 0), DerivedObject(y, gap)
                if hom_dim_bruteforce(ar, a, b) != ar.hom_dim(a, b):
                    wrong.append((str(quiver), x, y, gap))
            assert len(triples) == 2 * len(ar.modules) ** 2
        assert len(quivers) == (16 if t == "D5" else 1)
        assert wrong == []

    def test_oracle_builds_each_rep_and_nullity_once(self, monkeypatch):
        calls = {"indecomposable_rep": 0, "hom_space_dim": 0}
        for name in calls:
            def counted(*args, _real=getattr(reflections, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(reflections, name, counted)
        ar = knit(orient("D4", "alternating"))
        for gap in (0, 1, 0):
            for x in ar.modules:
                for y in ar.modules:
                    hom_dim_bruteforce(ar, DerivedObject(x, 0), DerivedObject(y, gap))
        assert len(ar.modules) == 12
        assert calls == {"indecomposable_rep": 12, "hom_space_dim": 144}


class TestRref:
    """reflections._rref returns the reduced row echelon form and its pivots."""

    @staticmethod
    def scalar(rng, zero_share=0.0):
        if rng.random() < zero_share:
            return 0
        x = rng.choice([-3, -2, -1, 1, 2, 3])
        return x if rng.random() < 0.5 else Fraction(x, rng.randint(2, 5))

    def known_answer(self, seed):
        """(rows, rref, pivots) with rows = A·rref, where some rows of A form
        a diagonal of nonzero scalars, mostly other than 1, and the others
        are combinations (some zero); so rows and rref span one space."""
        rng = random.Random(seed)
        ncols = rng.randint(1, 7)
        pivots = sorted(rng.sample(range(ncols), rng.randint(0, min(ncols, 5))))
        rref = []
        for p in pivots:
            row = [0] * ncols
            row[p] = 1
            for j in range(p + 1, ncols):
                if j not in pivots:
                    row[j] = self.scalar(rng, zero_share=0.4)
            rref.append(row)
        coefficients = [[self.scalar(rng) if m == k else 0 for m in range(len(pivots))]
                        for k in range(len(pivots))]
        for _ in range(rng.randint(0, 4)):  # dependent rows, some of them zero
            zero_share = rng.choice([0.3, 1.0])
            coefficients.append([self.scalar(rng, zero_share) for _ in pivots])
        rng.shuffle(coefficients)
        rows = [
            [sum((a * r[j] for a, r in zip(coeffs, rref)), 0) for j in range(ncols)]
            for coeffs in coefficients
        ]
        return rows, rref, pivots

    @pytest.mark.parametrize("seed", range(60))
    def test_reduced_row_echelon_form(self, seed):
        rows, expected, expected_pivots = self.known_answer(seed)
        reduced, pivots = reflections._rref(rows)
        assert all(p < q for p, q in zip(pivots, pivots[1:]))
        assert len(reduced) == len(pivots)
        for k, (row, p) in enumerate(zip(reduced, pivots)):
            assert row[p] == 1
            assert all(x == 0 for x in row[:p])
            assert all(other[p] == 0 for m, other in enumerate(reduced) if m != k)
        # every input row is the combination of reduced rows read off its
        # pivot entries; no elimination is involved in this check
        for row in rows:
            combination = [sum((row[p] * red[j] for p, red in zip(pivots, reduced)), 0)
                           for j in range(len(row))]
            assert combination == row
        # the reduced form of a row space is unique
        assert (reduced, pivots) == (expected, expected_pivots)

    def test_mixed_entries_and_more_rows_than_columns(self):
        rows = [[0, 0], [2, Fraction(1, 3)], [Fraction(-4), Fraction(-2, 3)], [0, 5], [1, 1]]
        assert reflections._rref(rows) == ([[1, 0], [0, 1]], [0, 1])
        assert reflections.matrix_rank(rows) == 2
        assert reflections._rref([]) == ([], [])


def random_columns(seed):
    """Integer columns of one length, some of them combinations of the others."""
    rng = random.Random(seed)
    dim_total = rng.randint(1, 7)
    columns = [[rng.choice([-2, -1, 0, 0, 0, 1, 3]) for _ in range(dim_total)]
               for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(0, 2)):
        a, b = rng.choice(columns), rng.choice(columns)
        columns.insert(rng.randint(0, len(columns)), [2 * x - y for x, y in zip(a, b)])
    return columns, dim_total


class TestCokernelProjection:
    """reflections._cokernel_projection returns a basis of the columns' left
    null space: its rows cut out exactly their span."""

    @pytest.mark.parametrize("columns,dim_total", [
        *(random_columns(seed) for seed in range(40)),
        ([], 4),
        ([[0, 0, 0], [0, 0, 0]], 3),
        ([], 0),
        ([[], []], 0),
    ])
    def test_rows_cut_out_the_span(self, columns, dim_total):
        proj = reflections._cokernel_projection(columns, dim_total)
        assert all(len(row) == dim_total for row in proj)
        assert all(sum(a * b for a, b in zip(row, col)) == 0 for row in proj for col in columns)
        assert len(proj) == dim_total - reflections.matrix_rank(columns)
        assert reflections.matrix_rank(proj) == len(proj)
