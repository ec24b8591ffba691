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
    - hom_into(m, y), the slot-level rule, equals hom_dim from M to the
      object at slot y and the positive part of <root m, class y>, for every
      module m and window slot y of every orientation of A1-A5 and D4-D5
      and both built-in ones of E6-E8; object_of_slot finds the module under
      a shifted slot as the negated-class lookup does; hom_dim and the
      oracle both refuse an object whose slot holds no module, at gaps -1 to
      3, and the window refuses a shift that does not negate classes
    - the oracle builds one representation per root and one (hom, ext) pair
      per root pair, whichever gaps it is asked: D4 at both gaps takes 12
      and 144
    - the oracle's hom - ext is the Euler form <rx, ry> on every root pair of
      every orientation of A1-A5 and D4-D5 and both built-in ones of E6-E7,
      although the oracle never evaluates that form; and it equals hom_dim on
      every module triple of both built-in E7 orientations at gaps 0 and 1
    - the oracle's representations have the root as dimension vector, map
      entries of -1 and 1 only inside the matrix shape, and a local and
      rigid endomorphism ring (Hom 1, Ext 0), on every orientation of D5 and
      both built-in ones of E8
    - the oracle's elimination, back-substituted, returns the reduced row
      echelon form of its input, with the pivot list, and the cokernel
      projection read off it has rows that vanish on the columns, are
      independent, and number dim_total - rank
    - Hom wraps correctly through the slot-level tau
"""

import random
import re
from fractions import Fraction

import pytest

from cyclotome import all_orientations, euler_form, knit, orient, reflections, unit_vector
from cyclotome.derived import ARQuiver, DerivedObject, MixedSignClassError
from cyclotome.quiver import cartan_entry
from cyclotome.reflections import hom_dim_bruteforce, indecomposable_rep


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


def slot_rule_quivers():
    """Every orientation of A1-A5 and D4-D5, both built-in ones of E6-E8."""
    for t in ("A1", "A2", "A3", "A4", "A5", "D4", "D5"):
        yield from all_orientations(t)
    for t in ("E6", "E7", "E8"):
        yield from (orient(t, "linear"), orient(t, "alternating"))


def assert_refuses_shifted_slots(read, gap):
    """read(ar, x, y) raises KeyError naming the slot when x or y sits at a
    slot that holds no module, at this gap."""
    ar = knit(orient("A3", "alternating"))
    shifted = next(s for s in ar.window_slots() if s not in ar.root_of)
    module = ar.modules[0]
    for x, y in (((module, 0), (shifted, gap)), ((shifted, 0), (module, gap))):
        with pytest.raises(KeyError, match=re.escape(f"slot {shifted} holds no module")):
            read(ar, DerivedObject(*x), DerivedObject(*y))


class TestHomInto:
    @pytest.mark.parametrize("q", slot_rule_quivers(), ids=str)
    def test_slot_rule_is_the_positive_part_of_the_euler_form(self, q):
        ar = knit(q)
        for y in ar.window_slots():
            # the module under a shifted slot, looked up by its negated class
            if y in ar.root_of:
                expected = DerivedObject(y, 0)
            else:
                expected = DerivedObject(ar.slot_of_root[tuple(-x for x in ar.class_of[y])], 1)
            assert ar.object_of_slot(y) == expected
            for m in ar.modules:
                hom = ar.hom_into(m, y)
                assert hom == ar.hom_dim(DerivedObject(m, 0), expected), (m, y)
                assert hom == max(euler_form(q, ar.root_of[m], ar.class_of[y]), 0), (m, y)

    @pytest.mark.parametrize("gap", [0, 1, -1, 2, 3])
    def test_hom_dim_refuses_a_slot_holding_no_module(self, gap):
        assert_refuses_shifted_slots(lambda ar, x, y: ar.hom_dim(x, y), gap)

    @pytest.mark.parametrize("gap", [-1, 0, 1, 2, 3])
    def test_oracle_refuses_a_slot_holding_no_module(self, gap):
        assert_refuses_shifted_slots(hom_dim_bruteforce, gap)

    def test_a_shift_that_does_not_negate_classes_is_refused(self):
        class Skewed(ARQuiver):
            """Sigma followed by tau^(-h/2): on D4 (h = 6, w0 = -1) still an
            involution on slots, but it fixes every class."""

            @property
            def injective(self):
                return self._injective

            @injective.setter
            def injective(self, value):
                self._injective = {i: (j, e + self.h // 2) for i, (j, e) in value.items()}

        with pytest.raises(MixedSignClassError, match="does not negate its class"):
            Skewed(orient("D4", "alternating"))


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
                entries = [x for mat in rep.maps.values() for x in mat.values()]
                assert all(type(x) is int and -1 <= x <= 1 and x for x in entries), (q, slot)
                assert all(r < rep.dims[t] and c < rep.dims[s]
                           for (s, t), mat in rep.maps.items() for r, c in mat), (q, slot)

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
                root = ar.root_of[slot]
                assert reflections._hom_ext(ar, root, root) == (1, 0), (q, slot)

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
        # the oracle keeps one (hom, ext) pair per root pair for both gaps,
        # so the order in which its memo fills must not change an answer
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
        calls = {"indecomposable_rep": 0, "_hom_ext": 0}
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
        assert calls == {"indecomposable_rep": 12, "_hom_ext": 144}


def hom_ext_quivers():
    """Every orientation of A1-A5 and D4-D5, and both built-in ones of E6-E7."""
    return [*(q for t in ("A1", "A2", "A3", "A4", "A5", "D4", "D5") for q in all_orientations(t)),
            *(orient(t, o) for t in ("E6", "E7") for o in ("linear", "alternating"))]


class TestHomExt:
    def test_hom_minus_ext_is_the_euler_form(self):
        # the oracle reads hom and ext as the nullity and corank of one map;
        # only this test evaluates the Euler form
        pairs = 0
        for q in hom_ext_quivers():
            ar = knit(q)
            for x in ar.modules:
                m = DerivedObject(x, 0)
                for y in ar.modules:
                    hom = hom_dim_bruteforce(ar, m, DerivedObject(y, 0))
                    ext = hom_dim_bruteforce(ar, m, DerivedObject(y, 1))
                    assert hom - ext == euler_form(q, ar.root_of[x], ar.root_of[y]), (q, x, y)
                    pairs += 1
        assert pairs == 22_645

    @pytest.mark.parametrize("orientation", ["linear", "alternating"])
    def test_oracle_matches_closed_formula_on_every_e7_module_triple(self, orientation):
        ar = knit(orient("E7", orientation))
        wrong = [
            (x, y, gap) for x in ar.modules for y in ar.modules for gap in (0, 1)
            if hom_dim_bruteforce(ar, DerivedObject(x, 0), DerivedObject(y, gap))
            != ar.hom_dim(DerivedObject(x, 0), DerivedObject(y, gap))
        ]
        assert len(ar.modules) == 63
        assert wrong == []


def sparse(rows):
    """Dense rows as the {column: value} dicts the oracle's elimination reads."""
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def reduced_echelon(rows):
    """reflections._eliminate, back-substituted, on dense rows: the reduced
    rows, made dense again, and their pivot columns."""
    basis = reflections._back_substitute(reflections._eliminate(sparse(rows)))
    ncols = len(rows[0]) if rows else 0
    return [[basis[p].get(c, 0) for c in range(ncols)] for p in sorted(basis)], sorted(basis)


class TestRref:
    """The oracle's elimination, back-substituted, returns the reduced row
    echelon form and its pivots."""

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
        reduced, pivots = reduced_echelon(rows)
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
        assert reduced_echelon(rows) == ([[1, 0], [0, 1]], [0, 1])
        assert reflections.matrix_rank(rows) == 2
        assert reduced_echelon([]) == ([], [])


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
        proj = reflections._cokernel_projection(sparse(columns), dim_total)
        assert all(0 <= j < dim_total and x for row in proj for j, x in row.items())
        assert all(sum(x * col[j] for j, x in row.items()) == 0 for row in proj for col in columns)
        assert len(proj) == dim_total - reflections.matrix_rank(columns)
        dense = [[row.get(j, 0) for j in range(dim_total)] for row in proj]
        assert reflections.matrix_rank(dense) == len(proj)
