"""Graded dimensions of the quantum Serre quotient vs Kostant partition counts.

Core claims:
    - polynomial helpers and Bareiss rank are exact
    - Bareiss returns distinct row indices, as many as the rank, and the rows
      at those indices are independent
    - on integer matrices Bareiss agrees with the Fraction RREF of reflections.py
    - on Z[t] matrices Bareiss gives the rank over Q(t), which enough integer
      specialisations of t and that RREF find on their own
    - the Serre elements arrive as dense Z[t] tuples, denominators cleared
    - the quotient's graded dimension equals the Kostant count degree by degree
    - the answer is orientation-independent
    - the degree cap raises instead of silently truncating
"""

import random

import pytest

from cyclotome import (
    DegreeTooLargeError,
    all_orientations,
    build_index,
    kostant_partitions,
    orient,
    serre_quotient_dims,
)
from cyclotome.reflections import matrix_rank
from cyclotome.serre import bareiss_rank, pdivexact, pmul, psub, ptrim, serre_generators


class TestPolynomials:
    def test_mul_and_divexact_roundtrip(self):
        a = (1, 0, 2)     # 1 + 2t^2
        b = (-1, 1)       # -1 + t
        assert pdivexact(pmul(a, b), b) == a

    def test_divexact_rejects_remainder(self):
        with pytest.raises(ArithmeticError):
            pdivexact((1, 1), (2,))

    def test_psub_cancels(self):
        assert psub((1, 2), (1, 2)) == ()
        assert psub((1, 2, 3), (0, 0, 3)) == (1, 2)
        assert psub((1,), (0, 0, 2)) == (1, 0, -2)


class TestBareissRank:
    def test_integer_matrix(self):
        m = [[(2,), (4,)], [(1,), (2,)]]
        assert len(bareiss_rank(m)) == 1

    def test_polynomial_rank_drop_needs_exactness(self):
        # rows are dependent over Q(t) but not at t = 1
        t = (0, 1)
        one = (1,)
        m = [[t, pmul(t, t)], [one, t]]
        assert len(bareiss_rank(m)) == 1

    def test_full_rank(self):
        m = [[(1,), ()], [(0, 1), (1,)]]
        assert len(bareiss_rank(m)) == 2

    def test_zero_rows_and_column_skips(self):
        m = [[(), (1,)], [(), (0, 1)], [(), ()]]
        assert len(bareiss_rank(m)) == 1


class TestRankKernelsAgree:
    """Bareiss on constant polynomials is the rank over Q, which the Fraction
    RREF of reflections.py computes on its own."""

    def test_random_integer_matrices(self):
        rng = random.Random(1312)
        for _ in range(300):
            n_cols = rng.randint(1, 6)
            rows = [[rng.randint(-3, 3) for _ in range(n_cols)] for _ in range(rng.randint(1, 6))]
            for _ in range(rng.randint(0, 3)):  # dependent rows, some of them zero
                a, b = rng.choice(rows), rng.choice(rows)
                x, y = rng.randint(-2, 2), rng.randint(-2, 2)
                rows.append([x * p + y * q for p, q in zip(a, b)])
            zero_col = rng.randrange(n_cols)
            for row in rows:
                row[zero_col] = 0
            rng.shuffle(rows)
            # zeros as () or as the untrimmed (0,)
            polys = [[(x,) if x or rng.random() < 0.5 else () for x in row] for row in rows]
            pivots = bareiss_rank(polys)
            assert len(set(pivots)) == len(pivots) == matrix_rank(rows), rows
            assert matrix_rank([rows[k] for k in pivots]) == len(pivots), rows


class TestRankOverQt:
    """A nonzero r x r minor of a matrix whose entries have degree at most d is
    a polynomial of degree at most D = rows * d, so it has at most D roots.
    Over D + 1 distinct integer values of t the largest rank of the
    specialised matrix is therefore the rank over Q(t); the Fraction RREF of
    reflections.py computes each of those ranks without any Z[t] code."""

    @staticmethod
    def rank_by_specialising(rows):
        degree = max((len(p) - 1 for row in rows for p in map(ptrim, row)), default=0)
        return max(
            matrix_rank([[sum(c * x**k for k, c in enumerate(p)) for p in row] for row in rows])
            for x in range(len(rows) * degree + 1)
        )

    def test_random_polynomial_matrices(self):
        rng = random.Random(2207)

        def nonzero():
            p = ()
            while not p:
                p = ptrim(rng.randint(-2, 2) for _ in range(rng.randint(1, 3)))
            return p

        def entry():  # zeros as () or as the untrimmed (0,)
            return nonzero() if rng.random() < 0.5 else rng.choice([(), (0,)])

        for _ in range(200):
            n_cols = rng.randint(2, 6)
            rows = [[entry() for _ in range(n_cols)] for _ in range(rng.randint(1, 5))]
            for _ in range(rng.randint(0, 2)):  # Z[t]-combinations of other rows
                a, b, x, y = rng.choice(rows), rng.choice(rows), entry(), entry()
                rows.append([psub(pmul(x, ptrim(p)), pmul(y, ptrim(q))) for p, q in zip(a, b)])
            rows.append([()] * len(rows[0]))
            zero_col = rng.randrange(n_cols)
            for row in rows:
                row.insert(zero_col, rng.choice([(), (0,)]))
            rng.shuffle(rows)
            # Nonzero only in the last two columns, and first among rows with
            # as few nonzeros: it stays untouched while the earlier columns
            # pivot, then pivots itself and must first be brought up to date.
            rows.insert(0, [()] * (n_cols - 1) + [nonzero(), nonzero()])
            pivots = bareiss_rank(rows)
            assert len(set(pivots)) == len(pivots) == self.rank_by_specialising(rows), rows
            assert self.rank_by_specialising([rows[k] for k in pivots]) == len(pivots), rows


class TestQuotientDims:
    def test_generators_are_dense_z_t_tuples(self):
        gens = serre_generators(orient("A3", "linear"))
        assert len(gens) == 6
        assert {(1, 3): (1,), (3, 1): (-1,)} in gens
        assert {(1, 1, 2): (0, 1), (1, 2, 1): (-1, 0, -1), (2, 1, 1): (0, 1)} in gens

    def test_simple_degrees_are_one(self):
        q = orient("A2", "linear")
        dims = serre_quotient_dims(q, 1)
        assert dims[(1, 0)] == 1
        assert dims[(0, 1)] == 1

    def test_a2_degree_two_and_three(self):
        q = orient("A2", "linear")
        dims = serre_quotient_dims(q, 3)
        assert dims[(1, 1)] == 2
        assert dims[(2, 1)] == 2
        assert dims[(2, 0)] == 1

    @pytest.mark.parametrize(
        "t,maxdeg",
        [("A2", 4), ("A3", 3), ("D4", 3), ("A3", 6), ("D4", 5), ("E6", 4), ("E6", 5), ("D5", 5)],
    )
    def test_matches_kostant(self, t, maxdeg):
        q = orient(t, "linear")
        idx = build_index(q)
        dims = serre_quotient_dims(q, maxdeg)
        for beta, dim in dims.items():
            assert dim == kostant_partitions(idx, beta), beta

    def test_orientation_independent(self):
        baseline = None
        for q in all_orientations("A3"):
            dims = serre_quotient_dims(q, 3)
            if baseline is None:
                baseline = dims
            assert dims == baseline

    def test_degree_cap(self):
        q = orient("A2", "linear")
        with pytest.raises(DegreeTooLargeError):
            serre_quotient_dims(q, 9)
