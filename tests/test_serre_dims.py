"""Graded dimensions of the quantum Serre quotient vs Kostant partition counts.

Core claims:
    - polynomial helpers and Bareiss rank are exact, and the helpers return
      trimmed tuples on untrimmed input, on their constant and unit fast
      paths too, agreeing with a schoolbook product and division; exact
      division trims an untrimmed divisor and names the zero polynomial,
      also under a zero dividend
    - Bareiss returns distinct row indices, as many as the rank, and the rows
      at those indices are independent
    - on integer matrices Bareiss agrees with the Fraction RREF of reflections.py
    - on Z[t] matrices Bareiss gives the rank over Q(t), which enough integer
      specialisations of t and that RREF find on their own
    - the Serre elements arrive as dense Z[t] tuples, denominators cleared
    - the quotient's graded dimension equals the Kostant count degree by degree
    - the answer is orientation-independent
    - the degree cap raises instead of silently truncating
    - the elimination's pivot lists and work on three slices are pinned
"""

import hashlib
import random
from fractions import Fraction
from itertools import zip_longest

import pytest

from cyclotome import (
    DegreeTooLargeError,
    all_orientations,
    build_index,
    kostant_partitions,
    orient,
    serre_quotient_dims,
)
from cyclotome import serre
from cyclotome.reflections import matrix_rank
from cyclotome.serre import bareiss_rank, pdivexact, pmul, psub, ptrim, serre_generators


def trimmed(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def schoolbook_mul(a, b):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trimmed(out)


def schoolbook_divmod(a, b):
    """Quotient and remainder over Q of a by a trimmed nonzero b."""
    a = trimmed(a)
    rem = [Fraction(x) for x in a]
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in reversed(range(len(quo))):
        quo[k] = rem[k + len(b) - 1] / b[-1]
        for j, y in enumerate(b):
            rem[k + j] -= quo[k] * y
    return trimmed(quo), trimmed(rem)


class TestPolynomials:
    def test_mul_and_divexact_roundtrip(self):
        a = (1, 0, 2)     # 1 + 2t^2
        b = (-1, 1)       # -1 + t
        assert pdivexact(pmul(a, b), b) == a

    def test_divexact_rejects_remainder(self):
        with pytest.raises(ArithmeticError):
            pdivexact((1, 1), (2,))
        with pytest.raises(ArithmeticError):
            pdivexact((1, 0, 1, 0), (1, 1))

    def test_divexact_trims_the_divisor(self):
        assert pdivexact((2,), (1, 0)) == (2,)
        assert pdivexact((0, 3, 3), (1, 1, 0, 0)) == (0, 3)
        with pytest.raises(ZeroDivisionError, match="division by the zero polynomial"):
            pdivexact((2,), (0,))

    @pytest.mark.parametrize("divisor", [(0,), (0, 0)])
    def test_divexact_rejects_a_zero_divisor_under_a_zero_dividend(self, divisor):
        with pytest.raises(ZeroDivisionError, match="division by the zero polynomial"):
            pdivexact((), divisor)

    def test_constant_times_polynomial_in_both_orders(self):
        assert pmul((3,), (1, 0, -2)) == pmul((1, 0, -2), (3,)) == (3, 0, -6)
        assert pmul((-1,), (0, 1)) == pmul((0, 1), (-1,)) == (0, -1)
        assert pmul((3,), (1, 0, -2, 0)) == pmul((1, 0, -2, 0), (3,)) == (3, 0, -6)
        assert pmul((0,), (0, 1)) == pmul((0, 1), (0,)) == ()

    @pytest.mark.parametrize("a,b,product", [
        ((0,), (1, 2), ()),
        ((1, 2), (0,), ()),
        ((2, 0), (3,), (6,)),
        ((3,), (2, 0), (6,)),
        ((2, 0), (1, 1), (2, 2)),
        ((1, 1), (2, 0), (2, 2)),
        ((0, 0), (0,), ()),
    ])
    def test_mul_trims_untrimmed_operands(self, a, b, product):
        assert pmul(a, b) == product
        assert type(pmul(a, b)) is tuple

    @pytest.mark.parametrize("a,quotient", [
        ((2, 0), (2,)),
        ((0,), ()),
        ((1, 0, 3, 0, 0), (1, 0, 3)),
        ([4, -1], (4, -1)),
    ])
    def test_divexact_by_one_trims_and_returns_a_tuple(self, a, quotient):
        assert pdivexact(a, (1,)) == quotient
        assert type(pdivexact(a, (1,))) is tuple

    def test_helpers_agree_with_schoolbook_arithmetic(self):
        rng = random.Random(4126)

        def poly():  # often a constant or 1, often untrimmed
            shape = rng.random()
            if shape < 0.2:
                return (1,)
            n = 1 if shape < 0.5 else rng.randint(0, 4)
            return tuple(rng.randint(-3, 3) for _ in range(n))

        for _ in range(2000):
            a, b = poly(), poly()
            assert pmul(a, b) == schoolbook_mul(a, b), (a, b)
            assert psub(a, b) == trimmed(x - y for x, y in zip_longest(a, b, fillvalue=0))
            d = trimmed(b)
            if not d:
                continue
            for num in (a, schoolbook_mul(a, d) + (0,) * rng.randint(0, 2)):
                quo, rem = schoolbook_divmod(num, d)
                if rem or any(q.denominator != 1 for q in quo):
                    with pytest.raises(ArithmeticError):
                        pdivexact(num, d)
                else:
                    assert pdivexact(num, d) == tuple(map(int, quo)), (num, d)

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


def test_elimination_work_is_pinned(monkeypatch):
    """bareiss_rank's pivot lists, call count and dense cell count across
    serre_quotient_dims on A4, D4 (degree 5) and E6 (degree 4), alternating.
    A change of pivot order must update this pin and say so in CHANGES.md."""
    calls = []
    real = serre.bareiss_rank

    def spy(rows):
        calls.append((len(rows) * len(rows[0]) if rows else 0, real(rows)))
        return calls[-1][1]

    monkeypatch.setattr(serre, "bareiss_rank", spy)
    for t, maxdeg in [("A4", 5), ("D4", 5), ("E6", 4)]:
        serre_quotient_dims(orient(t, "alternating"), maxdeg)
    assert len(calls) == 459
    assert sum(cells for cells, _ in calls) == 116_034
    digest = hashlib.sha256(repr([pivots for _, pivots in calls]).encode()).hexdigest()
    assert digest == "cadcf0c6f3b3479c22e0b1c615116d8a208756e43f981c2f5ab9521330706f67"
