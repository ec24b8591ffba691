"""Exact Laurent scalars and formal sums.

Core claims:
    - HalfLaurent is a commutative ring; bar is an involutive automorphism
    - quantum integers are bar-invariant; [2]_t = t + t^-1
    - FormalSum addition/scaling behave and drop zero coefficients
    - HalfInt and HalfLaurent compare equal only to exact values, and equal
      values hash alike
"""

import random
from fractions import Fraction

import pytest

from cyclotome import FormalSum, HalfInt, HalfLaurent, quantum_int
from cyclotome.laurent import T, T_INV


def random_poly(rng):
    return HalfLaurent(
        {rng.randint(-4, 4): rng.randint(-3, 3) for _ in range(rng.randint(0, 4))}
    )


class TestHalfLaurent:
    def test_quantum_two(self):
        assert quantum_int(2) == T + T_INV

    def test_quantum_int_bar_invariant(self):
        for n in range(6):
            assert quantum_int(n).bar() == quantum_int(n)

    def test_difference_of_squares(self):
        assert (T - T_INV) * (T + T_INV) == HalfLaurent({4: 1, -4: -1})

    def test_half_powers_multiply(self):
        assert HalfLaurent({1: 1}) * HalfLaurent({1: 1}) == T
        assert HalfLaurent.t_pow(3) * HalfLaurent.t_pow(-3) == 1

    def test_ring_axioms_random(self):
        rng = random.Random(7)
        for _ in range(60):
            a, b, c = (random_poly(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a + HalfLaurent.zero() == a
            assert a * HalfLaurent.from_int(1) == a

    def test_bar_is_ring_involution(self):
        rng = random.Random(11)
        for _ in range(40):
            a, b = random_poly(rng), random_poly(rng)
            assert (a * b).bar() == a.bar() * b.bar()
            assert (a + b).bar() == a.bar() + b.bar()
            assert a.bar().bar() == a

    def test_zero_coefficients_dropped(self):
        assert (T - T).is_zero()
        assert HalfLaurent({2: 0, 0: 5}).terms == {0: 5}


class TestFormalSum:
    def test_addition_merges(self):
        s = FormalSum.of("x", T) + FormalSum.of("x", T_INV) + FormalSum.of("y")
        assert s == FormalSum({"x": quantum_int(2), "y": 1})

    def test_cancellation_is_zero(self):
        s = FormalSum.of("x", T) - FormalSum.of("x", T)
        assert s.is_zero()
        assert s == FormalSum()

    def test_scale(self):
        s = FormalSum.of("x") - FormalSum.of("y")
        scaled = s.scale(T - T_INV)
        assert scaled == FormalSum({"x": T - T_INV, "y": T_INV - T})


class TestEqualityAndHashing:
    def test_integer_halfint_hashes_like_int(self):
        assert HalfInt(2) == 1
        assert len({HalfInt(2), 1}) == 1
        assert hash(HalfInt(-6)) == hash(-3)
        assert {HalfInt(4): "x"}[2] == "x"

    def test_half_integers_stay_distinct(self):
        assert len({HalfInt(1), HalfInt(3), HalfInt(1)}) == 2
        assert HalfInt(1) != 0 and HalfInt(1) != 1

    def test_constant_laurent_hashes_like_int(self):
        assert len({HalfLaurent.from_int(1), 1}) == 1
        assert hash(HalfLaurent.zero()) == hash(0)
        assert hash(HalfLaurent.from_int(-5)) == hash(-5)
        assert len({T, T_INV, T}) == 2

    def test_foreign_types_are_unequal(self):
        assert not HalfInt(0) == 0.25
        assert not HalfInt(0) == Fraction(1, 3)
        assert HalfInt(1) != "a"
        assert HalfInt(1) != Fraction(1, 2)
        assert HalfLaurent.from_int(1) != "a"

    def test_only_ints_convert(self):
        for bad in (1.9, Fraction(1, 2), "2", None):
            with pytest.raises(TypeError):
                HalfInt(bad)
            with pytest.raises(TypeError):
                HalfInt.of(bad)
        assert HalfInt.of(HalfInt(3)) == HalfInt(3)
        assert repr(HalfInt.of(-2)) == "-2"

    def test_ordering_works_reflected(self):
        assert 1 <= HalfInt(2) and HalfInt(2) >= 1
        assert 2 > HalfInt(3) and HalfInt(3) > 1
        assert not (HalfInt(1) >= 1) and not (1 > HalfInt(2))

    def test_ordering_rejects_foreign_types(self):
        assert HalfInt(1) < 1 and HalfInt(2) <= 1
        with pytest.raises(TypeError):
            HalfInt(1) < 0.75

    def test_hash_agrees_with_equality_random(self):
        rng = random.Random(11)
        values = [HalfInt(rng.randint(-8, 8)) for _ in range(40)]
        values += list(range(-4, 5))
        for a in values:
            for b in values:
                if a == b:
                    assert hash(a) == hash(b)
