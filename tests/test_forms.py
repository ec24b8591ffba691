"""Bilinear forms and exponents: Phi, d, the Euler pairings, twists, script-N.

Core claims:
    - Phi routes weights to module / shifted classes; N(Phi) on simples is 1
    - d is Z-bilinear and shift-equivariant; the displayed special values hold
    - euler_a is antisymmetric, euler_sym symmetrizes to Cartan entries
    - twist exponents reproduce the Cartan commutation corrections
    - script-N and the height-signed form agree on lifted modules
    - script-N equals the twisted leading exponent on every pair, l-dominant
      or not, since <,>_a is antisymmetric
    - the residual and Phi that the index keeps for a pair belong to that
      index: read with another index (same I-hat, another section), the pair
      gives the values of a fresh copy; and residual hands out a copy that d
      never sees
"""

import random

import pytest

from cyclotome import (
    HalfInt,
    NotIndecomposableError,
    VWPair,
    build_index,
    d_form,
    deg_phi,
    euler_a,
    euler_sym,
    hl_form,
    iota,
    leading_exponent,
    leading_exponent_tilde,
    make_dynkin_quiver,
    n_phi,
    script_n,
    orient,
    phi,
    residual,
    twist_exponent,
    v_f,
    w_f,
    window_height,
)
from cyclotome.forms import GradedClass
from cyclotome.relations import e_pair, f_pair, k_prime_pair


def a2():
    return build_index(orient("A2", "linear"))


# == 1. HalfInt ===================================================================

class TestHalfInt:
    def test_arithmetic(self):
        x = HalfInt(3)  # 3/2
        assert x + x == 3
        assert x - HalfInt(1) == 1
        assert -x == HalfInt(-3)
        assert 2 * x == 3
        assert repr(x) == "3/2"
        assert repr(HalfInt(4)) == "2"

    def test_comparisons_with_ints(self):
        assert HalfInt.of(2) == 2
        assert HalfInt(1) < 1


# == 2. Phi, its degree and N(Phi) ================================================

class TestPhi:
    def test_simple_weight(self):
        idx = a2()
        w = {idx.sigma(idx.vertex_of_slot[idx.ar.simple[1]]): 1}
        g = phi(idx, w)
        assert g == GradedClass((1, 0), (0, 0))
        assert deg_phi(idx, w) == 1
        assert n_phi(idx, w) == 1  # (alpha, alpha) - 1 = 2 - 1

    def test_zero(self):
        idx = a2()
        assert phi(idx, {}) == GradedClass((0, 0), (0, 0))
        assert n_phi(idx, {}) == 0

    def test_cartan_weight_splits(self):
        idx = a2()
        assert phi(idx, w_f(idx, 1)) == GradedClass((1, 0), (1, 0))


# == 3. the d form =====================================================================

class TestDForm:
    def test_zero_pair_gives_zero(self):
        idx = a2()
        zero = VWPair({}, {})
        assert d_form(idx, zero, k_prime_pair(idx, 1)) == 0
        assert d_form(idx, k_prime_pair(idx, 1), zero) == 0

    def test_ef_weights_vanish_crossed(self):
        idx = a2()
        assert d_form(idx, e_pair(idx, 1), f_pair(idx, 2)) == 0
        assert d_form(idx, f_pair(idx, 2), e_pair(idx, 1)) == 0

    def test_cartan_against_simple_weight_is_delta(self):
        idx = a2()
        for i in idx.quiver.vertices:
            for j in idx.quiver.vertices:
                val = d_form(idx, k_prime_pair(idx, j), e_pair(idx, i))
                assert val == (1 if i == j else 0)

    def test_bilinear_in_each_slot(self):
        idx = a2()
        m1 = k_prime_pair(idx, 1)
        m2 = e_pair(idx, 2)
        doubled = VWPair(
            {k: 2 * c for k, c in m2.v.items()},
            {k: 2 * c for k, c in m2.w.items()},
        )
        assert d_form(idx, m1, doubled) == 2 * d_form(idx, m1, m2)
        summed = m1 + k_prime_pair(idx, 2)
        assert d_form(idx, summed, m2) == d_form(idx, m1, m2) + d_form(
            idx, k_prime_pair(idx, 2), m2
        )

    @pytest.mark.parametrize("t", ["A2", "A3", "D4"])
    def test_shift_equivariance(self, t):
        idx = build_index(orient(t, "linear"))
        sp = lambda m: VWPair(idx.shift_pullback(m.v), idx.shift_pullback(m.w))
        pool = [e_pair(idx, 1), f_pair(idx, 1), k_prime_pair(idx, 1)]
        pool.append(VWPair(v_f(idx, 2), w_f(idx, 2)))
        for m1 in pool:
            for m2 in pool:
                assert d_form(idx, sp(m1), sp(m2)) == d_form(idx, m1, m2)
                assert leading_exponent_tilde(idx, sp(m1), sp(m2)) == (
                    leading_exponent_tilde(idx, m1, m2)
                )


# == 4. Euler pairings and twists ==========================================================

class TestEulerPairings:
    def test_antisymmetry(self):
        idx = build_index(orient("A3", "alternating"))
        x = GradedClass((1, 1, 0), (0, 1, 0))
        y = GradedClass((0, 1, 1), (1, 0, 0))
        assert euler_a(idx, x, y) == -euler_a(idx, y, x)
        assert euler_a(idx, x, x) == 0

    def test_a2_single_arrow(self):
        idx = a2()
        a1 = GradedClass((1, 0), (0, 0))
        a2c = GradedClass((0, 1), (0, 0))
        assert euler_a(idx, a1, a2c) == 1

    def test_sym_is_cartan_on_simples(self):
        idx = build_index(orient("D4", "linear"))
        from cyclotome import cartan_entry, unit_vector

        q = idx.quiver
        for i in q.vertices:
            for j in q.vertices:
                x = GradedClass(unit_vector(q, i), (0,) * q.n)
                y = GradedClass(unit_vector(q, j), (0,) * q.n)
                assert euler_sym(idx, x, y) == cartan_entry(q, i, j)

    def test_twist_self_is_zero(self):
        idx = a2()
        for w in (w_f(idx, 1), e_pair(idx, 2).w):
            assert twist_exponent(idx, w, w) == HalfInt.of(0)

    def test_a2_ek_twist_correction(self):
        idx = a2()
        w1 = e_pair(idx, 1).w
        w2 = w_f(idx, 2)
        assert twist_exponent(idx, w1, w2) == HalfInt(-1)
        diff = twist_exponent(idx, w1, w2) - twist_exponent(idx, w2, w1)
        # 2<S_1,S_2> + (-1) = a_12 = -1 with <S_1,S_2> = 0
        assert diff == HalfInt(-2)


# == 5. leading exponents ====================================================================

class TestLeadingExponents:
    def test_self_exponent_zero(self):
        idx = a2()
        m = k_prime_pair(idx, 1)
        assert leading_exponent_tilde(idx, m, m) == 0

    def test_a1_ef_shift(self):
        idx = build_index(orient("A1", "linear"))
        m1 = VWPair(v_f(idx, 1), {(1, 0): 1})
        m2 = VWPair({}, {(1, 2): 1})
        assert leading_exponent_tilde(idx, m1, m2) == 1

    def test_ek_diagonal_twisted_difference(self):
        idx = a2()
        i = 1
        m1 = e_pair(idx, i)
        m2 = VWPair(v_f(idx, i), w_f(idx, i))
        diff = leading_exponent(idx, m1, m2) - leading_exponent(idx, m2, m1)
        assert diff == HalfInt.of(2)  # a_11


# == 6. the terms an index keeps per pair ========================================================

def fresh(pair):
    return VWPair(pair.v, pair.w)


class TestPairTerms:
    def test_a_pair_read_with_another_index_recomputes(self):
        a = build_index(orient("A3", "linear"))  # arrows 2->1 and 3->2
        # the arrows reversed: the same I-hat, but another section
        b = build_index(make_dynkin_quiver(3, [(1, 2), (2, 3)]))
        assert a.i_hat == b.i_hat and a.section != b.section
        e, kp = e_pair(a, 2), k_prime_pair(a, 1)
        assert leading_exponent(a, e, kp) == HalfInt(-1)
        assert leading_exponent(b, e, kp) == leading_exponent(b, fresh(e), fresh(kp))
        assert leading_exponent(b, e, kp) == HalfInt(-3)
        for m1, m2 in ((e, kp), (kp, e)):
            assert d_form(b, m1, m2) == d_form(b, fresh(m1), fresh(m2))
            assert residual(b, m1) == residual(b, fresh(m1))
        assert leading_exponent(a, e, kp) == HalfInt(-1)

    def test_mutating_a_residual_leaves_d_alone(self):
        idx = build_index(orient("A3", "alternating"))
        m1, m2 = e_pair(idx, 2), k_prime_pair(idx, 1)
        before = d_form(idx, m1, m2)
        assert before
        res = residual(idx, m1)
        for y in res:
            res[y] += 5
        for x in m2.v:
            res[idx.sigma_inv(x)] = 7
        assert d_form(idx, m1, m2) == before == d_form(idx, fresh(m1), m2)
        assert residual(idx, m1) != res


# == 7. heights and the comparison form =======================================================

class TestHeights:
    def test_a2_heights(self):
        idx = a2()
        assert window_height(idx, idx.ar.simple[1]) == 1
        assert window_height(idx, idx.ar.projective[2]) == 2

    def test_non_module_slot_rejected(self):
        idx = a2()
        shifted = next(s for s in idx.ar.window_slots() if s not in idx.ar.root_of)
        with pytest.raises(NotIndecomposableError):
            window_height(idx, shifted)

    def test_hl_form_diagonal_and_sign(self):
        idx = a2()
        s1, p2 = idx.ar.simple[1], idx.ar.projective[2]
        assert hl_form(idx, s1, s1) == 0
        assert hl_form(idx, s1, p2) == -hl_form(idx, p2, s1)

    def test_script_n_example_a2(self):
        idx = a2()
        m1 = iota(idx, idx.ar.simple[1])
        m2 = iota(idx, idx.ar.projective[2])
        # d(i(P2), i(S1)) - d(i(S1), i(P2)) + 1/2 <P2, S1>_a = 1/2 (S1, P2)
        assert script_n(idx, m1, m2) == HalfInt(1)
        assert hl_form(idx, idx.ar.simple[1], idx.ar.projective[2]) == 1

    def test_equal_heights_in_a3(self):
        idx = build_index(orient("A3", "linear"))
        p3, s2 = idx.ar.projective[3], idx.ar.simple[2]
        assert window_height(idx, p3) == window_height(idx, s2)
        from cyclotome import euler_form

        q = idx.quiver
        sym = euler_form(q, (1, 1, 1), (0, 1, 0)) + euler_form(q, (0, 1, 0), (1, 1, 1))
        assert sym == 0


def random_pair(rng, idx):
    """A pair with up to three entries on each side, l-dominant or not."""
    v = {rng.choice(sorted(idx.sigma_i_hat)): rng.randint(1, 2) for _ in range(rng.randint(0, 3))}
    w = {rng.choice(sorted(idx.i_hat)): rng.randint(1, 2) for _ in range(rng.randint(0, 3))}
    return VWPair(v, w)


@pytest.mark.parametrize("orientation", ["linear", "alternating"])
@pytest.mark.parametrize("t", ["A2", "A3", "A4", "D4", "D5", "E6"])
def test_script_n_is_the_leading_exponent(t, orientation):
    idx = build_index(orient(t, orientation))
    rng = random.Random(f"{t}-{orientation}")
    for _ in range(100):
        m1, m2 = random_pair(rng, idx), random_pair(rng, idx)
        expected = HalfInt(2 * leading_exponent_tilde(idx, m1, m2)) + twist_exponent(
            idx, m1.w, m2.w
        )
        assert script_n(idx, m1, m2) == leading_exponent(idx, m1, m2) == expected
