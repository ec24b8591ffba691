"""The value classes: construction, repr, equality, hashing, ordering, freezing.

Core claims:
    - DerivedObject, DynkinQuiver and Cones are frozen: assigning to a field
      raises AttributeError
    - each compares and hashes as the tuple of its fields (DynkinQuiver
      without its derived neighbour table), but never equals a plain tuple or
      another type; DerivedObject has no order, so < and the other
      comparisons raise TypeError against another type
    - GradedClass is a tuple: it equals (module_part, shifted_part)
    - Check and VerificationReport are mutable, compare field by field and are
      unhashable; every report starts with its own empty list of checks
    - each repr names the class and its fields as keywords
    - copy, deepcopy and pickle give back an equal value
    - the forms keep what they derive from a VWPair on the index, not on
      the pair: a pair they have read compares, hashes, orders and prints
      like an unread pair with the same (v, w), and its copies and pickles
      pickle to the same bytes as the unread pair
    - a VWPair never orders against another type: < raises TypeError
    - a VWPair's equality and hash agree: pairs built from dicts in other key
      orders are equal with equal hashes, copies and pickles (before or after
      the hash is first taken) keep both, and one coefficient apart is unequal
    - canon, VWPair and HalfLaurent take integer coefficients only: a float,
      even 0.0, raises TypeError instead of being truncated or dropped, True
      reads as the int 1 and False as the int 0, which is dropped
"""

import copy
import operator
import pickle

import pytest

from cyclotome import (
    Check, Cones, DerivedObject, GradedClass, HalfLaurent, VerificationReport, VWPair,
    build_index, cones, d_form, leading_exponent, orient,
)
from cyclotome.vectors import canon
from cyclotome.relations import e_pair, k_prime_pair

FOREIGN = [None, 0, "x", (), ((1, 0), 0)]


class TestDerivedObject:
    def test_constructor_and_repr(self):
        d = DerivedObject((2, 1))
        assert d.slot == (2, 1) and d.shift == 0
        assert DerivedObject(slot=(2, 1), shift=3).shift == 3
        assert repr(DerivedObject((2, 1), -1)) == "DerivedObject(slot=(2, 1), shift=-1)"

    def test_equality_and_hash_follow_the_fields(self):
        d = DerivedObject((1, 0), 1)
        assert d == DerivedObject((1, 0), 1)
        assert d != DerivedObject((1, 0), 2) and d != DerivedObject((1, 1), 1)
        assert hash(d) == hash(((1, 0), 1))
        assert len({d, DerivedObject((1, 0), 1), DerivedObject((1, 0))}) == 2

    @pytest.mark.parametrize("other", FOREIGN + [((1, 0), 1)], ids=repr)
    def test_never_equal_to_a_foreign_value(self, other):
        d = DerivedObject((1, 0), 1)
        assert d != other and other != d
        assert not d == other and not other == d

    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge],
                             ids=lambda op: op.__name__)
    def test_never_orders_against_a_foreign_value(self, op):
        with pytest.raises(TypeError):
            op(DerivedObject((1, 0), 1), ((1, 0), 1))
        with pytest.raises(TypeError):
            op(((1, 0), 1), DerivedObject((1, 0), 1))

    @pytest.mark.parametrize("field", ["slot", "shift"])
    def test_frozen(self, field):
        d = DerivedObject((1, 0), 1)
        with pytest.raises(AttributeError):
            setattr(d, field, 0)
        assert d == DerivedObject((1, 0), 1)


class TestDynkinQuiver:
    @pytest.mark.parametrize("field", ["n", "arrows", "dynkin_type", "coxeter_number", "neighbours"])
    def test_frozen(self, field):
        q = orient("D4", "alternating")
        with pytest.raises(AttributeError):
            setattr(q, field, None)

    def test_never_equal_to_a_foreign_value(self):
        q = orient("A3", "linear")
        fields = (q.n, q.arrows, q.dynkin_type, q.coxeter_number)
        for other in FOREIGN + [fields]:
            assert q != other and other != q


class TestCones:
    def test_repr_hash_and_equality(self):
        co = cones(build_index(orient("A3", "alternating")))
        fields = (co.w_plus, co.v_plus, co.w_s, co.w_minus, co.v_minus, co.w_sigma_s)
        assert repr(co) == (
            f"Cones(w_plus={co.w_plus!r}, v_plus={co.v_plus!r}, w_s={co.w_s!r}, "
            f"w_minus={co.w_minus!r}, v_minus={co.v_minus!r}, w_sigma_s={co.w_sigma_s!r})"
        )
        assert hash(co) == hash(fields)
        assert co == Cones(*fields) and hash(co) == hash(Cones(*fields))
        assert co != cones(build_index(orient("A3", "linear")))
        for other in FOREIGN + [fields]:
            assert co != other and other != co

    def test_frozen(self):
        co = cones(build_index(orient("A2", "linear")))
        with pytest.raises(AttributeError):
            co.w_plus = frozenset()


class TestGradedClass:
    def test_is_the_pair_of_its_parts(self):
        g = GradedClass((1, 0), (0, 2))
        assert g == ((1, 0), (0, 2)) and hash(g) == hash(((1, 0), (0, 2)))
        assert g.module_part == (1, 0) and g.shifted_part == (0, 2)
        assert tuple(g) == ((1, 0), (0, 2))
        assert repr(g) == "GradedClass(module_part=(1, 0), shifted_part=(0, 2))"
        assert GradedClass(module_part=(1,), shifted_part=(0,)) == ((1,), (0,))


class TestCheck:
    def test_repr_equality_and_mutation(self):
        c = Check("k", 1, 1)
        assert repr(c) == "Check(name='k', computed=1, expected=1)"
        assert c == Check(name="k", computed=1, expected=1)
        assert c != Check("k", 1, 2) and c != ("k", 1, 1)
        assert c.passed
        c.computed = 2
        assert not c.passed and c == Check("k", 2, 1)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Check("k", 1, 1))


class TestVerificationReport:
    def test_each_report_starts_with_its_own_empty_checks(self):
        first = VerificationReport("ek", "A2", "1>2", (1,))
        second = VerificationReport("ek", "A2", "1>2", (1,))
        assert first.checks == [] and first.checks is not second.checks
        first.add("k", 1, 1)
        assert second.checks == [] and len(first.checks) == 1
        assert first != second
        second.add("k", 1, 1)
        assert first == second

    def test_repr_and_explicit_checks(self):
        report = VerificationReport("kk", "A1", "", (), [Check("k", 0, 0)])
        assert repr(report) == (
            "VerificationReport(relation='kk', dynkin_type='A1', orientation='', "
            "args=(), checks=[Check(name='k', computed=0, expected=0)])"
        )
        report.relation = "ef"
        assert report.relation == "ef"
        with pytest.raises(TypeError):
            hash(report)


class TestVWPair:
    def _used_and_unused(self):
        idx = build_index(orient("E6", "alternating"))
        used = k_prime_pair(idx, 1)
        unused = VWPair(used.v, used.w)
        leading_exponent(idx, used, e_pair(idx, 2))
        d_form(idx, used, used)
        return used, unused

    def test_reading_changes_no_value_behaviour(self):
        used, unused = self._used_and_unused()
        assert used == unused and hash(used) == hash(unused) and repr(used) == repr(unused)
        assert not used < unused and not unused < used

    def test_key_order_changes_neither_equality_nor_hash(self):
        v, w = {(1, 1): 2, (2, 0): 1, (3, 5): 4}, {(1, 0): 1, (2, 3): 2}
        pair = VWPair(v, w)
        for twin in (VWPair(dict(reversed(v.items())), w), VWPair(v, dict(reversed(w.items())))):
            assert twin == pair and hash(twin) == hash(pair)

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)),
    ], ids=["copy", "deepcopy", "pickle"])
    @pytest.mark.parametrize("hashed_first", [False, True])
    def test_copies_keep_equality_and_hash(self, clone, hashed_first):
        pair = VWPair({(1, 1): 2, (2, 0): 1}, {(1, 0): 1})
        if hashed_first:
            hash(pair)
        twin = clone(pair)
        assert twin == pair and hash(twin) == hash(pair)
        assert len({pair, twin}) == 1

    def test_one_coefficient_apart_is_unequal(self):
        pair = VWPair({(1, 1): 2, (2, 0): 1}, {(1, 0): 1})
        for other in (
            VWPair({(1, 1): 3, (2, 0): 1}, {(1, 0): 1}),
            VWPair({(1, 1): 2, (2, 0): 1}, {(1, 0): 2}),
            VWPair({(1, 1): 2}, {(1, 0): 1}),
        ):
            assert other != pair and not other == pair
            assert len({pair, other}) == 2

    @pytest.mark.parametrize("other", FOREIGN, ids=repr)
    def test_never_orders_against_a_foreign_value(self, other):
        pair = VWPair({}, {})
        with pytest.raises(TypeError):
            pair < other
        with pytest.raises(TypeError):
            other < pair

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_copies_carry_only_v_and_w(self, clone):
        used, unused = self._used_and_unused()
        assert pickle.dumps(used) == pickle.dumps(unused)
        twin = clone(used)
        assert type(twin) is VWPair and twin == used
        assert pickle.dumps(twin) == pickle.dumps(unused)


@pytest.mark.parametrize("make", [
    lambda: DerivedObject((2, 1), 1),
    lambda: orient("D4", "alternating"),
    lambda: cones(build_index(orient("A2", "linear"))),
    lambda: GradedClass((1,), (0,)),
    lambda: Check("k", 1, 1),
    lambda: VerificationReport("ek", "A2", "1>2", (1,), [Check("k", 1, 1)]),
    lambda: VWPair({(1, 1): 2}, {(1, 0): 1}),
], ids=["DerivedObject", "DynkinQuiver", "Cones", "GradedClass", "Check", "VerificationReport",
        "VWPair"])
@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)),
], ids=["copy", "deepcopy", "pickle"])
def test_copies_are_equal(make, clone):
    value = make()
    twin = clone(value)
    assert twin == value and type(twin) is type(value) and repr(twin) == repr(value)
    if hasattr(value, "neighbours"):
        assert twin.neighbours == value.neighbours


COEFFICIENT_HOLDERS = {
    "canon": lambda c: canon({(1, 1): c}),
    "VWPair.v": lambda c: VWPair({(1, 1): c}, {}).v,
    "VWPair.w": lambda c: VWPair({}, {(1, 0): c}).w,
    "HalfLaurent": lambda c: HalfLaurent({2: c}).terms,
}


@pytest.mark.parametrize("holder", COEFFICIENT_HOLDERS.values(), ids=COEFFICIENT_HOLDERS)
@pytest.mark.parametrize("c", [0.5, 1.5, 2.0, -1.0, 0.0])
def test_float_coefficients_raise(holder, c):
    with pytest.raises(TypeError):
        holder(c)


@pytest.mark.parametrize("holder", COEFFICIENT_HOLDERS.values(), ids=COEFFICIENT_HOLDERS)
def test_true_reads_as_the_int_one(holder):
    (value,) = holder(True).values()
    assert value == 1 and type(value) is int


@pytest.mark.parametrize("holder", COEFFICIENT_HOLDERS.values(), ids=COEFFICIENT_HOLDERS)
def test_false_reads_as_the_int_zero(holder):
    assert holder(False) == {}
