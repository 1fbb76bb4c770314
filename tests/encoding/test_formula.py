"""Tests for the hash-consed term IR and its constant folding."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding import formula as F


class TestHashConsing:
    def test_equal_terms_are_identical(self):
        a1 = F.bv_var("a", 8)
        a2 = F.bv_var("a", 8)
        assert a1 is a2
        s1 = F.bv_add(a1, F.bv_const(3, 8))
        s2 = F.bv_add(a2, F.bv_const(3, 8))
        assert s1 is s2

    def test_distinct_widths_distinct_terms(self):
        assert F.bv_var("a", 8) is not F.bv_var("a", 16)

    def test_bool_constants_are_singletons(self):
        assert F.bool_const(True) is F.TRUE
        assert F.bool_const(False) is F.FALSE


    def test_table_drops_terms_no_longer_in_use(self):
        # A long-lived process (service worker, fuzz loop) must not keep
        # every term it ever built.
        from repro import api
        from repro.oracle.generator import generate_source

        gc.collect()
        baseline = len(F.Term._table)
        for seed in range(200):
            api.verify(generate_source(seed))
        gc.collect()
        assert len(F.Term._table) == baseline


class TestFolding:
    def test_and_short_circuit(self):
        p = F.bool_var("p")
        assert F.mk_and(p, F.FALSE) is F.FALSE
        assert F.mk_and(p, F.TRUE) is p
        assert F.mk_and() is F.TRUE

    def test_or_short_circuit(self):
        p = F.bool_var("p")
        assert F.mk_or(p, F.TRUE) is F.TRUE
        assert F.mk_or(p, F.FALSE) is p
        assert F.mk_or() is F.FALSE

    def test_not_involution(self):
        p = F.bool_var("p")
        assert F.mk_not(F.mk_not(p)) is p
        assert F.mk_not(F.TRUE) is F.FALSE

    def test_and_flattens(self):
        p, q, r = F.bool_var("p"), F.bool_var("q"), F.bool_var("r")
        t = F.mk_and(F.mk_and(p, q), r)
        assert t.op == "and"
        assert set(t.args) == {p, q, r}

    def test_const_arith_folds(self):
        assert F.bv_add(F.bv_const(250, 8), F.bv_const(10, 8)).value == 4
        assert F.bv_sub(F.bv_const(3, 8), F.bv_const(5, 8)).value == 254
        assert F.bv_mul(F.bv_const(16, 8), F.bv_const(16, 8)).value == 0

    def test_add_zero_identity(self):
        a = F.bv_var("a", 8)
        assert F.bv_add(a, F.bv_const(0, 8)) is a
        assert F.bv_add(F.bv_const(0, 8), a) is a

    def test_mul_identities(self):
        a = F.bv_var("a", 8)
        assert F.bv_mul(a, F.bv_const(1, 8)) is a
        assert F.bv_mul(a, F.bv_const(0, 8)).value == 0

    def test_sub_self_is_zero(self):
        a = F.bv_var("a", 8)
        assert F.bv_sub(a, a).value == 0

    def test_eq_reflexive(self):
        a = F.bv_var("a", 8)
        assert F.eq(a, a) is F.TRUE

    def test_const_comparisons_fold(self):
        assert F.ult(F.bv_const(1, 8), F.bv_const(2, 8)) is F.TRUE
        # 255 is -1 signed.
        assert F.slt(F.bv_const(255, 8), F.bv_const(0, 8)) is F.TRUE
        assert F.slt(F.bv_const(0, 8), F.bv_const(255, 8)) is F.FALSE

    def test_ite_folding(self):
        t, e = F.bool_var("t"), F.bool_var("e")
        assert F.ite(F.TRUE, t, e) is t
        assert F.ite(F.FALSE, t, e) is e
        assert F.ite(F.bool_var("c"), t, t) is t


class TestSortChecking:
    def test_bool_op_rejects_bv(self):
        with pytest.raises(F.SortError):
            F.mk_and(F.bv_var("a", 8))

    def test_bv_op_rejects_mixed_width(self):
        with pytest.raises(F.SortError):
            F.bv_add(F.bv_var("a", 8), F.bv_var("b", 16))

    def test_bv_op_rejects_bool(self):
        with pytest.raises(F.SortError):
            F.bv_add(F.bool_var("p"), F.bool_var("q"))

    def test_nonpositive_width_rejected(self):
        with pytest.raises(F.SortError):
            F.bv_var("a", 0)


@settings(max_examples=200, deadline=None)
@given(a=st.integers(0, 255), b=st.integers(0, 255))
def test_constant_folding_matches_evaluator(a, b):
    ta, tb = F.bv_const(a, 8), F.bv_const(b, 8)
    for op, pyop in [
        (F.bv_add, lambda x, y: (x + y) & 255),
        (F.bv_sub, lambda x, y: (x - y) & 255),
        (F.bv_mul, lambda x, y: (x * y) & 255),
        (F.bv_and, lambda x, y: x & y),
        (F.bv_or, lambda x, y: x | y),
        (F.bv_xor, lambda x, y: x ^ y),
    ]:
        assert op(ta, tb).value == pyop(a, b)
    assert F.evaluate(F.eq(ta, tb), {}) == (a == b)
    assert F.evaluate(F.ult(ta, tb), {}) == (a < b)
