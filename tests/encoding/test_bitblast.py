"""Bit-blasting validated against the reference evaluator.

The central property: for any term and any assignment to its variables,
pinning the variables in CNF and solving must yield the value the reference
evaluator computes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding import BitBlaster, CnfBuilder
from repro.encoding import formula as F
from repro.sat import SolveResult, Solver


def check_bool(term, env):
    """Pin env, solve, compare model value of `term` with the evaluator."""
    solver = Solver()
    builder = CnfBuilder(solver)
    blaster = BitBlaster(builder)
    out = blaster.blast_bool(term)
    _pin_env(builder, blaster, term, env)
    assert solver.solve() == SolveResult.SAT
    expected = F.evaluate(term, env)
    assert solver.model_lit(out) == expected


def check_bv(term, env):
    solver = Solver()
    builder = CnfBuilder(solver)
    blaster = BitBlaster(builder)
    bits = blaster.blast_bv(term)
    _pin_env(builder, blaster, term, env)
    assert solver.solve() == SolveResult.SAT
    got = sum(1 << i for i, lit in enumerate(bits) if solver.model_lit(lit))
    assert got == F.evaluate(term, env)


def _pin_env(builder, blaster, term, env):
    names = _vars_of(term)
    for name, width in names.items():
        value = env[name]
        if width is None:
            lit = blaster.blast_bool(F.bool_var(name))
            builder.fix(lit if value else -lit)
        else:
            bits = blaster.blast_bv(F.bv_var(name, width))
            for i, lit in enumerate(bits):
                builder.fix(lit if (value >> i) & 1 else -lit)


def _vars_of(term, acc=None):
    if acc is None:
        acc = {}
    if term.op == "boolvar":
        acc[term.name] = None
    elif term.op == "bvvar":
        acc[term.name] = term.width
    for a in term.args:
        _vars_of(a, acc)
    return acc


W = 6  # width used in property tests (keeps CNFs small)
bv_value = st.integers(0, (1 << W) - 1)


class TestArithmetic:
    @settings(max_examples=40, deadline=None)
    @given(a=bv_value, b=bv_value)
    def test_add(self, a, b):
        t = F.bv_add(F.bv_var("a", W), F.bv_var("b", W))
        check_bv(t, {"a": a, "b": b})

    @settings(max_examples=40, deadline=None)
    @given(a=bv_value, b=bv_value)
    def test_sub(self, a, b):
        t = F.bv_sub(F.bv_var("a", W), F.bv_var("b", W))
        check_bv(t, {"a": a, "b": b})

    @settings(max_examples=30, deadline=None)
    @given(a=bv_value, b=bv_value)
    def test_mul(self, a, b):
        t = F.bv_mul(F.bv_var("a", W), F.bv_var("b", W))
        check_bv(t, {"a": a, "b": b})

    @settings(max_examples=30, deadline=None)
    @given(a=bv_value)
    def test_neg(self, a):
        check_bv(F.bv_neg(F.bv_var("a", W)), {"a": a})

    @settings(max_examples=30, deadline=None)
    @given(a=bv_value, k=st.integers(0, W))
    def test_shifts(self, a, k):
        check_bv(F.shl(F.bv_var("a", W), k), {"a": a})
        check_bv(F.lshr(F.bv_var("a", W), k), {"a": a})


class TestBitwise:
    @settings(max_examples=25, deadline=None)
    @given(a=bv_value, b=bv_value)
    def test_and_or_xor_not(self, a, b):
        va, vb = F.bv_var("a", W), F.bv_var("b", W)
        for t in [F.bv_and(va, vb), F.bv_or(va, vb), F.bv_xor(va, vb), F.bv_not(va)]:
            check_bv(t, {"a": a, "b": b})


class TestComparisons:
    @settings(max_examples=40, deadline=None)
    @given(a=bv_value, b=bv_value)
    def test_eq_ult_slt(self, a, b):
        va, vb = F.bv_var("a", W), F.bv_var("b", W)
        for t in [F.eq(va, vb), F.ult(va, vb), F.slt(va, vb), F.ule(va, vb), F.sle(va, vb)]:
            check_bool(t, {"a": a, "b": b})


class TestIte:
    @settings(max_examples=25, deadline=None)
    @given(c=st.booleans(), a=bv_value, b=bv_value)
    def test_bv_ite(self, c, a, b):
        t = F.bv_ite(F.bool_var("c"), F.bv_var("a", W), F.bv_var("b", W))
        check_bv(t, {"c": c, "a": a, "b": b})

    @settings(max_examples=25, deadline=None)
    @given(c=st.booleans(), t=st.booleans(), e=st.booleans())
    def test_bool_ite(self, c, t, e):
        term = F.ite(F.bool_var("c"), F.bool_var("t"), F.bool_var("e"))
        check_bool(term, {"c": c, "t": t, "e": e})


# Random nested expression property test ------------------------------------

def bv_terms(depth):
    leaf = st.one_of(
        st.sampled_from([F.bv_var("a", W), F.bv_var("b", W), F.bv_var("c", W)]),
        st.integers(0, (1 << W) - 1).map(lambda v: F.bv_const(v, W)),
    )
    if depth == 0:
        return leaf
    sub = bv_terms(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, sub).map(lambda p: F.bv_add(*p)),
        st.tuples(sub, sub).map(lambda p: F.bv_sub(*p)),
        st.tuples(sub, sub).map(lambda p: F.bv_xor(*p)),
        st.tuples(sub, sub, sub).map(lambda p: F.bv_ite(F.ult(p[0], p[1]), p[2], p[0])),
    )


@settings(max_examples=40, deadline=None)
@given(
    t=bv_terms(3),
    a=bv_value,
    b=bv_value,
    c=bv_value,
)
def test_random_nested_terms(t, a, b, c):
    if t.op == "bvconst":
        return
    check_bv(t, {"a": a, "b": b, "c": c})


def test_bv_value_roundtrip():
    solver = Solver()
    builder = CnfBuilder(solver)
    blaster = BitBlaster(builder)
    a = F.bv_var("a", 8)
    blaster.assert_term(F.eq(a, F.bv_const(42, 8)))
    assert solver.solve() == SolveResult.SAT
    assert blaster.bv_value("a") == 42


def test_unsat_contradiction():
    solver = Solver()
    builder = CnfBuilder(solver)
    blaster = BitBlaster(builder)
    a = F.bv_var("a", 8)
    blaster.assert_term(F.eq(a, F.bv_const(1, 8)))
    blaster.assert_term(F.eq(a, F.bv_const(2, 8)))
    assert solver.solve() == SolveResult.UNSAT


def test_width_mismatch_redeclaration_rejected():
    solver = Solver()
    blaster = BitBlaster(CnfBuilder(solver))
    blaster.blast_bv(F.bv_var("a", 8))
    with pytest.raises(ValueError):
        blaster.blast_bv(F.bv_var("a", 4))


# Polarity lowering of asserted terms -----------------------------------------
#
# ``assert_term`` / ``imply_term`` must admit exactly the assignments to the
# named variables that the Tseitin path ``fix(blast_bool(t))`` admits.

def _blast(assertion):
    """Run ``assertion(blaster, builder)`` on a fresh solver."""
    solver = Solver()
    builder = CnfBuilder(solver)
    blaster = BitBlaster(builder)
    assertion(blaster, builder)
    return solver, blaster


def _projected_models(solver, blaster, names):
    """Every assignment to ``names`` (name -> width, None for Bool) that
    extends to a model, as tuples of values in ``names`` order."""
    lits = []
    for name, width in names.items():
        if width is None:
            lits.append([blaster.blast_bool(F.bool_var(name))])
        else:
            lits.append(blaster.blast_bv(F.bv_var(name, width)))
    total = sum(len(bits) for bits in lits)
    models = set()
    for code in range(1 << total):
        assumptions, values, shift = [], [], 0
        for bits in lits:
            value = (code >> shift) & ((1 << len(bits)) - 1)
            shift += len(bits)
            values.append(value)
            assumptions.extend(
                lit if (value >> i) & 1 else -lit for i, lit in enumerate(bits)
            )
        if solver.solve(assumptions=assumptions) == SolveResult.SAT:
            models.add(tuple(values))
    return models


def _lowering_terms(w):
    """Bool terms over BV vars ``a``/``x`` of width ``w`` and Bool ``c``,
    biased towards top-level definitions ``x = e``."""
    bv_leaf = st.one_of(
        st.sampled_from([F.bv_var("a", w), F.bv_var("x", w)]),
        st.integers(0, (1 << w) - 1).map(lambda v: F.bv_const(v, w)),
    )
    bv = st.recursive(
        bv_leaf,
        lambda sub: st.one_of(
            st.tuples(sub, sub).map(lambda p: F.bv_add(*p)),
            st.tuples(sub, sub, sub).map(
                lambda p: F.bv_ite(F.eq(p[0], p[1]), p[2], p[0])
            ),
        ),
        max_leaves=4,
    )
    atom = st.one_of(
        st.tuples(st.sampled_from(["a", "x"]), bv).map(
            lambda p: F.eq(F.bv_var(p[0], w), p[1])
        ),
        st.tuples(bv, st.sampled_from(["a", "x"])).map(
            lambda p: F.eq(p[0], F.bv_var(p[1], w))
        ),
        st.just(F.bool_var("c")),
    )
    boolean = st.recursive(
        atom,
        lambda sub: st.one_of(
            st.lists(sub, min_size=2, max_size=3).map(lambda ts: F.mk_and(*ts)),
            st.lists(sub, min_size=2, max_size=3).map(lambda ts: F.mk_or(*ts)),
            sub.map(F.mk_not),
        ),
        max_leaves=4,
    )
    return st.lists(boolean, min_size=1, max_size=3)


@st.composite
def lowering_cases(draw):
    w = draw(st.sampled_from([2, 3]))
    return w, draw(_lowering_terms(w))


class TestPolarityLowering:
    @settings(max_examples=40, deadline=None)
    @given(case=lowering_cases())
    def test_assert_term_matches_tseitin_path(self, case):
        w, terms = case
        names = {"a": w, "x": w, "c": None}

        def tseitin(blaster, builder):
            for t in terms:
                builder.fix(blaster.blast_bool(t))

        def lowered(blaster, _builder):
            for t in terms:
                blaster.assert_term(t)

        expected = _projected_models(*_blast(tseitin), names)
        assert _projected_models(*_blast(lowered), names) == expected

    @settings(max_examples=40, deadline=None)
    @given(case=lowering_cases())
    def test_imply_term_matches_tseitin_path(self, case):
        w, terms = case
        names = {"p": None, "a": w, "x": w, "c": None}
        term = F.mk_and(*terms)

        def tseitin(blaster, builder):
            builder.imply(blaster.blast_bool(F.bool_var("p")), blaster.blast_bool(term))

        def lowered(blaster, _builder):
            blaster.imply_term(blaster.blast_bool(F.bool_var("p")), term)

        expected = _projected_models(*_blast(tseitin), names)
        assert _projected_models(*_blast(lowered), names) == expected

    def test_use_before_definition_binds_by_clauses(self):
        a, x = F.bv_var("a", 3), F.bv_var("x", 3)

        def assertion(blaster, _builder):
            blaster.assert_term(F.ult(x, F.bv_const(5, 3)))  # x gets bits here
            blaster.assert_term(F.eq(x, F.bv_add(a, F.bv_const(1, 3))))

        solver, blaster = _blast(assertion)
        models = _projected_models(solver, blaster, {"a": 3, "x": 3})
        assert models == {(v, (v + 1) % 8) for v in range(8) if (v + 1) % 8 < 5}

    def test_double_definition_is_unsat(self):
        x = F.bv_var("x", 8)
        one, two = F.bv_const(1, 8), F.bv_const(2, 8)
        solver, _ = _blast(
            lambda blaster, _b: blaster.assert_term(F.mk_and(F.eq(x, one), F.eq(x, two)))
        )
        assert solver.solve() == SolveResult.UNSAT

    def test_self_equality_adds_nothing(self):
        x = F.bv_var("x", 4)
        solver, blaster = _blast(lambda blaster, _b: blaster.blast_bv(x))
        nvars, nclauses = solver.nvars, solver.num_clauses
        blaster.assert_term(F.Term("eq", (x, x)))  # the constructor folds it
        assert (solver.nvars, solver.num_clauses) == (nvars, nclauses)
        assert solver.solve() == SolveResult.SAT

    def test_variable_in_its_own_definition(self):
        x = F.bv_var("x", 4)
        solver, _ = _blast(
            lambda blaster, _b: blaster.assert_term(
                F.eq(x, F.bv_add(x, F.bv_const(1, 4)))
            )
        )
        assert solver.solve() == SolveResult.UNSAT

    def test_alias_chain(self):
        x, y, z = (F.bv_var(n, 8) for n in "xyz")

        def assertion(blaster, _builder):
            blaster.assert_term(F.eq(x, y))  # x aliases y's fresh bits
            blaster.assert_term(F.eq(y, z))  # z (unbound, right side) aliases y
            blaster.assert_term(F.eq(z, F.bv_const(77, 8)))  # all bound: clauses

        solver, blaster = _blast(assertion)
        assert blaster.blast_bv(x) is blaster.blast_bv(y) is blaster.blast_bv(z)
        assert solver.solve() == SolveResult.SAT
        assert [blaster.bv_value(n) for n in "xyz"] == [77, 77, 77]

    def test_bv_value_of_aliased_variable(self):
        a, x = F.bv_var("a", 8), F.bv_var("x", 8)

        def assertion(blaster, _builder):
            blaster.assert_term(F.eq(a, F.bv_const(40, 8)))
            blaster.assert_term(F.eq(x, F.bv_add(a, F.bv_const(2, 8))))

        solver, blaster = _blast(assertion)
        assert blaster.has_var("x")
        assert blaster.blast_bv(x) is blaster.blast_bv(F.bv_add(a, F.bv_const(2, 8)))
        assert solver.solve() == SolveResult.SAT
        assert blaster.bv_value("x") == 42

    def test_constant_definition_allocates_no_variables(self):
        solver, blaster = _blast(lambda blaster, _b: None)
        nvars = solver.nvars
        blaster.assert_term(F.eq(F.bv_var("x", 8), F.bv_const(200, 8)))
        assert solver.nvars == nvars
        assert solver.solve() == SolveResult.SAT
        assert blaster.bv_value("x") == 200

    @pytest.mark.parametrize("width", [1, 4, 8])
    def test_imply_equality_is_two_clauses_per_bit(self, width):
        x, y = F.bv_var("x", width), F.bv_var("y", width)
        solver, blaster = _blast(lambda blaster, _b: None)
        p = blaster.blast_bool(F.bool_var("p"))
        blaster.blast_bv(x)
        blaster.blast_bv(y)
        nvars, nclauses = solver.nvars, solver.num_clauses
        blaster.imply_term(p, F.eq(x, y))
        assert solver.nvars == nvars
        assert solver.num_clauses - nclauses <= 2 * width
