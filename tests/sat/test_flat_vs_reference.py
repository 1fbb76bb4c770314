"""Independent oracles for the flat-arena kernel solver: the audit's proof
checker (:mod:`repro.oracle.certify`) and exhaustive enumeration.

Three layers of evidence that the kernel answers correctly:

* random near-threshold 3-SAT, solved audited: every SAT model satisfies
  the CNF, every UNSAT is certified by the checker, and on small
  instances the verdict equals exhaustive enumeration's;
* random incremental runs with assumptions: every unsat core is a subset
  of the assumptions whose negation the checker certifies, every model
  satisfies the assumptions, and on small instances every call's verdict
  and the sufficiency of its core agree with enumeration;
* random concurrent programs through the full Zord pipeline (encoder +
  T_ord theory), verified audited: every SAFE is certified (its learned
  clauses by RUP, its theory lemmas as real cycles) and every UNSAFE
  model is checked against the inputs and the ordering axioms.
"""

import random

import pytest

from repro.oracle.audit import audit_scope
from repro.sat import SolveResult, Solver

from tests.sat.test_incremental import brute_force_sat_under
from tests.sat.test_solver import brute_force_sat

#: Variables of the instances checked by exhaustive enumeration.
SMALL = 14


def random_cnf(seed, nvars, nclauses, k=3):
    rng = random.Random(seed)
    clauses = []
    for _ in range(nclauses):
        clause = []
        while len(clause) < k:
            v = rng.randint(1, nvars)
            if v not in map(abs, clause):
                clause.append(v if rng.random() < 0.5 else -v)
        clauses.append(clause)
    return clauses


def build(nvars, clauses):
    """An audited solver holding ``clauses``."""
    with audit_scope(True):
        s = Solver()
    for _ in range(nvars):
        s.new_var()
    for c in clauses:
        s.add_clause(c)
    return s


def solve_checked(s, clauses, assumptions=()):
    """Solve ``s`` audited and check the answer's evidence."""
    checker = s.checker
    certified = checker.certified if checker else 0
    models = checker.models if checker else 0
    res = s.solve(assumptions=list(assumptions))
    if res == SolveResult.SAT:
        assert s.checker.models == models + 1
        for c in clauses:
            assert any(s.model_lit(l) for l in c)
        for a in assumptions:
            assert s.model_lit(a)
    else:
        assert s.checker.certified == certified + 1
        assert set(s.unsat_core) <= set(assumptions)
    return res


class TestRandomCnfDifferential:
    @pytest.mark.parametrize("seed", range(40))
    def test_verdict_and_model_equivalence(self, seed):
        nvars = 50
        clauses = random_cnf(seed, nvars, int(nvars * 4.26))
        solve_checked(build(nvars, clauses), clauses)
        small = random_cnf(seed, SMALL, int(SMALL * 4.26))
        res = solve_checked(build(SMALL, small), small)
        expected = brute_force_sat(SMALL, small)
        assert res == (SolveResult.SAT if expected else SolveResult.UNSAT)

    @pytest.mark.parametrize("seed", range(41, 49))
    def test_incremental_assumptions_and_cores(self, seed):
        rng = random.Random(seed * 7919)
        for nvars in (40, SMALL):
            clauses = random_cnf(seed, nvars, int(nvars * 4.0))
            s = build(nvars, clauses)
            for _ in range(4):
                n_assume = rng.randint(2, min(8, nvars))
                assumptions = []
                for v in rng.sample(range(1, nvars + 1), n_assume):
                    assumptions.append(v if rng.random() < 0.5 else -v)
                res = solve_checked(s, clauses, assumptions)
                if nvars != SMALL:
                    continue
                expected = brute_force_sat_under(nvars, clauses, assumptions)
                assert res == (SolveResult.SAT if expected else SolveResult.UNSAT)
                if res == SolveResult.UNSAT:
                    # The core is sufficient: the formula plus the core
                    # alone is still unsatisfiable.
                    assert not brute_force_sat_under(nvars, clauses, s.unsat_core)


class TestTheoryPipelineDifferential:
    """Random concurrent programs through the full encoder + T_ord theory,
    verified with the audit's proof checker on."""

    @pytest.mark.parametrize("seed", range(12))
    def test_zord_verdict_equivalence(self, seed, monkeypatch):
        import repro.sat.solver as solver_mod
        from repro.api import verify
        from repro.oracle.generator import generate_source
        from repro.verify import Verdict, VerifierConfig

        solvers = []
        init = solver_mod.Solver.__init__

        def recording_init(self, *args, **kw):
            init(self, *args, **kw)
            solvers.append(self)

        monkeypatch.setattr(solver_mod.Solver, "__init__", recording_init)
        source = generate_source(seed)
        plain = verify(source, VerifierConfig(audit=False))
        audited = verify(source, VerifierConfig(audit=True))
        assert audited.verdict == plain.verdict, (
            f"seed {seed}: plain={plain.verdict} audited={audited.verdict}"
        )
        assert plain.verdict in (Verdict.SAFE, Verdict.UNSAFE)
        checked = [s for s in solvers if s.audit]
        assert len(checked) == 1 and checked[0].checker is not None
        # An unwind schedule certifies each shallower UNSAT on the way.
        checker = checked[0].checker
        if audited.verdict == Verdict.SAFE:
            assert checker.certified >= 1 and checker.models == 0
        else:
            assert checker.models == 1
