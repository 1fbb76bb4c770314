"""Built-in engine and theory registrations.

Imported (exactly once) by :mod:`repro.verify.registry` the first time any
registry lookup happens.  Each loader defers the engine's module import to
first use, so constructing a :class:`VerifierConfig` stays cheap and the
baseline engines never load unless selected.

The non-SMT engines historically expose ``verify_xxx(program, config)``;
:func:`_adapt` wraps them into the registry's runner signature
``runner(program, config, telemetry=None)``.
"""

from __future__ import annotations

from repro.verify.registry import register_engine, register_theory


def _adapt(fn):
    def runner(program, config, telemetry=None):
        return fn(program, config)

    return runner


def _smt_loader():
    from repro.verify.verifier import run_smt_engine

    return run_smt_engine


def _closure_loader():
    from repro.baselines.closure import verify_closure

    return _adapt(verify_closure)


def _explicit_loader():
    from repro.baselines.explicit import verify_explicit

    return _adapt(verify_explicit)


def _lazyseq_loader():
    from repro.baselines.lazyseq import verify_lazyseq

    return _adapt(verify_lazyseq)


def _rfsc_loader():
    from repro.smc.rfsc import verify_rfsc

    return _adapt(verify_rfsc)


def _genmc_loader():
    from repro.smc.genmc import verify_genmc

    return _adapt(verify_genmc)


def _ord_theory_loader():
    from repro.analysis.prune import build_prune_plan
    from repro.encoding.encoder import encode_program

    def encode(sym, config):
        plan = None
        level = getattr(config, "prune_level", 0) or 0
        if level > 0:
            plan = build_prune_plan(sym, level)
        return encode_program(
            sym,
            detector=config.detector,
            unit_edge=config.unit_edge,
            fr_encoding=config.fr_encoding,
            max_conflict_clauses=config.max_conflict_clauses,
            memory_model=config.memory_model,
            prune_plan=plan,
        )

    return encode


def _idl_theory_loader():
    from repro.baselines.idl import encode_program_idl

    def encode(sym, config):
        return encode_program_idl(sym, memory_model=config.memory_model)

    return encode


register_engine(
    "smt",
    _smt_loader,
    theories=("ord", "idl"),
    detectors=("icd", "tarjan"),
    memory_models=("sc", "tso", "pso"),
    description="partial-order BMC via DPLL(T) (Zord and the CBMC-style "
    "IDL baseline)",
)
register_engine(
    "closure",
    _closure_loader,
    description="pure-SAT transitive-closure encoding (Dartagnan-style)",
)
register_engine(
    "explicit",
    _explicit_loader,
    description="explicit-state reachability (CPA-Seq-style)",
)
register_engine(
    "lazyseq",
    _lazyseq_loader,
    description="bounded round-robin sequentialization (Lazy-CSeq-style)",
)
register_engine(
    "smc-rfsc",
    _rfsc_loader,
    description="stateless model checking, reads-from equivalence "
    "(Nidhugg/rfsc-style)",
)
register_engine(
    "smc-genmc",
    _genmc_loader,
    description="stateless model checking, execution graphs (GenMC-style)",
)

register_theory(
    "ord",
    _ord_theory_loader,
    description="the paper's T_ord ordering-consistency theory",
)
register_theory(
    "idl",
    _idl_theory_loader,
    description="clock-difference (IDL) encoding with full FR constraints",
)
