"""``repro.oracle``: correctness tooling for the verifier itself.

Three complementary oracles over the whole engine matrix:

* **differential testing** -- a seeded random program generator
  (:mod:`repro.oracle.generator`) feeds every program through a matrix of
  engine configurations (:mod:`repro.oracle.matrix`); any verdict
  disagreement between sound configurations is a bug in at least one of
  them (:mod:`repro.oracle.harness`);
* **semantic witness replay** -- every ``UNSAFE`` verdict's witness is
  replayed through the concrete SMC interpreter
  (:mod:`repro.smc.witness_replay`), so a wrong ``UNSAFE`` cannot hide
  behind an agreeing-but-wrong sibling;
* **invariant auditing** -- ``REPRO_AUDIT=1`` /
  ``VerifierConfig(audit=True)`` arms per-step internal checks in the SAT
  core and the T_ord theory solver (:mod:`repro.oracle.audit`), and an
  independent proof checker that certifies every UNSAT and checks every
  model (:mod:`repro.oracle.certify`).

Failing programs are minimized by a delta-debugging shrinker
(:mod:`repro.oracle.shrinker`).  The CLI front end is ``repro fuzz``.

This ``__init__`` deliberately imports only the (dependency-free) audit
module: the SAT core and theory solver import it from their constructors,
and must not drag the generator/harness stack (and with it the whole
verify layer) into every solver construction.
"""

from repro.oracle.audit import AuditError, audit_enabled, audit_scope

__all__ = ["AuditError", "audit_enabled", "audit_scope"]
