"""Per-layer self times, recorded from outside the program.

The traced run executes exactly the code the plain run executes: it
replaces each layer's public entry point *in place* with a timing
wrapper and restores the originals afterwards.  This works because
``repro.api.verify`` calls ``verify_one`` as a module global, the SMT
engine (``repro.verify.verifier.run_smt_engine``) looks up
``parse``, ``build_symbolic_program`` and ``extract_trace`` as module
globals and asks ``registry.resolve_theory`` for its encoder on every
call, and because the SAT core reaches the ordering theory through
``self.theory.assign`` / ``backjump`` / ``final_check``, which an
instance attribute on the encoded theory overrides.

Spans are aggregated on the fly rather than logged: a stack holds, for
each open span, the time its children covered, so closing a span adds
``duration - children`` to its layer.  The self times of all layers
therefore add up to the time spent inside any layer; what is left of the
wall time is ``repro.api`` dispatch and the benchmark's own loop.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class Tracer:
    """Self time per layer plus the counts only a wrapper can see."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[float] = []
        self._undo: List[Callable[[], None]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()

    def wrap(self, layer: str, fn: Callable, count: Optional[str] = None,
             on_result: Optional[Callable] = None) -> Callable:
        """``fn`` inside a span of ``layer``; ``count`` tallies calls,
        ``on_result`` sees each return value."""
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                self_s[layer] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if count is not None:
                counts[count] += 1
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """Run one call from the benchmark's own code inside a span."""
        return self.wrap(layer, fn)(*args, **kwargs)

    # ------------------------------------------------------------------
    # In-place instrumentation of the pipeline
    # ------------------------------------------------------------------

    def _patch(self, owner, name: str, replacement) -> None:
        original = getattr(owner, name)
        setattr(owner, name, replacement)
        self._undo.append(lambda: setattr(owner, name, original))

    def install(self) -> None:
        """Wrap every layer entry point the pipeline calls."""
        # ``repro.verify`` the attribute is the ``verify`` function, so
        # the package's submodules are reached through ``from`` imports.
        from repro import api, pyfront
        from repro.lang import sema
        from repro.verify import registry, verifier

        self._patch(api, "verify_one", self.wrap("verify", api.verify_one))
        self._patch(verifier, "parse", self.wrap("lang", verifier.parse))
        self._patch(
            sema, "check_program", self.wrap("lang", sema.check_program)
        )
        self._patch(
            verifier,
            "build_symbolic_program",
            self.wrap(
                "frontend",
                verifier.build_symbolic_program,
                on_result=self._count_events,
            ),
        )
        self._patch(
            verifier, "extract_trace", self.wrap("witness", verifier.extract_trace)
        )
        self._patch(
            pyfront,
            "translate_file",
            self.wrap("pyfront.translate", pyfront.translate_file),
        )
        resolve = registry.resolve_theory

        def resolve_theory(name):
            return self.wrap(
                "encoding", resolve(name), on_result=self._instrument_encoded
            )

        self._patch(registry, "resolve_theory", resolve_theory)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _count_events(self, sym) -> None:
        self.counts["frontend.events"] += len(sym.events)

    def _instrument_encoded(self, encoded) -> None:
        """Per-instance wrappers: the SAT search and the T_ord callbacks
        of this one encoding (the instance dies with the task)."""
        solver = encoded.solver
        solver.solve = self.wrap("sat", solver.solve)
        theory = encoded.theory
        theory.assign = self.wrap(
            "ordering", theory.assign, count="ordering.assign_calls"
        )
        theory.backjump = self.wrap("ordering", theory.backjump)
        theory.final_check = self.wrap("ordering", theory.final_check)
