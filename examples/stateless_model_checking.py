"""Stateless model checking demo: trace spaces and partial-order reduction.

Explores the Table 3 benchmark families with naive enumeration and
Source-DPOR, printing the interleaving counts vs the reads-from
equivalence-class counts -- the quantities that decide when stateless
checkers beat symbolic ones (Section 6.4).

Run:  python examples/stateless_model_checking.py
"""

from repro.bench.nidhugg import FAMILIES
from repro.lang import parse
from repro.robustness import Budget, BudgetExceeded, active_budget
from repro.smc import ExploreOutcome, Explorer, compile_program


def explore(task, mode, time_limit=10.0):
    compiled = compile_program(parse(task.source), width=8, unwind=task.unwind)
    try:
        with active_budget(Budget(time_limit_s=time_limit)):
            return Explorer(compiled, mode=mode).run()
    except BudgetExceeded:
        return ExploreOutcome(verdict="unknown")


def main() -> None:
    header = (
        f"{'program':<16} {'naive':>10} {'dpor':>8} {'rf-classes':>11} "
        f"{'verdict':>8}"
    )
    print(header)
    print("-" * len(header))
    for family in ("CO-2+2W", "airline", "fib_bench", "parker", "account"):
        gen, _paper, ours = FAMILIES[family]
        for param in ours[:2]:
            task = gen(param)
            naive = explore(task, "naive", time_limit=5.0)
            dpor = explore(task, "dpor")
            naive_count = (
                str(naive.traces) if naive.verdict != "unknown" else ">10^?"
            )
            print(
                f"{task.name:<16} {naive_count:>10} {dpor.traces:>8} "
                f"{dpor.rf_classes:>11} {dpor.verdict:>8}"
            )
    print()
    print("Source-DPOR explores one interleaving per Mazurkiewicz trace;")
    print("the rf-classes column is what Nidhugg/rfsc and GenMC scale with.")


if __name__ == "__main__":
    main()
