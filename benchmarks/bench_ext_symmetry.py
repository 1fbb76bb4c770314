"""Extension experiment: symmetry breaking on the stress families.

Identical threads make T_ord refute each order of their critical sections
on its own (Hadarean, Horn and King, PAPERS.md).  The SYMMETRY edges
(``repro.encoding.symmetry``, prune level 2) order the first events of
interchangeable threads.  This bench reports conflicts and wall time on
the ``mutex-counter`` grid (n threads, k locked increments each, unwind
4) and ``ticket-lock`` 2-4 for

* ``zord/prune1`` -- Zord without the edges (prune level 1),
* ``zord`` -- Zord with them (the default level 2),
* ``zord'`` -- Zord′ (no unit-edge propagation) with them,
* ``cbmc`` -- the IDL baseline, which never gets them.

Rows that take more than about a second are left to a run by hand::

    PYTHONPATH=src python benchmarks/bench_ext_symmetry.py

which prints the whole table (about two minutes on a 2-vCPU host) and
writes it to ``benchmarks/out/ext_symmetry.txt``.
"""

import sys
import time

from repro.bench.patterns import ticket_lock
from repro.bench.svcomp import _mutex_counter
from repro.verify import VerifierConfig, verify

CONFIGS = {
    "zord/prune1": lambda **kw: VerifierConfig.zord(prune_level=1, **kw),
    "zord": VerifierConfig.zord,
    "zord'": VerifierConfig.zord_prime,
    "cbmc": VerifierConfig.cbmc,
}

#: (name, source, unwind); rows under about a second in every config.
FAST_ROWS = [
    (f"mutex-counter-{n}x{k}", _mutex_counter(n, k, True), 4)
    for n, k in ((2, 1), (2, 2), (3, 1), (2, 3), (4, 1), (3, 2))
] + [("ticket-lock-2", ticket_lock(2), 4)]

SLOW_ROWS = [
    (f"mutex-counter-{n}x{k}", _mutex_counter(n, k, True), 4)
    for n, k in ((3, 3), (4, 2))
] + [("ticket-lock-3", ticket_lock(3), 5), ("ticket-lock-4", ticket_lock(4), 6)]


def measure(rows):
    """``{(row, config): (conflicts, seconds)}``; every answer is SAFE."""
    out = {}
    for name, src, unwind in rows:
        for cfg, make in CONFIGS.items():
            t = time.perf_counter()
            result = verify(src, make(unwind=unwind, unwind_schedule=()))
            assert result.is_safe, (name, cfg, result.verdict)
            out[name, cfg] = (result.stats["conflicts"], time.perf_counter() - t)
    return out


def render(rows, cells) -> str:
    head = f"{'task':<20}" + "".join(f"{c:>20}" for c in CONFIGS)
    lines = [head, f"{'':<20}" + f"{'conflicts / s':>20}" * len(CONFIGS)]
    for name, _, _ in rows:
        line = f"{name:<20}"
        for cfg in CONFIGS:
            conflicts, secs = cells[name, cfg]
            line += f"{conflicts:>12,} / {secs:5.2f}"
        lines.append(line)
    return "\n".join(lines)


def test_symmetry_fast_rows(benchmark):
    from conftest import write_output

    src = FAST_ROWS[5][1]
    benchmark.pedantic(
        lambda: verify(src, VerifierConfig.zord(unwind=4)), rounds=3, iterations=1
    )
    cells = measure(FAST_ROWS)
    for name, _, _ in FAST_ROWS:
        # The edges never cost Zord a conflict on these rows.
        assert cells[name, "zord"][0] <= cells[name, "zord/prune1"][0], name
    write_output("ext_symmetry.txt", render(FAST_ROWS, cells))


if __name__ == "__main__":
    sys.path.insert(0, __file__.rsplit("/", 1)[0])
    from conftest import write_output

    rows = FAST_ROWS + SLOW_ROWS
    write_output("ext_symmetry.txt", render(rows, measure(rows)))
