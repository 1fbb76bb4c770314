"""The random program generator: validity, determinism, coverage."""

import random
import re

from repro.lang import parse
from repro.lang.ast import Program, ThreadDef
from repro.lang.sema import check_program
from repro.lang.unparse import unparse
from repro.oracle.generator import (
    SYMMETRIC_EVERY,
    _Gen,
    GenConfig,
    generate_program,
    generate_source,
)

N_SEEDS = 200


class TestValidity:
    def test_every_seed_parses_and_checks(self):
        for seed in range(N_SEEDS):
            program = parse(generate_source(seed))
            check_program(program)

    def test_round_trips_through_unparse(self):
        for seed in range(0, N_SEEDS, 7):
            src = generate_source(seed)
            assert unparse(parse(src)) == src


class TestDeterminism:
    def test_same_seed_same_program(self):
        for seed in (0, 1, 17, 99, 12345):
            assert generate_source(seed) == generate_source(seed)

    def test_different_seeds_differ_somewhere(self):
        sources = {generate_source(seed) for seed in range(50)}
        assert len(sources) > 25  # collisions are fine, monoculture is not


class TestCoverage:
    """The corpus must exercise every language feature it claims to."""

    def _corpus(self):
        return [generate_source(seed) for seed in range(N_SEEDS)]

    def test_features_all_appear(self):
        corpus = "\n".join(self._corpus())
        for token in (
            "atomic",
            "lock(",
            "unlock(",
            "while",
            "if",
            "nondet()",
            "assume(",
            "assert(",
            "fence;",
            "start ",
            "join ",
        ):
            assert token in corpus, f"no generated program uses {token!r}"

    def test_every_program_has_an_assertion(self):
        for src in self._corpus():
            assert "assert(" in src

    def test_multi_threaded_programs_exist(self):
        assert any("thread t1" in src for src in self._corpus())


class TestGenConfig:
    def test_feature_gates_respected(self):
        cfg = GenConfig(
            allow_loops=False,
            allow_atomics=False,
            allow_locks=False,
            allow_nondet=False,
            allow_fences=False,
        )
        for seed in range(60):
            src = generate_source(seed, cfg)
            for token in ("while", "atomic", "lock(", "nondet()", "fence;"):
                assert token not in src

    def test_thread_cap(self):
        cfg = GenConfig(max_threads=1)
        for seed in range(30):
            program = generate_program(seed, cfg)
            assert len(program.threads) == 1


class TestSymmetricMode:
    """One seed in ``SYMMETRIC_EVERY`` clones one thread body; about a
    third of those plant one asymmetry."""

    SEEDS = range(SYMMETRIC_EVERY - 1, 400, SYMMETRIC_EVERY)

    @staticmethod
    def shape(thread):
        """The thread's source with its locals renamed in order of first
        appearance."""
        text = unparse(Program([], [ThreadDef("t", thread.body)], None))
        names = {}
        fresh = lambda m: names.setdefault(m[0], f"v{len(names)}")  # noqa: E731
        return re.sub(r"\bl\d+\b", fresh, text)

    def planted(self, program):
        shapes = {self.shape(t) for t in program.threads}
        starts = [type(s).__name__ for s in program.main.body]
        first = starts.index("Start")
        between = starts[first + 1 : first + len(program.threads)]
        return len(shapes) > 1 or any(s != "Start" for s in between)

    def test_clones_and_plants(self):
        planted = 0
        for seed in self.SEEDS:
            program = generate_program(seed)
            assert 2 <= len(program.threads) <= 3, seed
            # Only the last clone is ever changed.
            assert self.shape(program.threads[0]) == self.shape(
                program.threads[-2]
            ), seed
            planted += self.planted(program)
        assert 0.2 < planted / len(self.SEEDS) < 0.5, planted

    def test_unplanted_clones_get_symmetry_edges(self):
        from repro import api
        from repro.verify import VerifierConfig

        config = VerifierConfig.zord(unwind=2, prune_level=2, unwind_schedule=())
        runs = [
            api.verify(generate_source(seed), config).stats["symmetry_edges"]
            for seed in self.SEEDS[:40]
            if not self.planted(generate_program(seed))
        ]
        assert sum(1 for n in runs if n) >= 0.7 * len(runs), runs

    def test_python_profile_and_single_thread_configs_keep_their_programs(self):
        for cfg in (GenConfig(max_threads=1), GenConfig(python_profile=True)):
            plain = _Gen(random.Random(3), cfg).program()
            assert generate_program(3, cfg) == plain
