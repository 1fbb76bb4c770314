"""Portfolio clause sharing: signature grouping, verdict preservation with
sharing on/off, and the serial share-forward path."""

import pytest

from repro.portfolio import verify_portfolio
from repro.portfolio.sharing import encoding_signature, share_groups
from repro.verify import Verdict, VerifierConfig

from tests.verify.programs import ALL_PROGRAMS

_BY_NAME = {name: (source, safe) for name, source, safe in ALL_PROGRAMS}


class TestSignatures:
    def test_search_side_ablations_share(self):
        # Zord and its search-side ablations solve the identical CNF.
        sigs = {
            encoding_signature(c)
            for c in (
                VerifierConfig.zord(),
                VerifierConfig.zord_prime(),
                VerifierConfig.zord_tarjan(),
            )
        }
        assert len(sigs) == 1

    def test_formula_shaping_knobs_split_groups(self, monkeypatch):
        # The default prune level must be the documented 2, not whatever
        # REPRO_PRUNE sets, for "prune_level=0 differs" to be testable.
        monkeypatch.delenv("REPRO_PRUNE", raising=False)
        base = encoding_signature(VerifierConfig.zord())
        assert encoding_signature(VerifierConfig.zord_minus()) != base
        assert encoding_signature(VerifierConfig.cbmc()) != base
        assert encoding_signature(VerifierConfig.zord(unwind=4)) != base
        assert encoding_signature(VerifierConfig.zord(width=16)) != base
        assert encoding_signature(VerifierConfig.zord(prune_level=0)) != base
        assert (
            encoding_signature(VerifierConfig.zord(unwind_schedule=(1, 2, 8)))
            != base
        )

    def test_non_smt_engines_never_share(self):
        assert encoding_signature(VerifierConfig.cpa_seq()) is None
        assert encoding_signature(VerifierConfig.dartagnan()) is None

    def test_share_groups_drops_singletons(self):
        cfgs = [
            VerifierConfig.zord(),
            VerifierConfig.zord_prime(),
            VerifierConfig.cbmc(),  # different encoding, alone in its group
            VerifierConfig.cpa_seq(),  # no SAT core at all
        ]
        groups = share_groups(cfgs)
        assert list(groups.values()) == [[0, 1]]

    def test_search_budgets_do_not_split_groups(self):
        a = encoding_signature(VerifierConfig.zord())
        b = encoding_signature(VerifierConfig.zord(max_conflicts=5))
        c = encoding_signature(VerifierConfig.zord(time_limit_s=1.0))
        assert a == b == c


CFGS = [
    VerifierConfig.zord(),
    VerifierConfig.zord_prime(),
    VerifierConfig.zord_tarjan(),
]

EQUIV_PROGRAMS = [
    "paper_fig2", "lost_update_unsafe", "locked_counter_safe", "race_unsafe",
]


class TestVerdictPreservation:
    @pytest.mark.parametrize("name", EQUIV_PROGRAMS)
    @pytest.mark.parametrize("jobs", [1, 3])
    def test_sharing_never_changes_the_verdict(self, name, jobs):
        source, safe = _BY_NAME[name]
        expected = Verdict.SAFE if safe else Verdict.UNSAFE
        on = verify_portfolio(source, CFGS, jobs=jobs, share_clauses=True)
        off = verify_portfolio(source, CFGS, jobs=jobs, share_clauses=False)
        assert on.verdict == expected
        assert off.verdict == expected
        assert off.shared_clauses == 0

    def test_serial_share_forward_imports(self):
        # First member exhausts a tiny conflict budget (inconclusive) but
        # publishes its learned clauses; the second member imports them and
        # still reaches the correct verdict.
        source, _ = _BY_NAME["peterson_safe"]
        result = verify_portfolio(
            source,
            [VerifierConfig.zord(max_conflicts=20), VerifierConfig.zord_prime()],
            jobs=1,
            share_clauses=True,
        )
        assert result.verdict == Verdict.SAFE
        assert result.winner == "zord'"
        assert result.shared_clauses > 0
        winner_stats = result.result.stats
        assert winner_stats["shared_imported"] > 0

    def test_incompatible_members_never_exchange(self):
        source, _ = _BY_NAME["lost_update_unsafe"]
        result = verify_portfolio(
            source,
            [VerifierConfig.zord(), VerifierConfig.cbmc()],
            jobs=1,
            share_clauses=True,
        )
        assert result.verdict == Verdict.UNSAFE
        assert result.shared_clauses == 0
