"""zord's search, pinned per suite.

The totals below are exact: conflicts, decisions and propagations are
deterministic, and so are the encoding sizes and the theory's offers.
Work that only makes the search cheaper must leave every one of them
unchanged.  A change that alters the search updates them here and
explains the difference, suite by suite, in CHANGES.md.

The configurations name ``prune_level=2`` and ``unwind_schedule=()``, so
the test suite's runs with ``REPRO_PRUNE=0`` or ``REPRO_UNWIND_SCHEDULE``
check the same numbers.
"""

import pytest

from repro import api
from repro.bench.nidhugg import nidhugg_suite
from repro.bench.svcomp import svcomp_suite
from repro.verify import VerifierConfig
from tests.pyfront.corpus import EXPECTED, example

KEYS = (
    "conflicts",
    "decisions",
    "propagations",
    "sat_vars",
    "sat_clauses",
    "theory_unit_propagations",
    "theory_propagations",
)

TOTALS = {
    "svcomp": (2635, 7329, 228634, 17186, 39447, 20919, 17982),
    "nidhugg": (2709, 12013, 360191, 15568, 75930, 31468, 27277),
    "python": (84, 175, 9174, 2097, 5724, 451, 346),
}


def _zord(**kw):
    return VerifierConfig.zord(prune_level=2, unwind_schedule=(), **kw)


def _results(suite, **kw):
    if suite == "python":
        for name in sorted(EXPECTED):
            result, _ = api.verify_python(path=example(name), config=_zord(**kw))
            yield name, EXPECTED[name] == "safe", result
        return
    tasks = svcomp_suite(scale=1) if suite == "svcomp" else nidhugg_suite()
    for task in tasks:
        result = api.verify(task.source, _zord(unwind=task.unwind, **kw))
        yield task.name, task.expected_safe, result


@pytest.mark.parametrize("suite", sorted(TOTALS))
def test_zord_search_totals(suite):
    totals = dict.fromkeys(KEYS, 0)
    for name, expected_safe, result in _results(suite):
        assert result.is_safe == expected_safe, name
        for key in KEYS:
            totals[key] += result.stats[key]
    assert tuple(totals[k] for k in KEYS) == TOTALS[suite], totals


def test_audited_svcomp_certifies_every_answer():
    """Under audit every SAFE is certified by the proof checker and every
    UNSAFE model checked, with the checker's counters pinned too: the
    audit materialises each unit-edge reason when it is offered, so it
    sees exactly the lemmas an eager theory would give it."""
    keys = ("certify_rup", "certify_lemmas", "certify_certified", "certify_models")
    totals = dict.fromkeys(keys, 0)
    answers = 0
    for name, expected_safe, result in _results("svcomp", audit=True):
        assert result.is_safe == expected_safe, (name, result.diagnostic)
        answers += 1
        for key in keys:
            totals[key] += result.stats[key]
    assert totals == {
        "certify_rup": 2585,
        "certify_lemmas": 18808,
        "certify_certified": 60,
        "certify_models": 40,
    }
    assert totals["certify_certified"] + totals["certify_models"] == answers
