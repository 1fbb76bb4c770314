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
    "theory_reasons_read",
    "symmetry_edges",
)

TOTALS = {
    "svcomp": (1883, 6038, 161262, 17186, 39447, 7014, 6116, 1913, 24),
    "nidhugg": (2709, 12009, 360191, 15568, 75930, 31473, 27281, 3996, 12),
    "python": (58, 118, 7743, 2097, 5724, 423, 318, 17, 8),
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
    sees exactly the lemmas an eager theory would give it, and it admits
    every symmetry edge the encoder added.  The search is the unaudited
    one."""
    keys = (
        "certify_rup",
        "certify_lemmas",
        "certify_symmetries",
        "certify_certified",
        "certify_models",
    )
    totals = dict.fromkeys(keys, 0)
    answers = safe = conflicts = reads = edges = 0
    for name, expected_safe, result in _results("svcomp", audit=True):
        assert result.is_safe == expected_safe, (name, result.diagnostic)
        answers += 1
        safe += expected_safe
        conflicts += result.stats["conflicts"]
        reads += result.stats["theory_reasons_read"]
        edges += result.stats["symmetry_edges"]
        for key in keys:
            totals[key] += result.stats[key]
    assert totals == {
        "certify_rup": 1833,
        "certify_lemmas": 6598,
        "certify_symmetries": 24,
        "certify_certified": 60,
        "certify_models": 40,
    }
    assert totals["certify_certified"] == safe
    assert totals["certify_certified"] + totals["certify_models"] == answers
    assert totals["certify_symmetries"] == edges
    assert (conflicts, reads) == (TOTALS["svcomp"][0], TOTALS["svcomp"][7])
