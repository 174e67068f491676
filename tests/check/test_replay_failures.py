"""Replay shrunk fuzz reproducers as pytest regressions.

``repro-an2 check --out tests/check/failures`` writes every shrunk
failing case here as ``<family>_case_<seed>.json``, and this module
picks them all up automatically, so promoting a fuzz finding to a
permanent regression test is just committing the file.  With no files
present the replay test collects nothing (the harness is healthy).
"""

import pathlib

import pytest

from repro.check.fuzz import FAMILIES, case_for_seed, load_case, run_case

FAILURE_DIR = pathlib.Path(__file__).parent / "failures"
CASES = sorted(FAILURE_DIR.glob("*_case_*.json")) if FAILURE_DIR.is_dir() else []


@pytest.mark.parametrize("path", CASES, ids=lambda p: p.stem)
def test_replay(path):
    run_case(load_case(path.read_text()))


def test_no_unfixed_reproducers_note():
    """Document the mechanism even when the directory is empty."""
    if not CASES:
        assert True  # healthy: no outstanding reproducers


@pytest.mark.parametrize("family", FAMILIES)
def test_case_round_trips_through_json(family):
    """The wiring itself: every family's case survives the JSON
    reproducer format ``fuzz(family, out_dir=...)`` writes, and the file
    says which family replays it."""
    case = case_for_seed(family, 7)
    assert load_case(case.to_json()) == case
    assert f'"family": "{family}"' in case.to_json()
