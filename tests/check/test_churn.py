"""Slepian-Duguid churn consistency (satellite of the CBR fast path).

The churn fuzzer interleaves add/remove reservations and checks, after
every operation, that the frame schedule validates, that the
schedule's reservation matrix agrees with the scheduler's ledger, and
that no port is committed past the frame.  Removal followed by
reinsertion is the historically fragile path: it is what drives
``_swap_chain`` rearrangements on a partially dirty schedule.
"""

import pytest

from repro.cbr.slepian_duguid import SlepianDuguidScheduler
from repro.check.fuzz import Case, fuzz, run_case


@pytest.mark.parametrize("seed", range(8))
def test_churn_case_invariants_hold(seed):
    run_case(Case("churn", seed))


def test_churn_exercises_swap_chain(monkeypatch):
    """The sweep must actually reach the rearrangement path -- a churn
    harness that only ever finds a directly free slot tests nothing."""
    calls = {"n": 0}
    original = SlepianDuguidScheduler._swap_chain

    def counting(self, *args, **kwargs):
        calls["n"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SlepianDuguidScheduler, "_swap_chain", counting)
    for seed in range(8):
        run_case(Case("churn", seed))
    assert calls["n"] > 0


def test_churn_high_utilization_small_frame():
    """A tiny frame at high utilization forces constant rearrangement."""
    for seed in range(4):
        run_case(Case("churn", seed, dict(ports=8, frame_slots=4, operations=250)))


def test_removal_then_reinsertion_keeps_ledger_in_sync():
    """Deterministic remove/re-add cycle on a full frame."""
    scheduler = SlepianDuguidScheduler(ports=3, frame_slots=3)
    # Fill the frame completely: a 3x3 doubly-stochastic-like matrix
    # with every row and column summing to the frame length.
    for i in range(3):
        for j in range(3):
            scheduler.add_reservation(i, j, 1)
    for i in range(3):
        # Remove one unit and re-add it crosswise; insertion into a
        # full-minus-one frame has no directly free slot, so this walks
        # the swap chain every time.
        scheduler.remove_reservation(i, (i + 1) % 3, 1)
        scheduler.add_reservation(i, (i + 1) % 3, 1)
        scheduler.schedule.validate()
        assert (
            scheduler.schedule.reservation_matrix() == scheduler.reservations
        ).all()


def test_fuzz_churn_sweep_clean(tmp_path):
    report = fuzz("churn", seeds=6, out_dir=str(tmp_path))
    assert report.ok, report.describe()
    assert report.cases_run == 6
