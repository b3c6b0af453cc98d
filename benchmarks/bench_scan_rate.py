"""Section 7.8 - Flock's hypothesis scan rate.

The paper reports ~3.5M hypotheses scanned in 17 s at 88K links / 9.5M
flows (C++, 40 cores).  At CI scale the absolute rate differs; the
check is that inference completes in interactive time and the scan rate
is far beyond what exhaustive search could deliver.
"""

from repro.eval.spec import run_experiment

from _common import run_once


def test_scan_rate(benchmark, show):
    result = run_once(benchmark, run_experiment, "scan-rate", preset="ci", seed=53)
    show(result)

    row = result.rows[0]
    assert row["seconds"] < 60.0
    assert row["hypotheses_per_second"] > 1_000
    # The Δ array prices n neighbors per greedy step: scanned must be a
    # multiple of the component count.
    assert row["hypotheses_scanned"] % row["components"] == 0
