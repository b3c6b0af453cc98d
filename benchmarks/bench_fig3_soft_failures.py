"""Fig. 3a/3b - soft gray failures: fscore vs drop rate (SNR sweep).

Paper shape: every scheme improves with the failed link's drop rate;
Flock with passive telemetry detects lower drop rates than active-only
schemes; 007's recall collapses under skewed traffic while Flock (A2)
holds up.
"""

from repro.eval.spec import run_experiment
from repro.eval.scenarios import SKEWED, UNIFORM

from _common import run_once


def _series(result, scheme, traffic):
    rows = [
        r for r in result.rows
        if r["scheme"] == scheme and r["traffic"] == traffic
    ]
    return sorted(rows, key=lambda r: r["drop_rate"])


def test_fig3_snr_sweep(benchmark, show):
    result = run_once(benchmark, run_experiment, "fig3", preset="ci", seed=13)
    show(result, columns=["traffic", "drop_rate", "scheme", "fscore"])

    # Monotone-ish trend: the highest drop rate must beat the lowest.
    for scheme in ("Flock (INT)", "Flock (A2)"):
        series = _series(result, scheme, UNIFORM)
        assert series[-1]["fscore"] >= series[0]["fscore"]
        # At >= 1% drops, Flock localizes reliably (paper: "Flock can
        # detect links with > 1% drop rate ... with high recall").
        assert series[-1]["fscore"] > 0.75

    # By 0.6% drops the full-telemetry arm localizes near-perfectly
    # (paper: passive telemetry makes >0.4% reliably detectable).
    flock_full = _series(result, "Flock (A1+A2+P)", UNIFORM)
    assert all(r["fscore"] > 0.9 for r in flock_full if r["drop_rate"] >= 0.006)

    # Skewed traffic hurts 007 more than Flock (paper Fig. 3b).
    skew_007 = _series(result, "007 (A2)", SKEWED)
    skew_flock = _series(result, "Flock (A2)", SKEWED)
    mean_007 = sum(r["fscore"] for r in skew_007) / len(skew_007)
    mean_flock = sum(r["fscore"] for r in skew_flock) / len(skew_flock)
    assert mean_flock > mean_007
