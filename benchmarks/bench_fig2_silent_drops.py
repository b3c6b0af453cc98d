"""Fig. 2a/2b - silent packet drops: accuracy by scheme and input type.

Paper shape (400K flows): Flock (INT) ~0.99 fscore beats NetBouncer
(INT) ~0.88; Flock (A2) ~0.93 beats 007 (A2) ~0.61; adding passive
telemetry (A1+P, A1+A2+P) beats active-only (A1); accuracy improves
with monitoring volume.
"""

from repro.eval.spec import run_experiment

from _common import by_scheme, run_once


def test_fig2_silent_drops(benchmark, show):
    result = run_once(benchmark, run_experiment, "fig2", preset="ci", seed=7)
    show(result, columns=["volume", "scheme", "precision", "recall", "fscore"])

    high = by_scheme(result, volume="high")
    # PGM beats the non-PGM baselines on the same input.
    assert high["Flock (INT)"]["fscore"] > high["NetBouncer (INT)"]["fscore"]
    assert high["Flock (A2)"]["fscore"] > high["007 (A2)"]["fscore"]
    # Passive data helps: A1+P keeps pace with (and at paper scale
    # beats) active-only A1; small tolerance for CI-scale noise.
    assert high["Flock (A1+P)"]["fscore"] >= high["Flock (A1)"]["fscore"] - 0.1
    # Full telemetry is strong in absolute terms.
    assert high["Flock (A1+A2+P)"]["fscore"] > 0.8
    assert high["Flock (INT)"]["fscore"] > 0.8

    low = by_scheme(result, volume="low")
    # More monitoring volume should not hurt the full-telemetry arm.
    assert high["Flock (A1+A2+P)"]["fscore"] >= low["Flock (A1+A2+P)"]["fscore"] - 0.05
