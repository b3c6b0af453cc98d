"""Fig. 2c - silent device failures.

Paper shape: Flock (INT) reaches ~100% recall vs NetBouncer (INT)'s
80%; Flock (A2) beats 007 (fscore 0.97 vs 0.76).
"""

from repro.eval.spec import run_experiment

from _common import by_scheme, run_once


def test_fig2c_device_failures(benchmark, show):
    result = run_once(benchmark, run_experiment, "fig2c", preset="ci", seed=11)
    show(result)

    rows = by_scheme(result)
    assert rows["Flock (INT)"]["recall"] >= rows["NetBouncer (INT)"]["recall"]
    assert rows["Flock (A2)"]["fscore"] > rows["007 (A2)"]["fscore"]
    # Device traces fail a random fraction of links at random rates
    # (some below the detectability floor), so CI-scale recall is lower
    # than the paper's 400K-flow runs - but must remain clearly useful.
    assert rows["Flock (INT)"]["recall"] > 0.6
    assert rows["Flock (INT)"]["fscore"] > rows["NetBouncer (INT)"]["fscore"]
