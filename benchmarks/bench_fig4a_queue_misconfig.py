"""Fig. 4a - misconfigured WRED queue on the testbed topology.

Paper shape: Flock (INT) beats NetBouncer (INT); Flock (A2) has better
precision than 007 (A2); Flock (A2+P) gets very close to Flock (INT).
"""

from repro.eval.spec import run_experiment

from _common import by_scheme, run_once


def test_fig4a_queue_misconfig(benchmark, show):
    result = run_once(benchmark, run_experiment, "fig4a", preset="ci", seed=17)
    show(result)

    rows = by_scheme(result)
    assert rows["Flock (INT)"]["fscore"] >= rows["NetBouncer (INT)"]["fscore"]
    assert rows["Flock (INT)"]["fscore"] > 0.9
    # A2+P closes most of the gap to INT (paper: "Flock (A2+P) gets
    # very close to Flock (INT)").
    assert rows["Flock (A2+P)"]["fscore"] >= rows["Flock (A2)"]["fscore"]
    assert rows["Flock (INT)"]["fscore"] - rows["Flock (A2+P)"]["fscore"] < 0.15
