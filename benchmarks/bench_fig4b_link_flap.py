"""Fig. 4b - link flap diagnosed with the per-flow RTT analysis.

Paper shape: the RTT symptom (no retransmissions!) is localizable;
Flock (INT) beats NetBouncer (INT); Flock stays accurate even though
its model ignores the reverse ack path (fscore 0.81 in the paper).
"""

from repro.eval.spec import run_experiment

from _common import by_scheme, run_once


def test_fig4b_link_flap(benchmark, show):
    result = run_once(benchmark, run_experiment, "fig4b", preset="ci", seed=19)
    show(result)

    rows = by_scheme(result)
    assert rows["Flock (INT)"]["fscore"] >= rows["NetBouncer (INT)"]["fscore"] - 0.05
    assert rows["Flock (INT)"]["fscore"] > 0.75
    assert rows["Flock (INT)"]["recall"] > 0.75
    # The per-flow analysis gives every scheme usable signal.
    assert rows["Flock (A2+P)"]["fscore"] > 0.7
