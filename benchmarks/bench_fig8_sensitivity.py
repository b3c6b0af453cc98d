"""Fig. 8a/8b - hyperparameter sensitivity and the effect of priors.

Paper shape: accuracy stays high over a wide (pg, pb) region (Fig. 8a);
raising the prior rho trades recall for precision, moving points right
along the tradeoff curve (Fig. 8b).
"""

from repro.eval.spec import run_experiment

from _common import run_once


def test_fig8a_pg_pb_sensitivity(benchmark, show):
    result = run_once(benchmark, run_experiment, "fig8a", preset="ci", seed=43)
    show(result, columns=["pg", "pb", "precision", "recall", "fscore"])

    scores = [row["fscore"] for row in result.rows]
    # A wide region of settings stays accurate: at least half the grid
    # is within 0.15 of the best point.
    best = max(scores)
    near_best = sum(1 for s in scores if s >= best - 0.15)
    assert best > 0.8
    assert near_best >= len(scores) // 2


def test_fig8b_prior_tradeoff(benchmark, show):
    result = run_once(benchmark, run_experiment, "fig8b", preset="ci", seed=47)
    show(result)

    rows = sorted(result.rows, key=lambda r: r["rho"])
    # Smaller rho = stronger skepticism = precision at least as high as
    # the loosest prior; the loosest prior must not have the best
    # precision in the sweep.
    assert rows[0]["precision"] >= rows[-1]["precision"] - 1e-9
    precisions = [r["precision"] for r in rows]
    recalls = [r["recall"] for r in rows]
    # Recall should weakly increase as the prior loosens.
    assert recalls[-1] >= recalls[0] - 0.05
    # And the sweep must actually move something.
    assert max(precisions) - min(precisions) > 0.0 or \
        max(recalls) - min(recalls) > 0.0
