"""Table 1 - parameter-calibration robustness.

Paper shape: Flock's accuracy barely moves when its hyperparameters are
calibrated on a different environment than the test set (under 2%
aggregate loss in the paper); the D (different) and S (same) rows stay
close.
"""

from repro.eval.spec import run_experiment

from _common import run_once


def test_table1_parameter_robustness(benchmark, show):
    result = run_once(benchmark, run_experiment, "table1", preset="ci", seed=41)
    show(result, columns=["scheme", "environment", "mode", "precision",
                          "recall", "fscore"])

    envs = {row["environment"] for row in result.rows}
    assert len(envs) == 4
    gaps = []
    for env in envs:
        d_row = result.series(environment=env, mode="D")[0]
        s_row = result.series(environment=env, mode="S")[0]
        gaps.append(s_row["fscore"] - d_row["fscore"])
    mean_gap = sum(gaps) / len(gaps)
    # Same-environment calibration can't be much better than mismatched
    # calibration for Flock - that is the robustness claim.
    assert mean_gap < 0.15
    # And Flock remains accurate in absolute terms under mismatch.
    d_scores = [row["fscore"] for row in result.rows if row["mode"] == "D"]
    assert sum(d_scores) / len(d_scores) > 0.6
