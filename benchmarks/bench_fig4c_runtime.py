"""Fig. 4c - inference runtime: Sherlock vs greedy-only vs JLE-only vs
Flock, across topology sizes.

Paper shape: Flock is orders of magnitude faster than Sherlock, and the
gap *widens* with topology size; each optimization alone (greedy
without JLE; Sherlock+JLE) sits between Flock and plain Sherlock.
"""

from repro.eval.spec import run_experiment

from _common import run_once


def _times(result, scheme):
    return {
        row["k"]: row["seconds"]
        for row in result.rows
        if row["scheme"] == scheme
    }


def test_fig4c_runtime_ablation(benchmark, show):
    result = run_once(benchmark, run_experiment, "fig4c", preset="ci", seed=23)
    show(result, columns=["servers", "k", "scheme", "seconds", "estimated"])

    sherlock = _times(result, "sherlock")
    greedy_only = _times(result, "flock-greedy-only")
    jle_only = _times(result, "flock-jle-only")
    flock = _times(result, "flock")
    ks = sorted(flock)
    largest = ks[-1]

    # Ordering at the largest size: Flock fastest, Sherlock slowest,
    # single-optimization arms in between.
    assert flock[largest] <= greedy_only[largest] * 1.5
    assert greedy_only[largest] < sherlock[largest]
    assert jle_only[largest] < sherlock[largest]

    # The Flock-vs-Sherlock gap is large and does not shrink with scale
    # (the paper's >10^4x claim is this trend extended to 88K links;
    # millisecond-level timings at the smallest size are noisy, hence
    # the tolerance factor).
    speedups = [sherlock[k] / flock[k] for k in ks]
    assert speedups[-1] > 50
    assert speedups[-1] > speedups[0] * 0.5
    # Sherlock's absolute cost explodes with size while Flock stays
    # interactive.
    assert sherlock[largest] / sherlock[ks[0]] > 10
    assert flock[largest] < 5.0
