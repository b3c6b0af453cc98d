"""Fig. 5c - Flock (P) on the hard nearly-symmetric passive-only case.

Paper shape: with <5% omitted links and no probes/paths, Flock (P)
still reaches useful recall, and its precision tracks the theoretical
maximum imposed by the ECMP link-equivalence classes.
"""

from repro.eval.spec import run_experiment

from _common import run_once


def test_fig5c_passive_only_hard(benchmark, show):
    result = run_once(benchmark, run_experiment, "fig5c", preset="ci", seed=37)
    show(result)

    rows = sorted(result.rows, key=lambda r: r["fraction_omitted"])
    # Useful partial analysis where other schemes don't apply at all.
    assert max(r["recall"] for r in rows) >= 0.5
    # Precision can never beat the equivalence-class bound (modulo the
    # lucky case where the scheme returns a strict subset of a class).
    for row in rows:
        assert row["precision"] <= row["theoretical_max_precision"] + 0.25
    # The bound itself is informative (below 1 in a near-symmetric Clos).
    assert any(r["theoretical_max_precision"] < 1.0 for r in rows)
