"""Fig. 6 (appendix) - the worked example.

Paper shape: on the 5-link, 5-flow micro-scenario, Flock returns
exactly the failed link (I2<->D2) while 007's votes concentrate on the
shared middle link (I1<->I2).
"""

from repro.eval.spec import run_experiment

from _common import run_once


def test_fig6_worked_example(benchmark, show):
    result = run_once(benchmark, run_experiment, "fig6")
    show(result)

    by_scheme = {row["scheme"]: row for row in result.rows}
    assert by_scheme["Flock"]["correct_only"]
    assert by_scheme["007"]["predicted"] == ["I1<->I2"]
