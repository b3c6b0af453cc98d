"""Fig. 4d - end-to-end scheme runtime across topology sizes.

Paper shape: 007 is the fastest; Flock is faster than NetBouncer on the
same input telemetry; every scheme's runtime grows with scale.
"""

from repro.eval.spec import run_experiment
from repro.eval.schemes import get_scheme, make_setup

from _common import run_once


def _times(result, scheme):
    return {
        row["k"]: row["seconds"]
        for row in result.rows
        if row["scheme"] == scheme
    }


def _label(scheme, spec=None):
    """Row label for a registry scheme, built from the registry itself."""
    return make_setup(scheme, spec=spec).labeled()


def test_fig4d_scheme_runtime(benchmark, show):
    result = run_once(benchmark, run_experiment, "fig4d", preset="ci", seed=29)
    show(result, columns=["servers", "k", "scheme", "seconds"])

    # Every row label must resolve through the scheme registry: the
    # display name is "<display> (<spec>)" for some registered scheme.
    displays = {get_scheme(name).display for name in ("flock", "netbouncer", "007")}
    for row in result.rows:
        display = row["scheme"].rsplit(" (", 1)[0]
        assert display in displays, row["scheme"]

    flock_int = _times(result, _label("flock", "INT"))
    nb_int = _times(result, _label("netbouncer", "INT"))
    v007 = _times(result, _label("007"))
    largest = max(flock_int)

    # Flock beats NetBouncer on the same (INT) input telemetry.
    assert flock_int[largest] < nb_int[largest]
    # 007 is the fastest of the lot.
    assert v007[largest] <= flock_int[largest]
