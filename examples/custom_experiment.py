#!/usr/bin/env python
"""Build a brand-new experiment declaratively - no driver function.

The paper's evaluation matrix is scenario x topology x telemetry x
scheme x seeds.  With the registries, a new experiment is just data: a
list of grid points naming a registered topology, a registered failure
scenario (with parameters), trace knobs, and registered schemes.  The
generic driver handles trace generation, shared problem building,
parallelism, and row aggregation - and because its grid-call sequence
is pure data, the spec, once registered with ``register_experiment``,
can be spread across machines by the fleet (``repro-flock fleet
submit`` or ``run --shards``).

This example asks a question none of the paper's figures answer
directly: how does each scheme degrade as *both* a link and a whole
device fail in the same monitoring interval, on a small irregular
fabric?

Run:  python examples/custom_experiment.py
"""

from repro.eval.reporting import print_result
from repro.eval.spec import (
    ExperimentSpec,
    GridPoint,
    ScenarioSpec,
    SchemeRef,
    TopologySpec,
    TraceSpec,
    run_spec,
)


def main():
    points = []
    for scenario_name, params in (
        ("silent-link-drops", {"n_failures": 2}),
        ("silent-device-failure", {"n_devices": 1}),
    ):
        points.append(
            GridPoint(
                topology=TopologySpec(
                    "standard-omit",
                    {"preset": "ci", "fraction": 0.10, "topo_seed": 1999},
                ),
                key={"scenario": scenario_name},
                scenario=ScenarioSpec(scenario_name, params=params),
                trace=TraceSpec(
                    seeds=(101, 102, 103, 104), n_passive=4000, n_probes=600
                ),
                schemes=(
                    SchemeRef("flock"),                  # default A1+A2+P
                    SchemeRef("flock", spec="P"),        # passive only
                    SchemeRef("netbouncer"),             # default INT
                    SchemeRef("007"),                    # default A2
                ),
            )
        )
    spec = ExperimentSpec(
        name="mixed-failures-irregular",
        description="Link vs device failures on a 10%-omitted Clos",
        points=points,
    )
    print_result(run_spec(spec))


if __name__ == "__main__":
    main()
