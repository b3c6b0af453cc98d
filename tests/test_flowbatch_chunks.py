"""FlowBatch chunk algebra: concat/slice round-trips, shared-space
interning, and column-alignment validation."""

import numpy as np
import pytest

from oracles.telemetry import records_of
from repro.eval.experiments import standard_topology
from repro.routing import EcmpRouting
from repro.simulation.failures import make_scenario
from repro.simulation.stream import replay_stream
from repro.types import FlowBatch

COLUMNS = (
    "src", "dst", "packets", "bad", "rtt_ms", "is_probe",
    "path_set", "chosen_path", "t_start",
)


@pytest.fixture(scope="module")
def chunks():
    topo = standard_topology("tiny")
    routing = EcmpRouting(topo)
    return list(
        replay_stream(
            topo, routing, make_scenario("silent-link-drops"),
            seed=11, n_chunks=3, flows_per_chunk=120, probes_per_chunk=30,
        )
    )


def _assert_batches_equal(a: FlowBatch, b: FlowBatch) -> None:
    assert a.space is b.space
    assert len(a) == len(b)
    for name in COLUMNS:
        ca, cb = getattr(a, name), getattr(b, name)
        if ca is None or cb is None:
            assert ca is None and cb is None
        else:
            assert np.array_equal(ca, cb), name


def test_concat_slice_round_trip(chunks):
    batch = chunks[0].batch
    k = len(batch) // 2
    halves = [batch.slice(0, k), batch.slice(k, len(batch))]
    _assert_batches_equal(FlowBatch.concat(halves), batch)


def test_slice_returns_views(chunks):
    batch = chunks[0].batch
    part = batch.slice(2, 9)
    assert len(part) == 7
    assert np.shares_memory(part.bad, batch.bad)
    assert np.shares_memory(part.t_start, batch.t_start)


def test_concat_preserves_interning(chunks):
    """Concatenated chunks resolve interned path ids against the one
    shared PathSpace, so the merged rows equal the chunks' rows."""
    space = chunks[0].batch.space
    assert all(c.batch.space is space for c in chunks)
    merged = FlowBatch.concat([c.batch for c in chunks])
    assert merged.space is space
    expected = [r for c in chunks for r in records_of(c.batch)]
    assert records_of(merged) == expected
    # t_start stays monotone across chunk boundaries (arrival order)
    assert np.all(np.diff(merged.t_start) >= 0)


def test_concat_rejects_empty_and_mixed_spaces(chunks):
    with pytest.raises(ValueError):
        FlowBatch.concat([])
    other_topo = standard_topology("tiny")
    other = list(
        replay_stream(
            other_topo, EcmpRouting(other_topo),
            make_scenario("silent-link-drops"),
            seed=11, n_chunks=1, flows_per_chunk=40, probes_per_chunk=10,
        )
    )[0]
    with pytest.raises(ValueError):
        FlowBatch.concat([chunks[0].batch, other.batch])


def test_concat_rejects_mixed_timestamping(chunks):
    timed = chunks[0].batch
    untimed = FlowBatch(
        space=timed.space, src=timed.src, dst=timed.dst,
        packets=timed.packets, bad=timed.bad, rtt_ms=timed.rtt_ms,
        is_probe=timed.is_probe, path_set=timed.path_set,
        chosen_path=timed.chosen_path,
    )
    with pytest.raises(ValueError):
        FlowBatch.concat([timed, untimed])
    # both-untimed concatenation stays untimed
    assert FlowBatch.concat([untimed, untimed]).t_start is None


def test_misaligned_t_start_rejected(chunks):
    batch = chunks[0].batch
    with pytest.raises(ValueError):
        batch.with_t_start(np.zeros(len(batch) - 1))
