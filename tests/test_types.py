"""Tests for the shared value types."""

import pytest

from repro.types import (
    FlowObservation,
    GroundTruth,
    Prediction,
    validate_probability,
)


class TestFlowObservation:
    def test_exact_path_flag(self):
        single = FlowObservation(path_set=((0, 1),), packets_sent=1,
                                 bad_packets=0)
        multi = FlowObservation(path_set=((0,), (1,)), packets_sent=1,
                                bad_packets=0)
        assert single.exact_path
        assert not multi.exact_path

    def test_needs_a_path(self):
        with pytest.raises(ValueError):
            FlowObservation(path_set=(), packets_sent=1, bad_packets=0)

    def test_bad_bounded(self):
        with pytest.raises(ValueError):
            FlowObservation(path_set=((0,),), packets_sent=1, bad_packets=2)


class TestPredictionAndTruth:
    def test_empty_prediction(self):
        assert Prediction.empty().components == frozenset()

    def test_ground_truth_union(self):
        truth = GroundTruth(
            failed_links=frozenset({1}), failed_devices=frozenset({9})
        )
        assert truth.failed_components == frozenset({1, 9})
        assert truth.has_failures
        assert not GroundTruth().has_failures


class TestValidateProbability:
    def test_accepts_bounds(self):
        assert validate_probability(0.0, "p") == 0.0
        assert validate_probability(1.0, "p") == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            validate_probability(1.2, "p")
        with pytest.raises(ValueError):
            validate_probability(float("nan"), "p")
