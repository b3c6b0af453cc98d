"""Precision / recall / F-score, exactly as the paper defines them
(Appendix A.1).

* precision = |H ∩ H*| / |H|, recall = |H ∩ H*| / |H*|.
* "A faulty device or any of its links are considered to be correct for
  calculating precision."
* "Including the faulty device itself in H counts as 100% recall, and
  including x% of the device links in H counts as x% recall."
* "We define precision to be 1 if the algorithm returns the empty
  hypothesis.  For 0 actual failures ... recall is 1 since there are no
  failures to detect."

Device/link credit is symmetric in both directions: a predicted link
incident to a faulty device is correct for precision (the quote above),
and a predicted device incident to a faulty link is likewise correct -
the same adjacency the recall loop already uses when it counts a failed
link as detected because one of its endpoint devices was predicted.
Earlier revisions only credited the link->device direction for
precision, so a scheme that blamed the device next to a failed link was
scored as recall-right but precision-wrong for the identical claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

from ..topology.base import Topology
from ..types import GroundTruth, Prediction


@dataclass(frozen=True)
class TraceMetrics:
    """Accuracy of one prediction against one ground truth."""

    precision: float
    recall: float

    @property
    def fscore(self) -> float:
        return fscore(self.precision, self.recall)


def fscore(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall (0 when both are 0)."""
    if precision + recall <= 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def evaluate_prediction(
    prediction: Prediction, truth: GroundTruth, topology: Topology
) -> TraceMetrics:
    """Score one prediction per Appendix A.1."""
    predicted = set(prediction.components)
    failed_links = set(truth.failed_links)
    failed_devices = set(truth.failed_devices)

    if not truth.has_failures:
        # No failures: recall is trivially 1; precision records whether
        # the scheme wrongly raised any alert.
        return TraceMetrics(precision=1.0 if not predicted else 0.0, recall=1.0)

    # --- precision ----------------------------------------------------
    if not predicted:
        precision = 1.0
    else:
        failed_device_nodes = {
            topology.component_device(d) for d in failed_devices
        }
        correct = 0
        for comp in predicted:
            if comp in failed_links or comp in failed_devices:
                correct += 1
                continue
            if topology.is_link_component(comp):
                u, v = topology.endpoints(comp)
                if u in failed_device_nodes or v in failed_device_nodes:
                    correct += 1
            else:
                # Symmetric credit: a predicted device whose incident
                # link failed is correct, mirroring the recall loop
                # below that counts such a device as detecting the link.
                node = topology.component_device(comp)
                if any(link in failed_links for link in topology.device_links(node)):
                    correct += 1
        precision = correct / len(predicted)

    # --- recall -------------------------------------------------------
    predicted_device_nodes = {
        topology.component_device(c)
        for c in predicted
        if topology.is_device_component(c)
    }
    credit = 0.0
    total = len(failed_links) + len(failed_devices)
    for link in failed_links:
        u, v = topology.endpoints(link)
        if link in predicted or u in predicted_device_nodes or v in predicted_device_nodes:
            credit += 1.0
    for device in failed_devices:
        if device in predicted:
            credit += 1.0
            continue
        node = topology.component_device(device)
        links = topology.device_links(node)
        if links:
            covered = sum(1 for link in links if link in predicted)
            credit += covered / len(links)
    recall = credit / total
    return TraceMetrics(precision=precision, recall=recall)


@dataclass(frozen=True)
class AggregateMetrics:
    """Macro-averaged accuracy over a set of traces."""

    precision: float
    recall: float
    mean_fscore: float
    n_traces: int

    @property
    def fscore(self) -> float:
        """F-score of the averaged precision/recall (the paper's style)."""
        return fscore(self.precision, self.recall)


def aggregate(metrics: Sequence[TraceMetrics]) -> AggregateMetrics:
    """Macro-average per-trace metrics.

    Zero traces carry no accuracy signal, so the aggregate of an empty
    batch is ``n_traces=0`` with NaN metrics - never the perfect score
    an earlier revision reported (a collect of empty work units would
    have claimed precision = recall = 1.0 from no evidence).  Callers
    that require data, such as the fleet collect path, check
    ``n_traces`` and raise :class:`~repro.errors.ExperimentError`.
    """
    if not metrics:
        nan = float("nan")
        return AggregateMetrics(
            precision=nan, recall=nan, mean_fscore=nan, n_traces=0
        )
    n = len(metrics)
    precision = sum(m.precision for m in metrics) / n
    recall = sum(m.recall for m in metrics) / n
    mean_f = sum(m.fscore for m in metrics) / n
    return AggregateMetrics(
        precision=precision, recall=recall, mean_fscore=mean_f, n_traces=n
    )


def error_rate(score: float) -> float:
    """Error rate of an F-score; the paper reports improvements as
    error-rate ratios ("reduces inference error by 1.19 - 11x")."""
    return max(0.0, 1.0 - score)


def error_reduction(baseline_fscore: float, flock_fscore: float) -> float:
    """How many times smaller Flock's error is vs a baseline's."""
    flock_err = error_rate(flock_fscore)
    base_err = error_rate(baseline_fscore)
    if flock_err <= 0.0:
        return float("inf") if base_err > 0 else 1.0
    return base_err / flock_err
