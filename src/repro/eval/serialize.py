"""Wire codec for evaluation results (the fleet's vocabulary).

A fleet worker runs part of a trace batch in a separate process - or on
a separate machine - and must return *only* serialized results: compact,
JSON-compatible structures that rebuild into the exact objects a local
run would have produced.  This module is that codec.  It covers

* :class:`~repro.eval.metrics.TraceMetrics`  - ``[precision, recall]``
* :class:`~repro.types.Prediction`           - ``{"c","s","ll","hs"}``
* :class:`~repro.eval.harness.TraceResult`   - ``{"p","m","b","i"}``
* :class:`~repro.eval.metrics.AggregateMetrics` and
  :class:`~repro.eval.harness.EvalSummary`.

Design rules:

* **Versioned payloads.** Every top-level payload (``TraceResult``,
  ``EvalSummary``, broker unit results) carries the
  wire schema version in a ``"v"`` field; decoders reject a mismatched
  version with a clear :class:`ExperimentError` so a fleet worker on a
  stale checkout fails loudly instead of merging garbage.  A missing
  field is tolerated (hand-built payloads from the same process), a
  *wrong* one never is.  Bump :data:`SCHEMA_VERSION` whenever any wire
  layout in this module changes or the simulator's draws for a given
  seed change.
* **Bit-identical floats.** Values pass through JSON's ``repr``-based
  float formatting, which round-trips IEEE-754 doubles exactly, so a
  collected fleet run reproduces a serial run's metrics bit for bit.
  NumPy scalars are coerced to native Python numbers on encode (their
  64-bit values are preserved exactly).
* **``problem`` is dropped.** :class:`TraceResult.problem` never goes
  on the wire - the process pool already refuses to ship built
  problems over IPC, and the collector only needs predictions,
  metrics, and timings.  Decoded results read back ``problem=None``.
* **Compact keys.** Single-letter keys keep broker files small; each
  codec function documents its layout.

Every decoder validates the payload shape and raises
:class:`~repro.errors.ExperimentError` on malformed input.
"""

from __future__ import annotations

import base64
import hashlib
import json
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import CheckpointError, ExperimentError
from ..types import Prediction
from .harness import EvalSummary, TraceResult
from .metrics import AggregateMetrics, TraceMetrics

#: Wire schema version.  Emitted in every top-level payload this module
#: (and the broker layer on top of it) produces; checked on
#: decode.  Bump on any change to the wire layouts below, and whenever
#: the simulator's draws for a given seed change, so results and
#: checkpoints from the old stream are refused rather than mixed in.
SCHEMA_VERSION = 3


def payload_checksum(text: str) -> str:
    """Checksum of a serialized payload (hex, stable across platforms).

    SHA-256 truncated to 16 hex chars: collision-safe against the
    random corruption it guards (bit flips, truncation, torn writes),
    cheap to store beside every broker result row.
    """
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def encode_unit_payload(payload: Dict) -> Tuple[str, str]:
    """Serialize a unit-result payload for transport: ``(text, checksum)``.

    The checksum is computed over the exact serialized text, *before*
    the text crosses any wire or lands in broker storage, so any
    damage in between is detectable by re-hashing the stored text
    (:meth:`repro.eval.broker.Broker.verify_results`).
    """
    text = json.dumps(payload)
    return text, payload_checksum(text)


def check_schema_version(payload, what: str) -> None:
    """Reject a payload produced by a different wire schema version.

    Every writer stamps ``"v"``, so a payload without it was not
    written by this codec; one carrying the wrong version is from a
    checkout speaking a different codec.  Neither may be decoded field
    by field.
    """
    if not isinstance(payload, dict):
        return
    if "v" not in payload:
        raise ExperimentError(
            f"{what} payload carries no wire schema version; this "
            f"checkout speaks v{SCHEMA_VERSION}"
        )
    version = payload["v"]
    if version != SCHEMA_VERSION:
        raise ExperimentError(
            f"{what} payload speaks wire schema v{version!r} but this "
            f"checkout speaks v{SCHEMA_VERSION}; producer and consumer "
            "must run matching checkouts"
        )


def _require(payload, keys, what: str) -> None:
    if not isinstance(payload, dict):
        raise ExperimentError(f"malformed {what} payload: {payload!r}")
    missing = [key for key in keys if key not in payload]
    if missing:
        raise ExperimentError(f"{what} payload is missing keys {missing}")


def _number(value, what: str) -> float:
    """Validate a JSON number (corrupted files must fail here, as an
    ExperimentError, not deep inside metric aggregation)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExperimentError(f"{what} must be a number, got {value!r}")
    return value


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ExperimentError(f"{what} must be an integer, got {value!r}")
    return value


def trace_metrics_to_wire(metrics: TraceMetrics) -> List[float]:
    """``TraceMetrics -> [precision, recall]``."""
    return [float(metrics.precision), float(metrics.recall)]


def trace_metrics_from_wire(payload) -> TraceMetrics:
    if not (isinstance(payload, (list, tuple)) and len(payload) == 2):
        raise ExperimentError(f"malformed TraceMetrics payload: {payload!r}")
    return TraceMetrics(
        precision=_number(payload[0], "precision"),
        recall=_number(payload[1], "recall"),
    )


def prediction_to_wire(prediction: Prediction) -> Dict:
    """``Prediction -> {"c": components, "s": scores, "ll": ..., "hs": ...}``.

    ``"c"`` is the sorted component-id list; ``"s"`` is ``None`` or a
    ``[[component, score], ...]`` pair list (JSON objects only allow
    string keys, and component ids are ints).
    """
    scores = prediction.scores
    return {
        "c": sorted(int(c) for c in prediction.components),
        "s": None if scores is None else [
            [int(k), float(v)] for k, v in sorted(scores.items())
        ],
        "ll": float(prediction.log_likelihood),
        "hs": int(prediction.hypotheses_scanned),
    }


def prediction_from_wire(payload) -> Prediction:
    _require(payload, ("c", "s", "ll", "hs"), "Prediction")
    scores = payload["s"]
    components = payload["c"]
    if not isinstance(components, list):
        raise ExperimentError(f"Prediction components must be a list, got {components!r}")
    if scores is not None and not isinstance(scores, list):
        raise ExperimentError(f"Prediction scores must be null or a pair list, got {scores!r}")
    return Prediction(
        components=frozenset(_integer(c, "component id") for c in components),
        scores=None if scores is None else _score_dict(scores),
        log_likelihood=_number(payload["ll"], "log_likelihood"),
        hypotheses_scanned=_integer(payload["hs"], "hypotheses_scanned"),
    )


def _score_dict(pairs) -> Dict[int, float]:
    out: Dict[int, float] = {}
    for pair in pairs:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ExperimentError(
                f"Prediction score entries must be [component, score] "
                f"pairs, got {pair!r}"
            )
        out[_integer(pair[0], "score component")] = _number(
            pair[1], "score value"
        )
    return out


def trace_result_to_wire(result: TraceResult) -> Dict:
    """``TraceResult -> {"p": prediction, "m": metrics, "b": ..., "i": ...}``.

    ``result.problem`` is intentionally dropped (see module docstring).
    """
    return {
        "v": SCHEMA_VERSION,
        "p": prediction_to_wire(result.prediction),
        "m": trace_metrics_to_wire(result.metrics),
        "b": float(result.build_seconds),
        "i": float(result.inference_seconds),
    }


def trace_result_from_wire(payload) -> TraceResult:
    check_schema_version(payload, "TraceResult")
    _require(payload, ("p", "m", "b", "i"), "TraceResult")
    return TraceResult(
        prediction=prediction_from_wire(payload["p"]),
        metrics=trace_metrics_from_wire(payload["m"]),
        build_seconds=_number(payload["b"], "build_seconds"),
        inference_seconds=_number(payload["i"], "inference_seconds"),
        problem=None,
    )


def aggregate_metrics_to_wire(accuracy: AggregateMetrics) -> List:
    """``AggregateMetrics -> [precision, recall, mean_fscore, n_traces]``."""
    return [
        float(accuracy.precision),
        float(accuracy.recall),
        float(accuracy.mean_fscore),
        int(accuracy.n_traces),
    ]


def aggregate_metrics_from_wire(payload) -> AggregateMetrics:
    if not (isinstance(payload, (list, tuple)) and len(payload) == 4):
        raise ExperimentError(f"malformed AggregateMetrics payload: {payload!r}")
    return AggregateMetrics(
        precision=_number(payload[0], "precision"),
        recall=_number(payload[1], "recall"),
        mean_fscore=_number(payload[2], "mean_fscore"),
        n_traces=_integer(payload[3], "n_traces"),
    )


def eval_summary_to_wire(summary: EvalSummary) -> Dict:
    """``EvalSummary -> {"label", "t": per-trace, "a": accuracy, ...}``."""
    return {
        "v": SCHEMA_VERSION,
        "label": summary.setup_label,
        "t": [trace_result_to_wire(r) for r in summary.per_trace],
        "a": aggregate_metrics_to_wire(summary.accuracy),
        "mi": float(summary.mean_inference_seconds),
        "mb": float(summary.mean_build_seconds),
    }


def eval_summary_from_wire(payload) -> EvalSummary:
    check_schema_version(payload, "EvalSummary")
    _require(payload, ("label", "t", "a", "mi", "mb"), "EvalSummary")
    if not isinstance(payload["label"], str):
        raise ExperimentError(
            f"EvalSummary label must be a string, got {payload['label']!r}"
        )
    if not isinstance(payload["t"], list):
        raise ExperimentError(
            f"EvalSummary per-trace field must be a list, got {payload['t']!r}"
        )
    return EvalSummary(
        setup_label=payload["label"],
        per_trace=[trace_result_from_wire(r) for r in payload["t"]],
        accuracy=aggregate_metrics_from_wire(payload["a"]),
        mean_inference_seconds=_number(payload["mi"], "mean_inference_seconds"),
        mean_build_seconds=_number(payload["mb"], "mean_build_seconds"),
    )


# ----------------------------------------------------------------------
# Stream checkpoints
# ----------------------------------------------------------------------

#: Checkpoint document format tag + version.  A checkpoint additionally
#: carries :data:`SCHEMA_VERSION` (its Prediction payloads use the wire
#: codec above); both are checked on decode.
STREAM_CHECKPOINT_FORMAT = "flock-stream-checkpoint"
CHECKPOINT_VERSION = 1


def ndarray_to_wire(array: np.ndarray) -> Dict:
    """``ndarray -> {"d": dtype, "s": shape, "b": base64 bytes}``.

    Raw little-endian bytes in base64: bit-exact for float64 (the warm
    Δ vectors must survive a checkpoint round-trip bitwise, JSON float
    formatting notwithstanding) and compact for the int64 observation
    columns.
    """
    array = np.ascontiguousarray(array)
    if array.dtype.byteorder == ">":  # pragma: no cover - BE platforms
        array = array.astype(array.dtype.newbyteorder("<"))
    return {
        "d": array.dtype.str,
        "s": list(array.shape),
        "b": base64.b64encode(array.tobytes()).decode("ascii"),
    }


def ndarray_from_wire(payload) -> np.ndarray:
    _require(payload, ("d", "s", "b"), "ndarray")
    try:
        dtype = np.dtype(payload["d"])
        raw = base64.b64decode(payload["b"], validate=True)
        array = np.frombuffer(raw, dtype=dtype).reshape(payload["s"])
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed ndarray payload: {exc}") from None
    return array.copy()  # frombuffer is read-only; state arrays mutate


def cycle_report_to_wire(report) -> Dict:
    """``CycleReport`` minus its wall-clock timings.

    ``build_seconds``/``localize_seconds`` are intentionally dropped:
    they are the only machine-dependent fields, and the crash/resume
    soaks compare wire-form reports for bit-identity across runs.
    """
    return {
        "v": SCHEMA_VERSION,
        "cy": int(report.cycle),
        "ts": float(report.t_start),
        "te": float(report.t_end),
        "rf": int(report.raw_flows),
        "gf": int(report.grouped_flows),
        "p": prediction_to_wire(report.prediction),
        "tr": sorted(int(c) for c in report.truth),
        "de": bool(report.detected),
        "ch": int(report.churn),
        "dg": bool(report.degraded),
        "dr": report.degrade_reason,
        "sh": int(report.shed_chunks),
        "co": int(report.coalesced_chunks),
        "bu": None if report.budget_seconds is None else float(report.budget_seconds),
    }


def cycle_report_from_wire(payload):
    check_schema_version(payload, "CycleReport")
    _require(
        payload,
        ("cy", "ts", "te", "rf", "gf", "p", "tr", "de", "ch", "dg", "dr",
         "sh", "co", "bu"),
        "CycleReport",
    )
    from .stream import CycleReport  # local: stream imports this module

    return CycleReport(
        cycle=_integer(payload["cy"], "cycle"),
        t_start=_number(payload["ts"], "t_start"),
        t_end=_number(payload["te"], "t_end"),
        raw_flows=_integer(payload["rf"], "raw_flows"),
        grouped_flows=_integer(payload["gf"], "grouped_flows"),
        prediction=prediction_from_wire(payload["p"]),
        truth=frozenset(_integer(c, "truth component") for c in payload["tr"]),
        detected=bool(payload["de"]),
        churn=_integer(payload["ch"], "churn"),
        build_seconds=0.0,
        localize_seconds=0.0,
        degraded=bool(payload["dg"]),
        degrade_reason=payload["dr"],
        shed_chunks=_integer(payload["sh"], "shed_chunks"),
        coalesced_chunks=_integer(payload["co"], "coalesced_chunks"),
        budget_seconds=(
            None if payload["bu"] is None else _number(payload["bu"], "budget")
        ),
    )


def _canonical_json(payload: Dict) -> str:
    """The exact text the checkpoint checksum covers.

    Canonical form (sorted keys, no whitespace) so that encode and
    decode recompute the identical string: JSON's ``repr``-based float
    formatting round-trips doubles exactly, and key order is pinned.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def encode_stream_checkpoint(payload: Dict) -> str:
    """Wrap a checkpoint payload as a self-validating JSON document."""
    canonical = _canonical_json(payload)
    return json.dumps({
        "format": STREAM_CHECKPOINT_FORMAT,
        "ckpt_v": CHECKPOINT_VERSION,
        "v": SCHEMA_VERSION,
        "checksum": payload_checksum(canonical),
        "payload": payload,
    })


def decode_stream_checkpoint(text: str) -> Dict:
    """Validate and unwrap a checkpoint document.

    Rejects non-checkpoint files, version skew (both checkpoint-layout
    and wire-codec), and payloads whose recomputed canonical checksum
    mismatches - a torn write or bit rot must fail here, not as a
    corrupted monitor three cycles after resume.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise CheckpointError(
            f"checkpoint file is not valid JSON: {exc}"
        ) from None
    if not isinstance(doc, dict) or doc.get("format") != STREAM_CHECKPOINT_FORMAT:
        raise CheckpointError(
            "not a stream checkpoint file (missing format tag "
            f"{STREAM_CHECKPOINT_FORMAT!r})"
        )
    if doc.get("ckpt_v") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint layout v{doc.get('ckpt_v')!r} does not match this "
            f"checkout's v{CHECKPOINT_VERSION}; re-checkpoint from a "
            "matching checkout"
        )
    if doc.get("v") != SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint speaks wire schema v{doc.get('v')!r} but this "
            f"checkout speaks v{SCHEMA_VERSION}"
        )
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise CheckpointError("checkpoint payload must be an object")
    if payload_checksum(_canonical_json(payload)) != doc.get("checksum"):
        raise CheckpointError(
            "checkpoint payload fails its checksum - the file was "
            "damaged after it was written; fall back to an older "
            "checkpoint or restart the stream cold"
        )
    return payload
