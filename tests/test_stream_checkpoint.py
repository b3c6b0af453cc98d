"""Stream checkpointing: codec round-trips and validation, crash/resume
bit-identity across schemes, drift refusal, and the monitor's budget /
cadence parameter validation (library and CLI)."""

import json
import math

import numpy as np
import pytest

from repro.cli import main
from repro.core.flock_fast import VectorJleState
from repro.errors import CheckpointError, ExperimentError, InferenceError
from repro.eval import experiments
from repro.eval.schemes import make_setup
from repro.eval.serialize import (
    SCHEMA_VERSION,
    cycle_report_from_wire,
    cycle_report_to_wire,
    decode_stream_checkpoint,
    encode_stream_checkpoint,
    ndarray_from_wire,
    ndarray_to_wire,
)
from repro.eval.stream import StreamMonitor, incident_latencies
from repro.routing.ecmp import EcmpRouting
from repro.simulation.failures import make_scenario
from repro.simulation.stream import replay_stream

N_CYCLES = 8


def build_stream(seed=61, preset="tiny", n_chunks=N_CYCLES):
    """Fresh topology + regenerated chunk stream, as a new process
    would rebuild them (fresh PathSpace: interning starts empty)."""
    topology = experiments.standard_topology(preset)
    routing = EcmpRouting(topology)
    chunks = replay_stream(
        topology, routing, make_scenario("gray-drift"), seed=seed,
        n_chunks=n_chunks, flows_per_chunk=200, probes_per_chunk=50,
        onset_chunk=2, clear_chunk=None,
    )
    return topology, list(chunks)


class TestCodec:
    def test_ndarray_roundtrip_is_bit_exact(self):
        for array in (
            np.array([0.1, -1.5e300, math.pi]),
            np.arange(6, dtype=np.int64).reshape(2, 3),
            np.array([], dtype=np.float64),
            np.array([True, False]),
        ):
            back = ndarray_from_wire(ndarray_to_wire(array))
            assert back.dtype == array.dtype and back.shape == array.shape
            assert np.array_equal(back, array)
        back = ndarray_from_wire(ndarray_to_wire(np.array([1.0])))
        back[0] = 2.0  # decoded arrays must be writable

    def test_malformed_ndarray_rejected(self):
        with pytest.raises(CheckpointError, match="malformed ndarray"):
            ndarray_from_wire({"d": "<f8", "s": [4], "b": "not base64!"})
        with pytest.raises(CheckpointError, match="malformed ndarray"):
            ndarray_from_wire({"d": "<f8", "s": [999], "b": "AAAA"})

    def test_document_validation(self):
        text = encode_stream_checkpoint({"x": 1})
        assert decode_stream_checkpoint(text) == {"x": 1}
        with pytest.raises(CheckpointError, match="not valid JSON"):
            decode_stream_checkpoint("{truncated")
        with pytest.raises(CheckpointError, match="format tag"):
            decode_stream_checkpoint(json.dumps({"format": "other"}))
        doc = json.loads(text)
        doc["ckpt_v"] = 99
        with pytest.raises(CheckpointError, match="checkpoint layout"):
            decode_stream_checkpoint(json.dumps(doc))
        doc = json.loads(text)
        doc["payload"]["x"] = 2  # damage after checksumming
        with pytest.raises(CheckpointError, match="fails its checksum"):
            decode_stream_checkpoint(json.dumps(doc))

    def test_cycle_report_roundtrip_drops_timings(self):
        topology, chunks = build_stream()
        monitor = StreamMonitor(topology, window=3, seed=61)
        report = monitor.step(chunks[0])
        back = cycle_report_from_wire(
            json.loads(json.dumps(cycle_report_to_wire(report)))
        )
        assert back.prediction == report.prediction
        assert back.truth == report.truth
        assert back.cycle == report.cycle
        assert back.build_seconds == 0.0 and back.localize_seconds == 0.0


class TestCrashResume:
    @pytest.mark.parametrize("scheme", ["flock", "flock-greedy", "sherlock"])
    def test_resume_is_bit_identical(self, scheme, tmp_path):
        crash_at = 4
        topology, chunks = build_stream()
        monitor = StreamMonitor(topology, scheme=scheme, window=3, seed=61)
        baseline = [cycle_report_to_wire(monitor.step(c)) for c in chunks]

        path = tmp_path / "stream.ckpt"
        topology, chunks = build_stream()
        monitor = StreamMonitor(
            topology, scheme=scheme, window=3, seed=61,
            checkpoint_path=str(path), checkpoint_every=1,
        )
        for chunk in chunks[:crash_at]:
            monitor.step(chunk)
        del monitor  # the crash

        topology, chunks = build_stream()
        payload = decode_stream_checkpoint(path.read_text())
        monitor = StreamMonitor.from_checkpoint(payload, topology, chunks)
        assert monitor.cursor == crash_at and monitor.cycles == crash_at
        resumed = [
            cycle_report_to_wire(monitor.step(c))
            for c in chunks if c.index >= monitor.cursor
        ]
        assert resumed == baseline[crash_at:]

    def test_resume_refuses_drifted_stream(self, tmp_path):
        topology, chunks = build_stream(seed=61)
        monitor = StreamMonitor(topology, window=3, seed=61)
        for chunk in chunks[:4]:
            monitor.step(chunk)
        payload = decode_stream_checkpoint(
            encode_stream_checkpoint(monitor.checkpoint_payload())
        )
        topology, drifted = build_stream(seed=62)
        with pytest.raises(CheckpointError, match="diverges"):
            StreamMonitor.from_checkpoint(payload, topology, drifted)

    def test_resume_refuses_wrong_topology(self, tmp_path):
        topology, chunks = build_stream()
        monitor = StreamMonitor(topology, window=3, seed=61)
        monitor.step(chunks[0])
        payload = monitor.checkpoint_payload()
        other, _ = build_stream(preset="ci")
        with pytest.raises(CheckpointError, match="same preset"):
            StreamMonitor.from_checkpoint(payload, other, chunks)

    def test_checkpoint_cadence(self, tmp_path):
        path = tmp_path / "every3.ckpt"
        topology, chunks = build_stream()
        monitor = StreamMonitor(
            topology, window=3, seed=61,
            checkpoint_path=str(path), checkpoint_every=3,
        )
        monitor.step(chunks[0])
        monitor.step(chunks[1])
        assert not path.exists()
        monitor.step(chunks[2])
        assert path.exists()
        assert decode_stream_checkpoint(path.read_text())["cursor"] == 3

    def test_custom_setup_cannot_checkpoint(self):
        topology, chunks = build_stream()
        monitor = StreamMonitor(topology, setup=make_setup("flock"))
        monitor.step(chunks[0])
        with pytest.raises(CheckpointError, match="registry scheme"):
            monitor.checkpoint_payload()

    def test_incident_latencies_on_a_resumed_tail(self):
        # A resumed monitor's report list starts mid-stream; latency
        # accounting must key on cycle numbers, not list positions.
        topology, chunks = build_stream()
        monitor = StreamMonitor(topology, window=3, seed=61)
        reports = [monitor.step(c) for c in chunks]
        tail = incident_latencies(reports[3:])
        assert tail and tail[0]["onset_cycle"] == 3
        if tail[0]["detected_cycle"] is not None:
            assert tail[0]["latency_seconds"] >= 0

    def test_resume_from_a_numpy_tagged_checkpoint_is_bit_identical(
        self, tmp_path
    ):
        # Older checkouts tagged the warm state's Δ layout as "k" and
        # the window's layout as config "compressed"; "numpy" and true
        # are the only layouts left, so they restore as untagged.
        crash_at = 4
        topology, chunks = build_stream()
        monitor = StreamMonitor(topology, window=3, seed=61)
        baseline = [cycle_report_to_wire(monitor.step(c)) for c in chunks]

        path = tmp_path / "stream.ckpt"
        topology, chunks = build_stream()
        monitor = StreamMonitor(
            topology, window=3, seed=61, checkpoint_path=str(path),
        )
        for chunk in chunks[:crash_at]:
            monitor.step(chunk)
        payload = decode_stream_checkpoint(path.read_text())
        assert "k" not in payload["state"]
        assert "compressed" not in payload["config"]
        payload["state"]["k"] = "numpy"
        payload["config"]["compressed"] = True
        payload = decode_stream_checkpoint(encode_stream_checkpoint(payload))

        topology, chunks = build_stream()
        monitor = StreamMonitor.from_checkpoint(payload, topology, chunks)
        resumed = [
            cycle_report_to_wire(monitor.step(c))
            for c in chunks if c.index >= monitor.cursor
        ]
        assert resumed == baseline[crash_at:]

    def test_resume_refuses_another_kernel_layout(self, tmp_path, capsys):
        path = tmp_path / "collapsed.ckpt"
        args = ["stream", "gray-drift", "--preset", "tiny", "--cycles", "4",
                "--flows", "200", "--probes", "50", "--window", "3"]
        assert main(args + ["--checkpoint", str(path)]) == 0
        capsys.readouterr()
        payload = decode_stream_checkpoint(path.read_text())
        payload["state"]["k"] = "collapsed"
        path.write_text(encode_stream_checkpoint(payload))

        topology, chunks = build_stream()
        with pytest.raises(CheckpointError, match="'collapsed'"):
            StreamMonitor.from_checkpoint(payload, topology, chunks)
        assert main(["stream", "--resume", str(path)]) == 2
        assert "'collapsed' kernel layout" in capsys.readouterr().err

    def test_resume_refuses_an_uncompressed_window(self, tmp_path, capsys):
        path = tmp_path / "uncompressed.ckpt"
        args = ["stream", "gray-drift", "--preset", "tiny", "--cycles", "4",
                "--flows", "200", "--probes", "50", "--window", "3"]
        assert main(args + ["--checkpoint", str(path)]) == 0
        capsys.readouterr()
        payload = decode_stream_checkpoint(path.read_text())
        assert "compressed" not in payload["config"]
        payload["config"]["compressed"] = False
        path.write_text(encode_stream_checkpoint(payload))

        topology, chunks = build_stream()
        with pytest.raises(CheckpointError, match="uncompressed window"):
            StreamMonitor.from_checkpoint(payload, topology, chunks)
        assert main(["stream", "--resume", str(path)]) == 2
        assert "uncompressed window" in capsys.readouterr().err

    def test_restore_validates_delta_shape(self):
        topology, chunks = build_stream()
        monitor = StreamMonitor(topology, scheme="flock", window=3, seed=61)
        monitor.step(chunks[0])
        problem = monitor.windowed.problem
        params = monitor.setup.localizer.params
        with pytest.raises(InferenceError, match="does not match this window"):
            VectorJleState.restore(
                problem, params, hypothesis=[], delta=np.zeros(3),
                ll=0.0, flips=0,
            )


class TestValidation:
    @pytest.mark.parametrize(
        "budget", [0, -1.0, float("nan"), float("inf"), -float("inf")]
    )
    def test_cycle_budget_rejects_non_positive_non_finite(self, budget):
        topology = experiments.standard_topology("tiny")
        with pytest.raises(ExperimentError, match="cycle_budget"):
            StreamMonitor(topology, cycle_budget=budget)

    @pytest.mark.parametrize("every", [0, -2, True, 1.5])
    def test_checkpoint_every_rejects_bad_cadence(self, every):
        topology = experiments.standard_topology("tiny")
        with pytest.raises(ExperimentError, match="checkpoint_every"):
            StreamMonitor(topology, checkpoint_every=every)

    @pytest.mark.parametrize("budget", ["0", "-1", "nan", "inf"])
    def test_cli_rejects_bad_cycle_budget(self, budget, capsys):
        code = main([
            "stream", "gray-drift", "--preset", "tiny", "--cycles", "2",
            "--cycle-budget", budget,
        ])
        assert code == 2
        assert "cycle_budget" in capsys.readouterr().err

    def test_cli_requires_scenario_or_resume(self, capsys):
        assert main(["stream", "--preset", "tiny"]) == 2
        assert "scenario" in capsys.readouterr().err


class TestCliResume:
    def test_checkpoint_then_resume_via_cli(self, tmp_path, capsys):
        path = tmp_path / "cli.ckpt"
        args = ["stream", "gray-drift", "--preset", "tiny", "--cycles", "6",
                "--flows", "200", "--probes", "50", "--window", "3"]
        assert main(args + ["--checkpoint", str(path)]) == 0
        capsys.readouterr()
        # The final checkpoint covers every cycle: the resumed run has
        # nothing left to do but must still load and report cleanly.
        assert main(["stream", "--resume", str(path)]) == 0
        out = capsys.readouterr().out
        assert "resuming gray-drift" in out
        assert "6 cycle(s) already done" in out

    def test_resume_refuses_a_checkpoint_of_the_previous_stream(
        self, tmp_path, capsys
    ):
        # A schema v2 checkpoint replays chunks of the per-group RNG
        # stream; resuming it on this checkout's draws must fail.
        path = tmp_path / "v2.ckpt"
        args = ["stream", "gray-drift", "--preset", "tiny", "--cycles", "4",
                "--flows", "200", "--probes", "50", "--window", "3"]
        assert main(args + ["--checkpoint", str(path)]) == 0
        capsys.readouterr()
        doc = json.loads(path.read_text())
        assert doc["v"] == SCHEMA_VERSION
        doc["v"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="wire schema v2"):
            decode_stream_checkpoint(path.read_text())
        assert main(["stream", "--resume", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro-flock: error: ")
        assert "checkpoint speaks wire schema v2" in err

    def test_resume_rejects_non_checkpoint_file(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"hello": 1}))
        assert main(["stream", "--resume", str(bogus)]) == 2
        assert "not a stream checkpoint" in capsys.readouterr().err
