"""Codec tests: framing, roundtrips, and property-based fuzzing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError, TelemetryError
from repro.telemetry import (
    MAX_PATH_NODES,
    MAX_RECORDS_PER_MESSAGE,
    FlowReport,
    decode_message,
    decode_record,
    encode_message,
    encode_record,
)


def sample_report(**overrides):
    defaults = dict(
        src=12, dst=999, packets_sent=1000, retransmissions=3,
        rtt_us=250, is_probe=False, path=(12, 40, 41, 999),
    )
    defaults.update(overrides)
    return FlowReport(**defaults)


class TestRecordValidation:
    def test_retransmissions_bounded(self):
        with pytest.raises(TelemetryError):
            FlowReport(src=0, dst=1, packets_sent=2, retransmissions=3, rtt_us=0)

    def test_path_length_bounded(self):
        with pytest.raises(TelemetryError):
            FlowReport(
                src=0, dst=1, packets_sent=1, retransmissions=0, rtt_us=0,
                path=tuple(range(MAX_PATH_NODES + 1)),
            )

    def test_field_width(self):
        with pytest.raises(TelemetryError):
            FlowReport(src=2 ** 32, dst=1, packets_sent=1,
                       retransmissions=0, rtt_us=0)

    def test_wire_size_matches_paper(self):
        # A full 7-hop traced report is the paper's 52 bytes per flow.
        report = sample_report(path=tuple(range(7)))
        assert len(encode_record(report)) == 52


class TestRoundtrip:
    def test_single_record(self):
        report = sample_report()
        decoded, offset = decode_record(encode_record(report), 0)
        assert decoded == report
        assert offset == len(encode_record(report))

    def test_pathless_record(self):
        report = sample_report(path=None)
        decoded, _ = decode_record(encode_record(report), 0)
        assert decoded.path is None

    def test_message_roundtrip(self):
        reports = [sample_report(src=i) for i in range(10)]
        assert decode_message(encode_message(reports)) == reports

    def test_empty_message(self):
        assert decode_message(encode_message([])) == []

    def test_max_records_fits_udp(self):
        reports = [
            sample_report(path=tuple(range(MAX_PATH_NODES)))
            for _ in range(MAX_RECORDS_PER_MESSAGE)
        ]
        message = encode_message(reports)
        assert len(message) <= 1400
        assert decode_message(message) == reports


class TestFraming:
    def test_bad_magic(self):
        message = bytearray(encode_message([sample_report()]))
        message[0] = ord("X")
        with pytest.raises(CodecError):
            decode_message(bytes(message))

    def test_bad_version(self):
        message = bytearray(encode_message([sample_report()]))
        message[2] = 99
        with pytest.raises(CodecError):
            decode_message(bytes(message))

    def test_truncated(self):
        message = encode_message([sample_report()])
        with pytest.raises(CodecError):
            decode_message(message[:-3])

    def test_checksum_detects_corruption(self):
        message = bytearray(encode_message([sample_report()]))
        message[12] ^= 0xFF  # flip a payload byte
        with pytest.raises(CodecError):
            decode_message(bytes(message))

    def test_short_message(self):
        with pytest.raises(CodecError):
            decode_message(b"FK")


path_strategy = st.one_of(
    st.none(),
    st.lists(
        st.integers(min_value=0, max_value=2 ** 32 - 1),
        min_size=0, max_size=MAX_PATH_NODES,
    ).map(tuple),
)

report_strategy = st.builds(
    lambda src, dst, sent, retx_frac, rtt, probe, path: FlowReport(
        src=src, dst=dst, packets_sent=sent,
        retransmissions=min(sent, retx_frac),
        rtt_us=rtt, is_probe=probe, path=path,
    ),
    src=st.integers(min_value=0, max_value=2 ** 32 - 1),
    dst=st.integers(min_value=0, max_value=2 ** 32 - 1),
    sent=st.integers(min_value=0, max_value=2 ** 32 - 1),
    retx_frac=st.integers(min_value=0, max_value=2 ** 32 - 1),
    rtt=st.integers(min_value=0, max_value=2 ** 32 - 1),
    probe=st.booleans(),
    path=path_strategy,
)


class TestProperties:
    @given(report=report_strategy)
    @settings(max_examples=200, deadline=None)
    def test_record_roundtrip(self, report):
        decoded, _ = decode_record(encode_record(report), 0)
        assert decoded == report

    @given(reports=st.lists(report_strategy, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_message_roundtrip(self, reports):
        assert decode_message(encode_message(reports)) == reports

    @given(garbage=st.binary(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_decode_never_crashes_unexpectedly(self, garbage):
        # Arbitrary bytes must either decode or raise CodecError -
        # nothing else (a collector must survive malformed agents).
        try:
            decode_message(garbage)
        except CodecError:
            pass
