"""Tests for the worker wire protocol: framing, payload trees, handshake."""

import io
import json

import numpy as np
import pytest

from repro.campaign.spec import CampaignSpec, expand_points
from repro.errors import WorkerProtocolError
from repro.signals.waveform import Waveform, WaveformBatch
from repro.workers.protocol import (
    FRAME_BINARY,
    FRAME_JSON,
    MAX_WIRE_BYTES,
    PROTOCOL_VERSION,
    check_token,
    decode_tree,
    encode_tree,
    identity_mismatch,
    pack_frame,
    pack_message,
    point_from_wire,
    point_to_wire,
    read_message,
    worker_cache_identity,
)

TINY = {
    "name": "wire-tiny",
    "scenario": "range",
    "seed": 7,
    "n_instances": 1,
    "base": {"n_bits": 48, "n_points": 5, "measure_jitter": False},
    "sweeps": [{"name": "bit_rate", "values": ["2.4 Gbps"]}],
}


def reader_for(blob: bytes):
    stream = io.BytesIO(blob)
    return stream.read


class TestFraming:
    def test_message_round_trip(self):
        blob = pack_message(
            {"type": "result", "index": 3, "duration_s": 0.5},
            (b"abc", b""),
        )
        obj, frames = read_message(reader_for(blob))
        assert obj["type"] == "result"
        assert obj["index"] == 3
        assert obj["frames"] == 2
        assert frames == [b"abc", b""]

    def test_envelope_json_is_canonical(self):
        blob = pack_message({"type": "hello", "b": 1, "a": 2})
        payload = blob[5:]
        assert json.loads(payload.decode()) == {"type": "hello", "a": 2, "b": 1}
        # sort_keys: a deterministic wire form regardless of dict order
        assert payload.index(b'"a"') < payload.index(b'"b"')

    def test_unknown_kind_byte_rejected(self):
        blob = pack_frame(FRAME_JSON, b'{"type": "x"}')
        corrupt = bytes([0xFF]) + blob[1:]
        with pytest.raises(WorkerProtocolError, match="kind byte"):
            read_message(reader_for(corrupt))

    def test_oversized_frame_rejected_before_allocation(self):
        import struct

        header = struct.pack(">BI", FRAME_JSON, MAX_WIRE_BYTES + 1)
        with pytest.raises(WorkerProtocolError, match="exceeds"):
            read_message(reader_for(header))

    def test_truncated_stream_rejected(self):
        blob = pack_message({"type": "x"}, (b"full frame body",))
        with pytest.raises(WorkerProtocolError, match="mid-frame"):
            read_message(reader_for(blob[:-4]))

    def test_corrupt_json_rejected(self):
        blob = pack_frame(FRAME_JSON, b"{nope")
        with pytest.raises(WorkerProtocolError, match="corrupt JSON"):
            read_message(reader_for(blob))

    def test_binary_frame_cannot_start_a_message(self):
        blob = pack_frame(FRAME_BINARY, b"raw")
        with pytest.raises(WorkerProtocolError, match="JSON frame"):
            read_message(reader_for(blob))

    def test_message_requires_a_type(self):
        with pytest.raises(WorkerProtocolError, match="'type'"):
            pack_message({"index": 1})

    def test_nan_is_not_wireable(self):
        with pytest.raises(WorkerProtocolError, match="JSON"):
            pack_message({"type": "result", "value": float("nan")})


class TestPayloadTrees:
    def payload(self):
        rng = np.random.default_rng(5)
        wave = Waveform(rng.normal(size=256), 1e-12, t0=3e-12)
        batch = WaveformBatch(
            rng.normal(size=(4, 64)), 2e-12, t0=rng.normal(size=4) * 1e-12
        )
        return {
            "wave": wave,
            "batch": batch,
            "array": rng.normal(size=33),
            "nested": [1, {"f": 2.5, "s": "x"}, None, True],
            "np_scalar": np.float64(1.25),
        }

    def assert_equal_payload(self, original, decoded):
        assert np.array_equal(original["wave"].values, decoded["wave"].values)
        assert decoded["wave"].dt == original["wave"].dt
        assert decoded["wave"].t0 == original["wave"].t0
        assert np.array_equal(
            original["batch"].values, decoded["batch"].values
        )
        assert decoded["batch"].dt == original["batch"].dt
        assert np.array_equal(original["batch"].t0, decoded["batch"].t0)
        assert np.array_equal(original["array"], decoded["array"])
        assert decoded["nested"] == original["nested"]
        assert decoded["np_scalar"] == 1.25
        assert isinstance(decoded["np_scalar"], float)

    def test_serialized_path_round_trip(self):
        original = self.payload()
        frames = []
        encoded = encode_tree(original, frames)
        # The envelope itself must be pure JSON (no pickle anywhere).
        json.dumps(encoded)
        decoded = decode_tree(encoded, frames)
        self.assert_equal_payload(original, decoded)

    def test_corrupt_binary_frame_rejected(self):
        frames = []
        encoded = encode_tree({"a": np.arange(8.0)}, frames)
        frames[0] = frames[0][:-8]  # drop one float64
        with pytest.raises(WorkerProtocolError, match="declares"):
            decode_tree(encoded, frames)

    def test_bad_frame_index_rejected(self):
        marker = {
            "__repro__": "ndarray",
            "frame": 7,
            "shape": [2],
            "dtype": "float64",
        }
        with pytest.raises(WorkerProtocolError, match="frame index"):
            decode_tree(marker, [])

    @pytest.mark.parametrize("dtype", ["O", "V8"])
    def test_non_numeric_dtype_rejected(self, dtype):
        # An object array cannot be rebuilt from raw bytes, and a void
        # one would decode to an opaque record: both are corrupt.
        marker = {
            "__repro__": "ndarray",
            "frame": 0,
            "shape": [1],
            "dtype": dtype,
        }
        with pytest.raises(WorkerProtocolError, match="non-numeric"):
            decode_tree(marker, [bytes(8)])

    def test_unknown_marker_rejected(self):
        with pytest.raises(WorkerProtocolError, match="unknown payload"):
            decode_tree({"__repro__": "warp"}, [])

    def test_reserved_key_rejected_on_encode(self):
        with pytest.raises(WorkerProtocolError, match="reserved"):
            encode_tree({"__repro__": "smuggled"}, [])

    def test_unencodable_type_rejected(self):
        with pytest.raises(WorkerProtocolError, match="cannot encode"):
            encode_tree({"x": object()}, [])


class TestHandshakeHelpers:
    def test_check_token(self):
        assert check_token(None, None)
        assert check_token(None, "anything")  # open pool accepts all
        assert check_token("s3cret", "s3cret")
        assert not check_token("s3cret", "wrong")
        assert not check_token("s3cret", None)
        assert not check_token("s3cret", 42)

    def test_identity_matches_itself(self):
        ours = worker_cache_identity()
        assert identity_mismatch(ours, dict(ours)) is None

    def test_identity_mismatch_names_the_field(self):
        ours = worker_cache_identity()
        theirs = dict(ours, salt="repro.campaign/999")
        message = identity_mismatch(ours, theirs)
        assert "salt" in message
        assert "repro.campaign/999" in message
        assert identity_mismatch(ours, "garbage") is not None

    def test_point_round_trip_preserves_identity(self):
        point = expand_points(CampaignSpec.from_dict(TINY))[0]
        wire = point_to_wire(point)
        json.dumps(wire)  # plain JSON, no pickle
        back = point_from_wire(wire)
        assert back.digest() == point.digest()
        assert back.seed() == point.seed()
        assert back.index == point.index

    def test_malformed_point_rejected(self):
        with pytest.raises(WorkerProtocolError, match="malformed"):
            point_from_wire({"scenario": "range"})

    def test_protocol_version_is_stable(self):
        # Bump deliberately (with a CHANGES note), never accidentally.
        assert PROTOCOL_VERSION == 1
