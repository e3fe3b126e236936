"""Wire protocol for the worker pool: length-prefixed JSON + binary.

Sans-io: every primitive is either pure bytes-in/bytes-out or
parameterised over a ``read_exactly`` callable, so the same parser serves the pool's reader threads, the
worker daemon's blocking socket, and the unit tests' byte buffers.

Framing
-------
One **frame** is a 5-byte header — a kind byte (``J`` for UTF-8 JSON,
``B`` for raw binary) and a 32-bit big-endian payload length — followed
by the payload.  One **message** is a JSON frame whose object carries a
``"type"`` and an optional ``"frames": N`` count, followed by exactly N
binary frames (dtype/shape-described ndarray bodies).  Unknown kind
bytes, oversized lengths, truncated payloads, and non-object JSON all
raise :class:`~repro.errors.WorkerProtocolError` — a corrupt frame can
never be half-applied.

Result payload encoding
-----------------------
:func:`encode_tree` walks a result object (metrics dicts, instrument
snapshots) and rewrites every :class:`~repro.signals.waveform.Waveform`,
:class:`~repro.signals.waveform.WaveformBatch`, and ndarray into a JSON
marker ``{"__repro__": "ndarray", "frame": i, ...}``: the samples
follow as binary frame *i* (raw C-order bytes, dtype and shape in the
marker; **never pickle**).  Local ``spawn://`` and remote workers
ship results the same way.  :func:`decode_tree` is the exact inverse;
it accepts only numeric dtypes (bool, integer, float, complex).

Handshake
---------
The first message a worker sends is ``hello``: protocol version, its
**cache identity** (the campaign cache's code-version salt + the active
kernel backend), and the ``REPRO_MASTER_TOKEN`` shared secret when
one is set.  The pool replies ``welcome`` (assigning a name and the
heartbeat cadence) or an ``error`` frame and a close.  Keying the
handshake on the cache identity makes the content-addressed cache a
safe rendezvous: a worker built from different code (different salt)
or running a different kernel backend would poison the
byte-stability guarantee, so it is rejected before it can compute
anything.
"""

from __future__ import annotations

import hmac
import json
import socket
import struct
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import WorkerError, WorkerProtocolError
from ..kernels import active_backend
from ..signals.waveform import Waveform, WaveformBatch

__all__ = [
    "PROTOCOL_VERSION",
    "FRAME_JSON",
    "FRAME_BINARY",
    "MAX_WIRE_BYTES",
    "pack_frame",
    "read_frame",
    "pack_message",
    "read_message",
    "send_message",
    "recv_message",
    "sock_read_exactly",
    "encode_tree",
    "decode_tree",
    "worker_cache_identity",
    "check_token",
    "identity_mismatch",
    "point_to_wire",
    "point_from_wire",
    "parse_address",
]

#: Bump on any incompatible wire change; both ends refuse a mismatch.
PROTOCOL_VERSION = 1

FRAME_JSON = ord("J")
FRAME_BINARY = ord("B")

#: Upper bound on one frame's payload.  Campaign metrics and point
#: batches are KBs; binary waveform frames are MBs.  Anything past
#: this is a protocol error, not a bigger buffer.
MAX_WIRE_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">BI")

#: Marker key for encoded values; a user dict carrying it would be
#: ambiguous on decode, so encoding rejects that outright.
_MARK = "__repro__"

#: dtype kinds an array marker may declare: bool, int, uint, float,
#: complex.  Object and void dtypes cannot be rebuilt from raw bytes.
_NUMERIC_KINDS = frozenset("biufc")


# -- framing ----------------------------------------------------------------


def pack_frame(kind: int, payload: bytes) -> bytes:
    """One length-prefixed frame."""
    if len(payload) > MAX_WIRE_BYTES:
        raise WorkerProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_WIRE_BYTES}-byte limit"
        )
    return _HEADER.pack(kind, len(payload)) + payload


def read_frame(read_exactly: Callable[[int], bytes]) -> Tuple[int, bytes]:
    """Read one frame; validates the kind byte and the length bound."""
    header = read_exactly(_HEADER.size)
    if len(header) != _HEADER.size:
        raise WorkerProtocolError("connection closed mid-frame-header")
    kind, length = _HEADER.unpack(header)
    if kind not in (FRAME_JSON, FRAME_BINARY):
        raise WorkerProtocolError(
            f"unknown frame kind byte 0x{kind:02x} (corrupt stream?)"
        )
    if length > MAX_WIRE_BYTES:
        raise WorkerProtocolError(
            f"incoming frame of {length} bytes exceeds the "
            f"{MAX_WIRE_BYTES}-byte limit"
        )
    payload = read_exactly(length) if length else b""
    if len(payload) != length:
        raise WorkerProtocolError("connection closed mid-frame")
    return kind, payload


def pack_message(obj: Dict[str, Any], frames: Tuple[bytes, ...] = ()) -> bytes:
    """Serialise one message: a JSON frame plus its binary frames."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise WorkerProtocolError(
            f"message must be a dict with a 'type', got {obj!r:.100}"
        )
    envelope = dict(obj)
    if frames:
        envelope["frames"] = len(frames)
    try:
        text = json.dumps(envelope, sort_keys=True, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise WorkerProtocolError(
            f"message is not JSON-serialisable: {exc}"
        ) from exc
    out = pack_frame(FRAME_JSON, text.encode("utf-8"))
    for body in frames:
        out += pack_frame(FRAME_BINARY, body)
    return out


def read_message(
    read_exactly: Callable[[int], bytes],
) -> Tuple[Dict[str, Any], List[bytes]]:
    """Read one message (JSON envelope + declared binary frames)."""
    kind, payload = read_frame(read_exactly)
    if kind != FRAME_JSON:
        raise WorkerProtocolError(
            "expected a JSON frame to start a message, got binary"
        )
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WorkerProtocolError(f"corrupt JSON frame: {exc}") from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("type"), str):
        raise WorkerProtocolError(
            f"message envelope must be an object with a 'type': "
            f"{payload[:80]!r}"
        )
    n_frames = obj.get("frames", 0)
    if not isinstance(n_frames, int) or n_frames < 0 or n_frames > 4096:
        raise WorkerProtocolError(f"bad frame count: {n_frames!r}")
    frames: List[bytes] = []
    for _ in range(n_frames):
        kind, body = read_frame(read_exactly)
        if kind != FRAME_BINARY:
            raise WorkerProtocolError(
                "expected a binary frame inside a message, got JSON"
            )
        frames.append(body)
    return obj, frames


def sock_read_exactly(sock: socket.socket) -> Callable[[int], bytes]:
    """A ``read_exactly`` over a blocking socket (EOF → short read)."""

    def read_exactly(n: int) -> bytes:
        chunks = bytearray()
        while len(chunks) < n:
            chunk = sock.recv(n - len(chunks))
            if not chunk:
                break
            chunks.extend(chunk)
        return bytes(chunks)

    return read_exactly


def send_message(
    sock: socket.socket,
    obj: Dict[str, Any],
    frames: Tuple[bytes, ...] = (),
) -> None:
    """Serialise and write one message to a blocking socket."""
    sock.sendall(pack_message(obj, frames))


def recv_message(
    sock: socket.socket,
) -> Tuple[Dict[str, Any], List[bytes]]:
    """Read one message off a blocking socket."""
    return read_message(sock_read_exactly(sock))


# -- result payload encoding ------------------------------------------------


def _encode_array(array: np.ndarray, frames: List[bytes]) -> Dict[str, Any]:
    """One ndarray → a binary-frame marker; the body joins *frames*."""
    array = np.ascontiguousarray(array)
    marker = {
        _MARK: "ndarray",
        "frame": len(frames),
        "shape": list(array.shape),
        "dtype": str(array.dtype),
    }
    frames.append(array.tobytes())
    return marker


def encode_tree(obj: Any, frames: List[bytes]) -> Any:
    """Rewrite arrays/waveforms in *obj* into wire markers.

    Appends binary bodies to *frames* (callers pass the same list for
    a whole message).  Scalars, strings, bools, and None pass
    through; numpy scalars are converted to their Python equivalents;
    tuples become lists (JSON has no tuple).
    """
    if isinstance(obj, Waveform):
        return {
            _MARK: "waveform",
            "dt": float(obj.dt),
            "t0": float(obj.t0),
            "samples": _encode_array(obj.values, frames),
        }
    if isinstance(obj, WaveformBatch):
        return {
            _MARK: "waveform_batch",
            "dt": float(obj.dt),
            "t0": [float(t) for t in obj.t0],
            "samples": _encode_array(obj.values, frames),
        }
    if isinstance(obj, np.ndarray):
        return _encode_array(obj, frames)
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        if _MARK in obj:
            raise WorkerProtocolError(
                f"payload dicts may not use the reserved key {_MARK!r}"
            )
        return {
            str(key): encode_tree(value, frames)
            for key, value in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [encode_tree(item, frames) for item in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise WorkerProtocolError(
        f"cannot encode a {type(obj).__name__} for the worker wire"
    )


def _decode_array(marker: Dict[str, Any], frames: List[bytes]) -> np.ndarray:
    try:
        shape = tuple(int(n) for n in marker["shape"])
        dtype = np.dtype(str(marker["dtype"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise WorkerProtocolError(f"corrupt array marker: {exc}") from exc
    if dtype.kind not in _NUMERIC_KINDS:
        raise WorkerProtocolError(
            f"array marker declares non-numeric dtype {dtype.str!r}"
        )
    index = marker.get("frame")
    if not isinstance(index, int) or not 0 <= index < len(frames):
        raise WorkerProtocolError(f"bad binary frame index: {index!r}")
    body = frames[index]
    expected = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
    if len(body) != expected:
        raise WorkerProtocolError(
            f"binary frame {index} carries {len(body)} bytes but the "
            f"marker declares {dtype}{shape} = {expected} bytes"
        )
    return np.frombuffer(body, dtype=dtype).reshape(shape).copy()


def decode_tree(obj: Any, frames: List[bytes]) -> Any:
    """Inverse of :func:`encode_tree`; raises on any corrupt marker."""
    if isinstance(obj, dict):
        kind = obj.get(_MARK)
        if kind is None:
            return {
                key: decode_tree(value, frames)
                for key, value in obj.items()
            }
        if kind == "waveform":
            return Waveform(
                _decode_array(obj["samples"], frames),
                float(obj["dt"]),
                float(obj["t0"]),
            )
        if kind == "waveform_batch":
            return WaveformBatch(
                _decode_array(obj["samples"], frames),
                float(obj["dt"]),
                np.array([float(t) for t in obj["t0"]]),
            )
        if kind == "ndarray":
            return _decode_array(obj, frames)
        raise WorkerProtocolError(f"unknown payload marker {kind!r}")
    if isinstance(obj, list):
        return [decode_tree(item, frames) for item in obj]
    return obj


# -- handshake helpers ------------------------------------------------------


def worker_cache_identity() -> Dict[str, str]:
    """The cache identity both handshake sides must agree on.

    ``salt`` is the campaign cache's code-version salt
    (:data:`repro.campaign.cache.CACHE_SALT`); ``backend`` is the
    active kernel backend.  Two processes with equal identities
    produce interchangeable, cache-addressable results — that
    equality is what makes requeue re-execution idempotent.
    """
    from ..campaign.cache import CACHE_SALT

    return {"salt": CACHE_SALT, "backend": active_backend()}


def parse_address(
    address: str, *, what: str, default_host: Optional[str] = None
) -> Tuple[str, int]:
    """Split ``HOST:PORT`` into ``(host, port)``; both ends dial with it.

    *what* names the address in the :class:`~repro.errors.WorkerError`
    raised for a missing or non-numeric port, a port above 65535, or
    an empty host when no *default_host* stands in for it.  Port 0 is
    valid: a listener binds an ephemeral port.
    """
    host, _, port = address.rpartition(":")
    host = host or default_host
    if not host or not port.isdigit():
        raise WorkerError(f"{what}: expected HOST:PORT")
    if int(port) > 65535:
        raise WorkerError(f"{what}: port must be 0-65535")
    return host, int(port)


def check_token(expected: Optional[str], presented: Optional[str]) -> bool:
    """Constant-time shared-secret comparison.

    No *expected* token (the pool runs open) accepts anything;
    with one set, the presented value must match byte-for-byte.
    """
    if not expected:
        return True
    if not isinstance(presented, str):
        return False
    return hmac.compare_digest(
        expected.encode("utf-8"), presented.encode("utf-8")
    )


def identity_mismatch(
    ours: Dict[str, str], theirs: Any
) -> Optional[str]:
    """Human-readable mismatch description, or ``None`` when compatible."""
    if not isinstance(theirs, dict):
        return f"malformed cache identity {theirs!r}"
    for field in ("salt", "backend"):
        if theirs.get(field) != ours[field]:
            return (
                f"cache identity mismatch: worker {field}="
                f"{theirs.get(field)!r}, pool {field}={ours[field]!r}"
            )
    return None


# -- campaign-point wire form -----------------------------------------------


def point_to_wire(point) -> Dict[str, Any]:
    """A :class:`~repro.campaign.spec.CampaignPoint` as plain JSON.

    Carries exactly the fields of the point's identity plus its index,
    so the worker reconstructs a point whose cache key and per-point
    seed are byte-identical to the pool's.
    """
    return {
        "scenario": point.scenario,
        "params": dict(point.params),
        "instance": point.instance,
        "spec_seed": point.spec_seed,
        "variation": point.variation.to_dict(),
        "index": point.index,
    }


def point_from_wire(data: Dict[str, Any]):
    """Inverse of :func:`point_to_wire`."""
    from ..campaign.spec import CampaignPoint
    from ..campaign.variation import VariationModel

    try:
        return CampaignPoint(
            scenario=str(data["scenario"]),
            params=dict(data["params"]),
            instance=int(data["instance"]),
            spec_seed=int(data["spec_seed"]),
            variation=VariationModel.from_dict(data["variation"]),
            index=int(data["index"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise WorkerProtocolError(
            f"malformed campaign point on the wire: {exc}"
        ) from exc
