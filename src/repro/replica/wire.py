"""Framing and value codecs for coordinator ↔ shard-worker traffic.

The transport reuses the service's shape — one JSON object per ``\\n``-
terminated line — over a ``socketpair`` shared with each forked worker,
so the protocol composes with every line-JSON tool the repo already has
and a wedged peer can never desynchronize more than one frame.

Safety properties enforced here (both directions):

* **Size cap** — :func:`read_frame` refuses to buffer more than
  ``max_bytes`` of one frame; an oversized peer is a
  :class:`~repro.replica.errors.ReplicaProtocolError` (worker side: a
  typed error response), never an unbounded allocation.
* **Shape check** — a frame must decode to a JSON object; anything else
  (garbage bytes, arrays, bare numbers) is a protocol error.

Bitset payloads cross the boundary as hex-encoded little-endian uint64
word arrays (:func:`words_to_wire` / :func:`words_from_wire`) — the
coordinator's packed coverage currency shipped verbatim, with the word
count validated against the declared universe so a short or bloated
payload cannot smear into downstream kernels.
"""

from __future__ import annotations

import json

import numpy as np

from repro.replica.errors import ReplicaDead, ReplicaProtocolError

#: Default cap on one frame.  Generous: the largest payload is a dense
#: covered bitset (8 bytes/64 graphs → 2 MiB of hex covers 8M relevant
#: graphs), yet small enough that a corrupt length cannot balloon memory.
MAX_FRAME_BYTES = 4 * 1024 * 1024


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------
def encode_frame(payload: dict) -> bytes:
    """One JSON object as one line (compact separators)."""
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


def read_frame(reader, *, max_bytes: int = MAX_FRAME_BYTES) -> dict | None:
    """Read one frame from a buffered binary reader.

    Returns the decoded object, ``None`` at clean EOF (peer closed between
    frames), raises :class:`ReplicaDead` on EOF mid-frame and
    :class:`ReplicaProtocolError` on an oversized or malformed frame.
    ``reader`` is anything with ``readline(limit)`` (``socket.makefile`` /
    ``io.BufferedReader``).
    """
    line = reader.readline(max_bytes + 1)
    if not line:
        return None
    if len(line) > max_bytes:
        raise ReplicaProtocolError(
            f"frame exceeds {max_bytes} bytes; peer is corrupt or hostile"
        )
    if not line.endswith(b"\n"):
        raise ReplicaDead("connection closed mid-frame")
    try:
        payload = json.loads(line)
    except ValueError as error:  # JSONDecodeError or undecodable bytes
        raise ReplicaProtocolError(
            f"frame is not valid JSON: {error}"
        ) from error
    if not isinstance(payload, dict):
        raise ReplicaProtocolError(
            f"frame must be a JSON object, got {type(payload).__name__}"
        )
    return payload


# ---------------------------------------------------------------------------
# Bitset words
# ---------------------------------------------------------------------------
def words_to_wire(words: np.ndarray) -> str:
    """Packed uint64 word array → hex string (stable across fork peers)."""
    return np.ascontiguousarray(words, dtype="<u8").tobytes().hex()

def words_from_wire(text: str, num_words: int) -> np.ndarray:
    """Hex string → word array, validated against the expected length."""
    if not isinstance(text, str):
        raise ReplicaProtocolError("bitset payload must be a hex string")
    try:
        raw = bytes.fromhex(text)
    except ValueError as error:
        raise ReplicaProtocolError(
            f"bitset payload is not valid hex: {error}"
        ) from error
    if len(raw) != int(num_words) * 8:
        raise ReplicaProtocolError(
            f"bitset payload holds {len(raw) // 8} words, "
            f"expected {num_words}"
        )
    return np.frombuffer(raw, dtype="<u8").astype(np.uint64, copy=True)
