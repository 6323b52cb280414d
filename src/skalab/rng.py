"""Deterministic, seedable, counter-based randomness with named sub-streams.

Every run of the laboratory derives all randomness from one master seed.
A stream is identified by the master seed plus a path of labels, e.g.

    SeedStream(7).child("session", 42).child("alice", "hash")

Block b of a stream is SHA-256(key || BLOCK_TAG || b) where key is
SHA-256 of the canonically-encoded label path; bits are consumed from each
block least-significant-bit first.  Child derivation hashes the label path
under a different domain tag, so child streams never collide with block
output.  Identical (seed, labels) therefore yield identical bits on every
platform, and parallel sessions replay independently.
"""

from __future__ import annotations

import hashlib

from .gf2 import BitVec

_BLOCK_TAG = b"\x00B"
_CHILD_TAG = b"\x01C"


def _encode_label(label) -> bytes:
    if isinstance(label, str):
        raw = b"s" + label.encode("utf-8")
    elif isinstance(label, int):
        raw = b"i" + str(label).encode("ascii")
    else:
        raise TypeError(f"unsupported stream label type {type(label)!r}")
    return len(raw).to_bytes(4, "big") + raw


class SeedStream:
    """One named stream of deterministic bits."""

    def __init__(self, *labels) -> None:
        h = hashlib.sha256()
        for label in labels:
            h.update(_encode_label(label))
        self._key = h.digest()
        self._counter = 0
        self._buf = 0
        self._buf_bits = 0

    def child(self, *labels) -> "SeedStream":
        h = hashlib.sha256(self._key + _CHILD_TAG)
        for label in labels:
            h.update(_encode_label(label))
        s = SeedStream.__new__(SeedStream)
        s._key = h.digest()
        s._counter = 0
        s._buf = 0
        s._buf_bits = 0
        return s

    def bits(self, k: int) -> int:
        """Next k bits as an integer (LSB = first bit drawn)."""
        if k < 0:
            raise ValueError("bit count must be non-negative")
        while self._buf_bits < k:
            block = hashlib.sha256(
                self._key + _BLOCK_TAG + self._counter.to_bytes(8, "big")
            ).digest()
            self._counter += 1
            self._buf |= int.from_bytes(block, "little") << self._buf_bits
            self._buf_bits += 256
        out = self._buf & ((1 << k) - 1)
        self._buf >>= k
        self._buf_bits -= k
        return out

    def bitvec(self, k: int) -> BitVec:
        return BitVec(k, self.bits(k))

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        k = (n - 1).bit_length()
        while True:
            r = self.bits(k)
            if r < n:
                return r
