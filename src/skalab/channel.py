"""The public transcript: every record the parties broadcast, all of which
the eavesdropper sees.

Every protocol sends in one round, so ``protocols.SessionDriver`` builds a
session's transcript from its round-1 records directly: the plan's seed
records, each fingerprint right after the seed its hash is cut from.  The
plan counts the bits they broadcast (``SessionPlan.comm_bits``).  A record
is a checked named tuple, as its ``gf2.BitVec`` payload, and a transcript
is the tuple of its records, so an audit's tables keyed by transcripts
hash in C.
"""

from __future__ import annotations

from collections import namedtuple

from .gf2 import BitVec


class TranscriptRecord(namedtuple("TranscriptRecord", "round sender kind payload")):
    __slots__ = ()

    def __new__(cls, round: int, sender: int, kind: str, payload: BitVec) -> "TranscriptRecord":
        if "," in kind or "".join(kind.splitlines()) != kind:  # a dump read back splits at commas and line breaks
            raise ValueError(f"record kind {kind!r} holds a comma or a line break")
        return tuple.__new__(cls, (round, sender, kind, payload))

    _make = classmethod(lambda cls, fields: cls(*fields))  # through __new__, as `BitVec._make`

    def dump(self) -> str:
        return f"{self.round},{self.sender},{self.kind},{self.payload.to_hex()}"


class Transcript(tuple):
    __slots__ = ()

    def one(self, kind: str, sender: int) -> TranscriptRecord:
        matches = [r for r in self if r.kind == kind and r.sender == sender]
        if len(matches) != 1:
            raise LookupError(f"expected one {kind!r} record, found {len(matches)}")
        return matches[0]

    def dump(self) -> str:
        return "".join(r.dump() + "\n" for r in self)
