"""The public transcript: every record the parties broadcast, all of which
the eavesdropper sees.

Every protocol sends in one round, so ``protocols.SessionDriver`` builds a
session's transcript from its round-1 records directly.  The driver also
keeps the communication accounting, fixed by its plan and seeds:
fingerprints are reconciliation payload, and hash specs and seeds are
public overhead counted in the total.  A record is a checked named tuple,
as its ``gf2.BitVec`` payload, so an audit's tables keyed by
``tuple(transcript.records)`` hash in C.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

from .gf2 import BitVec


class TranscriptRecord(namedtuple("TranscriptRecord", "round sender kind payload")):
    __slots__ = ()

    def __new__(cls, round: int, sender: int, kind: str, payload: BitVec) -> "TranscriptRecord":
        if "," in kind or "".join(kind.splitlines()) != kind:  # `parse` splits at commas and line breaks
            raise ValueError(f"record kind {kind!r} holds a comma or a line break")
        return tuple.__new__(cls, (round, sender, kind, payload))

    _make = classmethod(lambda cls, fields: cls(*fields))  # through __new__, as `BitVec._make`

    def dump(self) -> str:
        return f"{self.round},{self.sender},{self.kind},{self.payload.to_hex()}"

    @staticmethod
    def parse(line: str) -> "TranscriptRecord":
        """The record whose `dump` is line, and only that line: int() alone
        would also take "+1", "1_0", spaces and other scripts' digits."""
        rnd, sender, kind, payload = line.split(",", 3)
        record = TranscriptRecord(int(rnd), int(sender), kind, BitVec.from_hex(payload))
        if record.dump() != line:
            raise ValueError(f"{line!r} is not a dumped transcript record")
        return record


@dataclass
class Transcript:
    records: list = field(default_factory=list)

    def one(self, kind: str, sender: int) -> TranscriptRecord:
        matches = [r for r in self.records if r.kind == kind and r.sender == sender]
        if len(matches) != 1:
            raise LookupError(f"expected one {kind!r} record, found {len(matches)}")
        return matches[0]

    def dump(self) -> str:
        return "\n".join(r.dump() for r in self.records) + ("\n" if self.records else "")

    @staticmethod
    def parse(text: str) -> "Transcript":
        """The transcript whose `dump` is text, and only that text."""
        out = Transcript([TranscriptRecord.parse(line) for line in text.splitlines()])
        if out.dump() != text:
            raise ValueError("not a dumped transcript: blank lines, other line ends or no final newline")
        return out
