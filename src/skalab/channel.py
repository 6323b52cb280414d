"""Simulated public broadcast channel with a recording eavesdropper tap.

The channel is the only conduit between parties: a protocol broadcasts
records onto it and every party (and the adversary) reads the same
append-only transcript.  Total payload bits are the communication
accounting; records tagged as hash specs or seeds are public overhead and
are reported separately from reconciliation payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .gf2 import BitVec

# Record kinds whose payloads count as protocol payload (reconciliation
# messages) versus public randomness/spec overhead.
PAYLOAD_KINDS = frozenset({"fingerprint"})


@dataclass(frozen=True)
class TranscriptRecord:
    round: int
    sender: int
    kind: str
    payload: BitVec

    def dump(self) -> str:
        return f"{self.round},{self.sender},{self.kind},{self.payload.to_hex()}"

    @staticmethod
    def parse(line: str) -> "TranscriptRecord":
        rnd, sender, kind, payload = line.strip().split(",", 3)
        return TranscriptRecord(int(rnd), int(sender), kind, BitVec.from_hex(payload))


@dataclass
class Transcript:
    records: list = field(default_factory=list)

    def append(self, record: TranscriptRecord) -> None:
        self.records.append(record)

    def total_bits(self) -> int:
        return sum(r.payload.n for r in self.records)

    def payload_bits(self) -> int:
        return sum(r.payload.n for r in self.records if r.kind in PAYLOAD_KINDS)

    def overhead_bits(self) -> int:
        return self.total_bits() - self.payload_bits()

    def find(self, kind: str, sender: int | None = None) -> list:
        return [
            r
            for r in self.records
            if r.kind == kind and (sender is None or r.sender == sender)
        ]

    def one(self, kind: str, sender: int | None = None) -> TranscriptRecord:
        matches = self.find(kind, sender)
        if len(matches) != 1:
            raise LookupError(f"expected one {kind!r} record, found {len(matches)}")
        return matches[0]

    def dump(self) -> str:
        return "\n".join(r.dump() for r in self.records) + ("\n" if self.records else "")

    @staticmethod
    def parse(text: str) -> "Transcript":
        t = Transcript()
        for line in text.splitlines():
            if line.strip():
                t.append(TranscriptRecord.parse(line))
        return t


class ClosedChannelError(RuntimeError):
    pass


class Channel:
    """Session-local broadcast channel; append-only while open."""

    def __init__(self) -> None:
        self.transcript = Transcript()
        self._round = 0
        self._open = True

    def next_round(self) -> None:
        self._round += 1

    def broadcast(self, sender: int, kind: str, payload: BitVec) -> None:
        if not self._open:
            raise ClosedChannelError("broadcast on a closed session")
        self.transcript.append(TranscriptRecord(self._round, sender, kind, payload))

    def close(self) -> Transcript:
        self._open = False
        return self.transcript
