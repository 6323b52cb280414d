"""The reference reader of dumped transcripts: each function takes exactly
the text that its `dump` or `to_hex` writes and rejects any other, so a
round trip through it shows that the dump is injective and that a party's
key is recomputable from the stored bytes alone."""

from skalab.channel import Transcript, TranscriptRecord
from skalab.gf2 import BitVec, Gf2Error


def bitvec_from_hex(text: str) -> BitVec:
    """The vector whose `to_hex` is text, and only that text: int() and
    bytes.fromhex alone would also take "1_6", " 16", "+16", other
    scripts' digits, upper case, spaces and a wrong byte count."""
    length_s, _, hex_s = text.partition(":")
    n = int(length_s)
    if len(hex_s) != (n + 7) // 8 * 2:  # before to_hex, which writes n / 4 digits for any n
        raise Gf2Error(f"{text!r} does not hold {n} bits")
    out = BitVec(n, int.from_bytes(bytes.fromhex(hex_s), "little"))
    if out.to_hex() != text:
        raise Gf2Error(f"{text!r} is not the hex form of a bit vector")
    return out


def parse_record(line: str) -> TranscriptRecord:
    """The record whose `dump` is line, and only that line: int() alone
    would also take "+1", "1_0", spaces and other scripts' digits."""
    rnd, sender, kind, payload = line.split(",", 3)
    record = TranscriptRecord(int(rnd), int(sender), kind, bitvec_from_hex(payload))
    if record.dump() != line:
        raise ValueError(f"{line!r} is not a dumped transcript record")
    return record


def parse_transcript(text: str) -> Transcript:
    """The transcript whose `dump` is text, and only that text."""
    out = Transcript([parse_record(line) for line in text.splitlines()])
    if out.dump() != text:
        raise ValueError("not a dumped transcript: blank lines, other line ends or no final newline")
    return out
