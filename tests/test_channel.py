import copy
import pickle
from fractions import Fraction

import pytest

from skalab.channel import Transcript, TranscriptRecord
from skalab.gf2 import BitVec
from skalab.protocols import Margins, SessionConfig, run_session, session_plan
from skalab.rng import SeedStream
from skalab.sources import parse_model_spec


def test_broadcast_order_and_accounting():
    # A session's transcript is its seeds in slot order, each fingerprint
    # right after the seed it hashes with, all in round 1.
    margins = Margins(k_slack=0, phase1=2, deficiency=0, extractor_eps=Fraction(1, 2))
    config = SessionConfig(parse_model_spec("triple:n=4"), "omniscience", Fraction(1, 4), 3, margins)
    o = run_session(config, 0)
    t = o.transcript
    expected = []
    for sender, kind, _labels, bits in session_plan(config).seed_slots:
        expected.append((1, sender, kind, bits))
        if kind == "fp_spec":
            expected.append((1, sender, "fingerprint", None))
    assert [(r.round, r.sender, r.kind, None if r.kind == "fingerprint" else r.payload.n) for r in t.records] == expected
    assert o.comm_bits == sum(r.payload.n for r in t.records)
    assert o.payload_bits == sum(r.payload.n for r in t.records if r.kind == "fingerprint")


def test_delivered_copy_is_transcript_record():
    payload = SeedStream("c").bitvec(9)
    t = Transcript([TranscriptRecord(1, 2, "fingerprint", payload)])
    rec = t.one("fingerprint", sender=2)
    assert rec.payload == payload and rec.round == 1


def test_transcript_dump_parse_roundtrip():
    t = Transcript(
        [
            TranscriptRecord(1, 1, "hash_spec", SeedStream("d1").bitvec(11)),
            TranscriptRecord(1, 1, "fingerprint", SeedStream("d2").bitvec(5)),
        ]
    )
    text = t.dump()
    assert text.splitlines()[0].startswith("1,1,hash_spec,")
    again = Transcript.parse(text)
    assert again.records == t.records


def test_transcript_one_lookup_errors():
    t = Transcript()
    with pytest.raises(LookupError):
        t.one("fingerprint", 1)
    t = Transcript(
        [
            TranscriptRecord(1, 1, "fingerprint", BitVec(1, 0)),
            TranscriptRecord(1, 1, "fingerprint", BitVec(1, 1)),
        ]
    )
    with pytest.raises(LookupError):
        t.one("fingerprint", 1)


@pytest.mark.parametrize(
    "text",
    ["8:", "8:0000", "1_6:ffff", " 16:ffff", "+16:ffff", "16:ff ff", "٨:ff", "16:FFFF", "08:00", "16:ffff ", "-8:00"],
)
def test_hex_read_back_takes_only_what_to_hex_writes(text):
    # int() and bytes.fromhex would read each of these as a vector whose
    # to_hex is another text.
    with pytest.raises(ValueError):
        BitVec.from_hex(text)


@pytest.mark.parametrize(
    "line",
    ["+1,1,fingerprint,8:00", "1,٢,fingerprint,8:00", "1_0,1,fingerprint,8:00", " 1,1,fingerprint,8:00", "1,1,fingerprint,8:00\n", "1,1,fingerprint,8:"],
)
def test_record_read_back_takes_only_what_dump_writes(line):
    assert TranscriptRecord.parse("1,1,fingerprint,8:00").dump() == "1,1,fingerprint,8:00"
    with pytest.raises(ValueError):
        TranscriptRecord.parse(line)
    with pytest.raises(ValueError):
        Transcript.parse(line.rstrip("\n") + "\n\n")  # no dump writes a blank line


SESSION_SHAPES = [
    ("line-point:n=4", "light", None),
    ("hamming:n=15,t=1", "two_phase", None),
    ("triple:n=4", "omniscience", Margins(k_slack=0, phase1=2, deficiency=0, extractor_eps=Fraction(1, 2))),
]


@pytest.mark.parametrize("spec, protocol, margins", SESSION_SHAPES)
def test_every_record_kind_of_a_plan_reads_back(spec, protocol, margins):
    config = SessionConfig(parse_model_spec(spec), protocol, Fraction(1, 4), 5, margins)
    plan = session_plan(config)
    kinds = {kind for _sender, kind, _labels, _bits in plan.seed_slots} | {"fingerprint"}
    assert kinds == {r.kind for r in run_session(config, 0).transcript.records}
    for kind in sorted(kinds):
        for sender in range(1, config.model.parties + 1):
            record = TranscriptRecord(1, sender, kind, BitVec(12, 0xA5C))
            assert TranscriptRecord.parse(record.dump()) == record


@pytest.mark.parametrize("kind", ["a,b", ",", "fingerprint,", "a\nb", "a\r", "a\r\nb", "\x0b", "a\x85b", "a\u2028b"])
def test_record_kind_that_dump_cannot_write_back_is_rejected(kind):
    # dump would write "1,1,a,b,8:00", which parse splits at the wrong comma
    with pytest.raises(ValueError) as err:
        TranscriptRecord(1, 1, kind, BitVec(8, 0))
    assert str(err.value) == f"record kind {kind!r} holds a comma or a line break"
    with pytest.raises(ValueError, match="comma or a line break"):
        TranscriptRecord(1, 1, "fingerprint", BitVec(8, 0))._replace(kind=kind)  # _make runs the check too


def test_record_is_an_immutable_named_tuple():
    record = TranscriptRecord(1, 2, "fingerprint", BitVec(8, 3))
    assert repr(record) == "TranscriptRecord(round=1, sender=2, kind='fingerprint', payload=BitVec(n=8, v=3))"
    assert record == (1, 2, "fingerprint", (8, 3))
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.kind = "leak"
    for copied in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert copied == record and type(copied) is TranscriptRecord and type(copied.payload) is BitVec


@pytest.mark.parametrize("spec, protocol, margins", SESSION_SHAPES)
def test_session_transcript_reads_back_to_itself(spec, protocol, margins):
    t = run_session(SessionConfig(parse_model_spec(spec), protocol, Fraction(1, 4), 5, margins), 3).transcript
    assert len(t.records) >= 2
    assert Transcript.parse(t.dump()) == t
    with pytest.raises(ValueError):
        Transcript.parse(t.dump().rstrip("\n"))  # dump ends every record with a newline
