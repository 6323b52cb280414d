import pytest

from skalab.channel import Channel, ClosedChannelError, Transcript, TranscriptRecord
from skalab.gf2 import BitVec
from skalab.rng import SeedStream


def test_broadcast_order_and_accounting():
    ch = Channel()
    ch.next_round()
    ch.broadcast(1, "fingerprint", BitVec(4, 0b1010))
    ch.broadcast(2, "fingerprint", BitVec(6, 0))
    t = ch.close()
    assert [r.sender for r in t.records] == [1, 2]
    assert t.total_bits() == 10
    assert t.payload_bits() == 10


def test_empty_payload_zero_bits():
    ch = Channel()
    ch.next_round()
    ch.broadcast(1, "fingerprint", BitVec(0, 0))
    assert ch.close().total_bits() == 0


def test_payload_vs_overhead_kinds():
    ch = Channel()
    ch.next_round()
    ch.broadcast(1, "hash_spec", BitVec(7, 0))
    ch.broadcast(1, "fingerprint", BitVec(3, 0))
    ch.broadcast(1, "ext_seed", BitVec(5, 0))
    t = ch.close()
    assert t.payload_bits() == 3
    assert t.overhead_bits() == 12


def test_closed_channel_rejects_broadcast():
    ch = Channel()
    ch.close()
    with pytest.raises(ClosedChannelError):
        ch.broadcast(1, "fingerprint", BitVec(1, 0))


def test_delivered_copy_is_transcript_record():
    ch = Channel()
    ch.next_round()
    payload = SeedStream("c").bitvec(9)
    ch.broadcast(2, "fingerprint", payload)
    t = ch.close()
    rec = t.one("fingerprint", sender=2)
    assert rec.payload == payload and rec.round == 1


def test_transcript_dump_parse_roundtrip():
    ch = Channel()
    ch.next_round()
    ch.broadcast(1, "hash_spec", SeedStream("d1").bitvec(11))
    ch.broadcast(1, "fingerprint", SeedStream("d2").bitvec(5))
    t = ch.close()
    text = t.dump()
    assert text.splitlines()[0].startswith("1,1,hash_spec,")
    again = Transcript.parse(text)
    assert again.records == t.records


def test_transcript_one_lookup_errors():
    t = Transcript()
    with pytest.raises(LookupError):
        t.one("fingerprint")
    t.append(TranscriptRecord(1, 1, "fingerprint", BitVec(1, 0)))
    t.append(TranscriptRecord(1, 1, "fingerprint", BitVec(1, 1)))
    with pytest.raises(LookupError):
        t.one("fingerprint")
