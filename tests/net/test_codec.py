"""Tests for the schema-generated wire codec.

The codec is the cashed form of the wire analyzer's certificate: it must
round-trip everything inside the certified grammar, reject everything
outside it, and produce byte-identical encodings regardless of hash seed
or container insertion history.
"""

from __future__ import annotations

import struct

import pytest

from repro.core.messages import InsertRequest, LookupRequest
from repro.net.codec import (
    MAX_FRAME_BYTES,
    SCHEMA_PATH,
    CodecError,
    WireCodec,
    load_wire_schema,
    take_frame,
)
from repro.security.certificates import FileCertificate, StoreReceipt


@pytest.fixture(scope="module")
def codec():
    return WireCodec()


def roundtrip(codec, value):
    blob = codec.encode(value)
    assert isinstance(blob, bytes)
    return codec.decode(blob)


def make_certificate(fid=0x1234, size=4096):
    return FileCertificate(
        file_id=fid,
        content_hash=b"\x00" * 32,
        size=size,
        k=3,
        salt=77,
        creation_date=12,
        owner_public=b"owner-pub",
        signature=b"sig",
    )


class TestPrimitives:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            1,
            -1,
            255,
            -256,
            2**130 + 17,  # PAST node/file ids exceed machine words
            -(2**100),
            0.0,
            -1.5,
            3.141592653589793,
            "",
            "hello",
            "unicode ☃ snowman",
            b"",
            b"\x00\xff" * 7,
        ],
    )
    def test_roundtrip(self, codec, value):
        out = roundtrip(codec, value)
        assert out == value
        assert type(out) is type(value)

    def test_bool_is_not_collapsed_to_int(self, codec):
        # bool is an int subclass; the codec must preserve the distinction.
        assert roundtrip(codec, True) is True
        assert roundtrip(codec, 1) == 1
        assert type(roundtrip(codec, 1)) is int


class TestContainers:
    def test_nested_containers(self, codec):
        value = {
            "ids": [1, 2, 3],
            "pair": (4, "five"),
            "seen": {6, 7},
            "frozen": frozenset({8}),
            "deep": {"inner": [(None, True), (2**80, b"x")]},
        }
        assert roundtrip(codec, value) == value

    def test_tuple_and_list_stay_distinct(self, codec):
        assert roundtrip(codec, (1, 2)) == (1, 2)
        assert roundtrip(codec, [1, 2]) == [1, 2]
        assert type(roundtrip(codec, (1, 2))) is tuple
        assert type(roundtrip(codec, [1, 2])) is list

    def test_set_and_frozenset_stay_distinct(self, codec):
        assert type(roundtrip(codec, {1})) is set
        assert type(roundtrip(codec, frozenset({1}))) is frozenset

    def test_set_encoding_is_insertion_order_independent(self, codec):
        a = set()
        for item in range(100):
            a.add(item)
        b = set()
        for item in reversed(range(100)):
            b.add(item)
        assert codec.encode(a) == codec.encode(b)

    def test_dict_encoding_is_insertion_order_independent(self, codec):
        a = {f"k{i}": i for i in range(50)}
        b = {f"k{i}": i for i in reversed(range(50))}
        assert codec.encode(a) == codec.encode(b)
        assert roundtrip(codec, a) == a


class TestMessages:
    def test_frozen_certificate_roundtrip(self, codec):
        cert = make_certificate()
        assert roundtrip(codec, cert) == cert

    def test_request_with_nested_messages_roundtrip(self, codec):
        cert = make_certificate(fid=0xBEEF)
        request = InsertRequest(
            certificate=cert,
            client_id=42,
            content=b"payload" * 10,
            coordinator_id=7,
            receipts=[
                StoreReceipt(
                    file_id=0xBEEF, node_id=9, diverted=False,
                    node_public=b"np", signature=b"s",
                )
            ],
            accepted=True,
            failure_reason=None,
            replica_diversions=1,
        )
        out = roundtrip(codec, request)
        assert out == request
        assert out.certificate == cert
        assert out.receipts[0].node_id == 9

    def test_lookup_request_roundtrip(self, codec):
        request = LookupRequest(file_id=5, client_id=6, source="cache")
        assert roundtrip(codec, request) == request


class TestRejections:
    def test_unregistered_object_raises(self, codec):
        class NotAMessage:
            pass

        with pytest.raises(CodecError, match="outside the certified wire grammar"):
            codec.encode(NotAMessage())

    def test_unregistered_value_nested_in_container_raises(self, codec):
        with pytest.raises(CodecError):
            codec.encode([1, 2, object()])

    def test_callable_raises(self, codec):
        with pytest.raises(CodecError):
            codec.encode(len)

    def test_truncated_float_raises(self, codec):
        blob = codec.encode(1.5)
        with pytest.raises(CodecError, match="corrupt wire bytes"):
            codec.decode(blob[:-3])

    def test_truncated_string_raises(self, codec):
        blob = codec.encode("hello world")
        with pytest.raises(CodecError):
            codec.decode(blob[:-3])

    @pytest.mark.parametrize("value", ["hello world", 2**130 + 17, b"\x00\xff" * 7])
    def test_value_cut_short_is_reported_where_the_blob_ends(self, codec, value):
        blob = codec.encode(value)
        with pytest.raises(CodecError, match=f"corrupt wire bytes at offset {len(blob) - 3}:"):
            codec.decode(blob[:-3])

    def test_length_prefix_past_the_end_raises(self, codec):
        # The first element announces more bytes than the blob has left,
        # so the second is looked for beyond the end.
        blob = bytearray(codec.encode(["abc", 1]))
        blob[9] = 200
        with pytest.raises(CodecError, match=f"corrupt wire bytes at offset {len(blob)}:"):
            codec.decode(bytes(blob))

    def test_container_announcing_more_items_than_it_has_raises(self, codec):
        blob = bytearray(codec.encode([1, 2]))
        blob[4] = 5
        with pytest.raises(CodecError, match=f"corrupt wire bytes at offset {len(blob)}:"):
            codec.decode(bytes(blob))

    def test_empty_blob_raises(self, codec):
        with pytest.raises(CodecError, match="corrupt wire bytes at offset 0:"):
            codec.decode(b"")

    def test_unknown_tag_raises(self, codec):
        with pytest.raises(CodecError, match="unknown wire tag"):
            codec.decode(b"Q")

    def test_trailing_bytes_raise(self, codec):
        blob = codec.encode(1) + b"junk"
        with pytest.raises(CodecError, match="trailing bytes"):
            codec.decode(blob)


class TestSchemaBinding:
    def test_committed_schema_loads(self):
        schema = load_wire_schema()
        assert schema["version"] == 2
        assert "messages" in schema and schema["messages"]

    def test_missing_schema_raises(self, tmp_path):
        with pytest.raises(CodecError, match="no wire schema"):
            load_wire_schema(tmp_path / "absent.json")

    def test_drifted_schema_fails_at_construction(self):
        """A schema whose pinned fields disagree with the live dataclass
        must fail loudly at codec construction, not corrupt payloads."""
        schema = load_wire_schema(SCHEMA_PATH)
        name = sorted(schema["messages"])[0]
        schema["messages"][name]["fields"].append(
            {"name": "phantom_field", "type": "int"}
        )
        with pytest.raises(CodecError, match="wire schema drift"):
            WireCodec(schema)


class TestFrames:
    def test_frame_is_length_prefixed_payload(self, codec):
        value = {"op": "lookup", "fid": 2**70}
        frame = codec.encode_frame(value)
        (length,) = struct.unpack(">I", frame[:4])
        payload = frame[4:]
        assert length == len(payload)
        assert codec.decode(payload) == value

    def test_take_frame_reassembles_any_chunking(self, codec):
        values = [{"op": "ping"}, ["second", 2**70], b"\x00" * 300]
        stream = b"".join(codec.encode_frame(v) for v in values)
        for step in (1, 3, 7, len(stream)):
            buf, seen = bytearray(), []
            for i in range(0, len(stream), step):
                buf += stream[i:i + step]
                while True:
                    payload = take_frame(buf)
                    if payload is None:
                        break
                    seen.append(codec.decode(payload))
            assert seen == values and not buf

    def test_take_frame_leaves_an_incomplete_frame_alone(self, codec):
        frame = codec.encode_frame("half")
        for cut in (0, 2, 4, len(frame) - 1):
            buf = bytearray(frame[:cut])
            assert take_frame(buf) is None
            assert buf == frame[:cut]

    def test_take_frame_refuses_an_oversize_prefix(self):
        at_limit = bytearray(struct.pack(">I", MAX_FRAME_BYTES) + b"x")
        assert take_frame(at_limit) is None  # allowed, merely incomplete
        with pytest.raises(CodecError, match="limit"):
            take_frame(bytearray(struct.pack(">I", MAX_FRAME_BYTES + 1)))
