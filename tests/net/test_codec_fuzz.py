"""Malformed bytes make ``WireCodec.decode`` raise ``CodecError``, nothing else.

A frame off a socket or a WAL record with a valid CRC can still hold
bytes that no encoder wrote.  Callers count a ``CodecError`` as an
undelivered RPC or a torn log; any other exception would escape them.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.net.codec import CodecError, WireCodec

from .test_codec_oracle import wire_values

CODEC = WireCodec()

#: A set holding a list, and a dict whose key is a list: both well
#: framed, both unhashable once decoded.
SET_OF_LIST = b"e\x00\x00\x00\x01l\x00\x00\x00\x00"
DICT_KEYED_BY_LIST = b"d\x00\x00\x00\x01l\x00\x00\x00\x00N"


def decodes_or_refuses(blob: bytes) -> None:
    try:
        CODEC.decode(blob)
    except CodecError:
        pass


class TestOnlyCodecError:
    @pytest.mark.parametrize("blob", [SET_OF_LIST, DICT_KEYED_BY_LIST])
    def test_unhashable_element_is_a_codec_error(self, blob):
        with pytest.raises(CodecError, match="unhashable"):
            CODEC.decode(blob)

    def test_nesting_past_the_stack_is_a_codec_error(self):
        blob = b"l\x00\x00\x00\x01" * 5000 + b"N"
        with pytest.raises(CodecError, match="RecursionError"):
            CODEC.decode(blob)

    @settings(max_examples=500, deadline=None)
    @given(st.binary(max_size=256))
    def test_random_bytes(self, blob):
        decodes_or_refuses(blob)

    @settings(max_examples=200, deadline=None)
    @given(wire_values, st.data())
    def test_truncated_and_flipped_frames(self, value, data):
        blob = CODEC.encode(value)
        cut = data.draw(st.integers(0, len(blob)))
        decodes_or_refuses(blob[:cut])
        at = data.draw(st.integers(0, len(blob) - 1))
        flipped = bytearray(blob)
        flipped[at] = data.draw(st.integers(0, 255))
        decodes_or_refuses(bytes(flipped))
