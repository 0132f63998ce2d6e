"""The one-pass codec against the recursive one it replaced.

``ReferenceCodec`` (``reference_codec.py``) is the previous
``WireCodec`` body.  Over the whole wire grammar the two must agree
byte for byte on ``encode`` and ``encode_frame``, decode every blob to
equal values of equal types, and fail every truncation with the same
:class:`CodecError` message; and every frame and WAL record a TCP
workload writes must encode as the reference would have written it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import fields, is_dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.codec import CodecError, WireCodec
from repro.net.differential import build_cluster, graceful_shutdown, run_workload
from repro.store.recovery import OPS

from .reference_codec import ReferenceCodec

NEW = WireCodec()
REF = ReferenceCodec()

ints = st.one_of(
    st.integers(),
    st.integers(min_value=-(2**300), max_value=2**300),
    st.sampled_from([0, -1, 127, 128, -128, -129, 255, 256, 2**127, -(2**128)]),
)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, -0.0, 0.0, math.inf, -math.inf]),
)
scalars = st.one_of(
    st.none(), st.booleans(), ints, floats, st.text(), st.binary(),
)
hashables = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.tuples(inner, inner), st.frozensets(inner, max_size=3),
    ),
    max_leaves=6,
)


def messages(children):
    """Every registered message class, its fields drawn from ``children``."""
    return st.one_of([
        st.tuples(*[children] * len(names)).map(lambda values, cls=cls: cls(*values))
        for cls, names in zip(REF._types, REF._fields)
    ])


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.sets(hashables, max_size=4),
        st.frozensets(hashables, max_size=4),
        st.dictionaries(hashables, children, max_size=4),
    )


values = st.recursive(
    st.one_of(scalars, hashables),
    lambda inner: st.one_of(containers(inner), messages(inner)),
    max_leaves=24,
)
# Registered messages nested three deep, through containers.
one_deep = messages(scalars)
two_deep = messages(st.one_of(scalars, one_deep, st.lists(one_deep, max_size=2)))
three_deep = messages(
    st.one_of(scalars, two_deep, st.dictionaries(st.text(), two_deep, max_size=2))
)
wire_values = st.one_of(values, three_deep)


def same(a, b) -> bool:
    """Equal values of equal types, all the way down (NaN and -0.0 by bits)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack(">d", a) == struct.pack(">d", b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, (set, frozenset)):
        return len(a) == len(b) and same(sorted(a, key=REF.encode), sorted(b, key=REF.encode))
    if isinstance(a, dict):
        def order(d):
            return sorted(d.items(), key=lambda kv: (REF.encode(kv[0]), REF.encode(kv[1])))
        return len(a) == len(b) and same(order(a), order(b))
    if is_dataclass(a):
        return same(
            tuple(getattr(a, f.name) for f in fields(a)),
            tuple(getattr(b, f.name) for f in fields(b)),
        )
    return a == b


def outcome(codec, blob):
    """("ok", value) or ("error", message) of one decode."""
    try:
        return "ok", codec.decode(blob)
    except CodecError as exc:
        return "error", str(exc)


class TestByteIdentity:
    @settings(max_examples=200, deadline=None)
    @given(wire_values)
    def test_encode_and_frame_are_byte_equal(self, value):
        assert NEW.encode(value) == REF.encode(value)
        assert NEW.encode_frame(value) == REF.encode_frame(value)

    @settings(max_examples=200, deadline=None)
    @given(wire_values)
    def test_decode_gives_equal_values_of_equal_types(self, value):
        blob = REF.encode(value)
        decoded = NEW.decode(blob)
        assert same(decoded, REF.decode(blob))
        assert same(decoded, value)

    @settings(max_examples=60, deadline=None)
    @given(wire_values)
    def test_every_truncation_fails_alike(self, value):
        blob = REF.encode(value)
        for cut in range(len(blob)):
            new, ref = outcome(NEW, blob[:cut]), outcome(REF, blob[:cut])
            assert new[0] == ref[0] == "error"
            assert new[1] == ref[1]

    def test_keys_that_encode_alike_fall_back_to_value_order(self):
        # Two NaN keys are two dict entries with one encoding.
        first, second = float("nan"), float("nan")
        for value in ({first: "b", second: "a"}, {second: "a", first: "b"},
                      {first: 2, second: [1], 0: None}):
            assert NEW.encode(value) == REF.encode(value)

    def test_subclasses_encode_as_their_base(self):
        from collections import OrderedDict, namedtuple
        from enum import IntEnum

        Pair = namedtuple("Pair", "a b")
        Colour = IntEnum("Colour", "RED GREEN")
        for value in (Pair(1, "x"), Colour.GREEN, OrderedDict(b=1, a=2),
                      [Pair(Colour.RED, b"")], {Colour.RED: Pair(None, 1.5)}):
            assert NEW.encode(value) == REF.encode(value)

    @pytest.mark.parametrize("value", [object(), [1, object()], {"k": len}])
    def test_values_outside_the_grammar_fail_alike(self, value):
        with pytest.raises(CodecError) as new:
            NEW.encode(value)
        with pytest.raises(CodecError) as ref:
            REF.encode(value)
        assert str(new.value) == str(ref.value)


class TestTcpWorkloadEncodesAlike:
    def test_every_frame_and_wal_record_is_byte_equal(self, tmp_path, monkeypatch):
        encode, encode_frame = WireCodec.encode, WireCodec.encode_frame
        seen = {"encode": 0, "encode_frame": 0, "wal": 0}
        mismatched = []

        def checked_encode(self, value):
            blob = encode(self, value)
            wal = isinstance(value, list) and len(value) > 1 and value[1] in OPS
            seen["wal" if wal else "encode"] += 1
            if blob != REF.encode(value):
                mismatched.append(value)
            return blob

        def checked_encode_frame(self, value):
            blob = encode_frame(self, value)
            seen["encode_frame"] += 1
            if blob != REF.encode_frame(value):
                mismatched.append(value)
            return blob

        monkeypatch.setattr(WireCodec, "encode", checked_encode)
        monkeypatch.setattr(WireCodec, "encode_frame", checked_encode_frame)
        net, transport = build_cluster(8, seed=1201, engine="asyncio", data_dir=tmp_path)
        try:
            run_workload(net, n_files=16, seed=1201)
        finally:
            graceful_shutdown(transport, net)
        assert mismatched == []
        # Socket frames, loopback round trips and WAL records all seen.
        assert min(seen.values()) > 20, seen
