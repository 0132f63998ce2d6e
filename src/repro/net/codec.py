"""Deterministic wire codec generated from the committed wire schema.

The wire catalogue of ``python -m repro check`` proves every value
crossing the ``Transport`` seam is built from primitives, containers of
primitives, and the registered message dataclasses, and pins that
surface in ``wire_schema.json``.  This module *cashes* the certificate:
a length-prefixed binary encoding closed over exactly the schema's type
grammar — anything the analyzer certified encodes, anything else raises.

Determinism is part of the contract: sets are serialized in sorted
element order and dict items in sorted key order, so the same value
always yields the same bytes regardless of hash seed or insertion
history.  Message dataclasses get their type tag from the schema's
sorted name order and their fields in schema field order; at
construction the registry is verified against the live dataclass
definitions, so a drifted schema fails loudly at import time rather
than corrupting payloads.

One pass, one table: :meth:`WireCodec.encode` writes into one
``bytearray`` through a table of encoders keyed by *exact* type (an
``isinstance`` chain serves subclasses), and only dict keys and set
elements are encoded on their own, because their order is the sort of
their encodings.  :meth:`WireCodec.decode` dispatches on the tag byte
through a 256-entry table and raises nothing but :class:`CodecError`
on malformed bytes.  The tables for the committed schema are built once
per process and shared by every ``WireCodec()``.

Frame format (used by :mod:`repro.net.asyncio_transport`): a 4-byte
big-endian payload length followed by one encoded value;
:meth:`WireCodec.encode_frame` writes it and :func:`take_frame` reads
it back out of a receive buffer, refusing prefixes above
:data:`MAX_FRAME_BYTES`.
"""

from __future__ import annotations

import importlib
import json
import struct
from dataclasses import fields, is_dataclass
from functools import lru_cache
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

__all__ = [
    "CodecError", "MAX_FRAME_BYTES", "WireCodec", "load_wire_schema",
    "SCHEMA_PATH", "take_frame",
]

#: The golden schema committed next to this module by
#: ``repro check --write-schema``.
SCHEMA_PATH = Path(__file__).resolve().parent / "wire_schema.json"

_SCHEMA_VERSION = 2

#: Largest payload a frame's length prefix may announce: the receiver
#: refuses a bigger one instead of buffering up to 4 GiB on a peer's
#: say-so.  A constant of the format, not an option.
MAX_FRAME_BYTES = 64 * 1024 * 1024

# One-byte type tags.  Order is part of the wire format; never reuse.
_T_NONE = b"N"
_T_TRUE = b"T"
_T_FALSE = b"F"
_T_INT = b"i"
_T_FLOAT = b"f"
_T_STR = b"s"
_T_BYTES = b"b"
_T_LIST = b"l"
_T_TUPLE = b"t"
_T_SET = b"e"
_T_FROZENSET = b"z"
_T_DICT = b"d"
_T_MESSAGE = b"m"

_LEN = struct.Struct(">I")
_F64 = struct.Struct(">d")
#: A tag and its 4-byte length (or message index) in one pack.
_HEAD = struct.Struct(">cI")

_first = itemgetter(0)


class CodecError(ValueError):
    """A value outside the certified wire grammar, or corrupt bytes."""


def _truncated(blob: bytes) -> CodecError:
    return CodecError(f"corrupt wire bytes at offset {len(blob)}: value cut short")


def _corrupt(offset: int, exc: Exception) -> CodecError:
    return CodecError(f"corrupt wire bytes at offset {offset}: {exc}")


def take_frame(buf: bytearray) -> Optional[bytes]:
    """Pop one complete frame's payload off the front of ``buf``.

    Returns ``None`` (and leaves ``buf`` alone) while the frame is still
    incomplete, however the bytes were chunked on the way in; raises
    :class:`CodecError` as soon as the prefix announces more than
    :data:`MAX_FRAME_BYTES`.
    """
    if len(buf) < _LEN.size:
        return None
    (length,) = _LEN.unpack_from(buf)
    if length > MAX_FRAME_BYTES:
        raise CodecError(f"frame announces {length} bytes (limit {MAX_FRAME_BYTES})")
    end = _LEN.size + length
    if len(buf) < end:
        return None
    payload = bytes(buf[_LEN.size:end])
    del buf[:end]
    return payload


def load_wire_schema(path: Path = SCHEMA_PATH) -> dict:
    """The committed wire schema; raises :class:`CodecError` if unusable."""
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise CodecError(f"no wire schema at {path}: {exc}") from None
    except ValueError as exc:
        raise CodecError(f"cannot parse wire schema {path}: {exc}") from None
    if not isinstance(payload, dict) or payload.get("version") != _SCHEMA_VERSION:
        raise CodecError(f"{path} is not a version-{_SCHEMA_VERSION} wire schema")
    return payload


def _registry(schema: dict) -> Tuple[List[Type], List[Tuple[str, ...]]]:
    """Message classes in tag order and their pinned field names,
    checked against the live dataclass definitions."""
    types: List[Type] = []
    pinned_fields: List[Tuple[str, ...]] = []
    for name in sorted(schema.get("messages", {})):
        entry = schema["messages"][name]
        module = importlib.import_module(entry["module"])
        cls = getattr(module, name)
        pinned = tuple(f["name"] for f in entry["fields"])
        if not is_dataclass(cls):
            raise CodecError(f"wire schema message {name} is not a dataclass")
        live = tuple(f.name for f in fields(cls))
        if live != pinned:
            raise CodecError(
                f"wire schema drift: {name} fields {live} != pinned {pinned};"
                " re-run python -m repro check --write-schema"
            )
        types.append(cls)
        pinned_fields.append(pinned)
    return types, pinned_fields


class _Tables:
    """The encode table (exact type -> encoder) and the decode table
    (tag byte -> decoder) of one message registry."""

    def __init__(self, types: List[Type], pinned_fields: List[Tuple[str, ...]]):
        self.types = types
        self.fields = pinned_fields
        self.put = self._encoders()
        self.decoders = self._decoders()

    # ---------------------------------------------------------------- encode

    def _encoders(self):
        head = _HEAD.pack
        enc: Dict[type, Callable[[Any, bytearray], None]] = {}
        get = enc.get

        def fallback(value):
            """The encoder of a subclass (or a CodecError): bool before
            int, and int or tuple subclasses encode as their base."""
            for base in (bool, int, float, str, bytes, list, tuple, frozenset, set, dict):
                if isinstance(value, base):
                    return enc[base]
            raise CodecError(
                f"value of type {type(value).__name__!r} is outside the "
                "certified wire grammar (not a primitive, container, or "
                "registered message dataclass)"
            )

        def put(value, out: bytearray) -> None:
            (get(type(value)) or fallback(value))(value, out)

        def one(value) -> bytearray:
            """One value encoded on its own (a dict key, a set element)."""
            out = bytearray()
            (get(type(value)) or fallback(value))(value, out)
            return out

        def enc_none(value, out):
            out += _T_NONE

        def enc_bool(value, out):
            out += _T_TRUE if value else _T_FALSE

        def enc_int(value, out):
            blob = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
            out += head(_T_INT, len(blob))
            out += blob

        def enc_float(value, out):
            out += _T_FLOAT
            out += _F64.pack(value)

        def enc_str(value, out):
            blob = value.encode("utf-8")
            out += head(_T_STR, len(blob))
            out += blob

        def enc_bytes(value, out):
            out += head(_T_BYTES, len(value))
            out += value

        def sequence(tag):
            def enc_seq(value, out):
                out += head(tag, len(value))
                for item in value:
                    (get(type(item)) or fallback(item))(item, out)
            return enc_seq

        def unordered(tag):
            def enc_set(value, out):
                # Sorted by encoded bytes: deterministic for any element mix.
                items = sorted([one(item) for item in value])
                out += head(tag, len(items))
                for item in items:
                    out += item
            return enc_set

        def enc_dict(value, out):
            out += head(_T_DICT, len(value))
            mark = len(out)
            items = sorted([(one(k), v) for k, v in value.items()], key=_first)
            prev = None
            for key, v in items:
                if key == prev:
                    # Two keys encode alike (two NaNs): order all items
                    # by (key, value) encodings instead.
                    del out[mark:]
                    for pair in sorted([(k, one(v)) for k, v in items]):
                        out += pair[0]
                        out += pair[1]
                    return
                out += key
                (get(type(v)) or fallback(v))(v, out)
                prev = key

        def message(tag, names):
            prefix = head(_T_MESSAGE, tag)

            def enc_message(value, out):
                out += prefix
                for name in names:
                    v = getattr(value, name)
                    (get(type(v)) or fallback(v))(v, out)
            return enc_message

        enc.update({
            type(None): enc_none, bool: enc_bool, int: enc_int,
            float: enc_float, str: enc_str, bytes: enc_bytes,
            list: sequence(_T_LIST), tuple: sequence(_T_TUPLE),
            set: unordered(_T_SET), frozenset: unordered(_T_FROZENSET),
            dict: enc_dict,
        })
        for tag, (cls, names) in enumerate(zip(self.types, self.fields)):
            enc[cls] = message(tag, names)
        return put

    # ---------------------------------------------------------------- decode

    def _decoders(self) -> List[Callable[[bytes, int], Tuple[Any, int]]]:
        """Each decoder takes the blob and the offset just past its tag,
        and returns the value and the offset just past it."""
        unpack_len = _LEN.unpack_from
        unpack_f64 = _F64.unpack_from
        types = self.types
        arity = [len(names) for names in self.fields]

        def length(blob, offset):
            try:
                return unpack_len(blob, offset)[0]
            except struct.error as exc:
                raise _corrupt(offset, exc) from None

        def items(blob, offset, n):
            out = []
            for _ in range(n):
                try:
                    decoder = dec[blob[offset]]
                except IndexError:  # the blob stops inside a value
                    raise _truncated(blob) from None
                item, offset = decoder(blob, offset + 1)
                out.append(item)
            return out, offset

        def container(kind):
            # items' loop, inlined: one nesting level costs one
            # interpreter frame, as in the encoder.
            def dec_container(blob, offset):
                n = length(blob, offset)
                offset += 4
                out = []
                for _ in range(n):
                    try:
                        decoder = dec[blob[offset]]
                    except IndexError:
                        raise _truncated(blob) from None
                    item, offset = decoder(blob, offset + 1)
                    out.append(item)
                return (out if kind is list else kind(out)), offset
            return dec_container

        def unknown(blob, offset):
            raise CodecError(f"unknown wire tag {blob[offset - 1:offset]!r} at offset {offset - 1}")

        def dec_int(blob, offset):
            n = length(blob, offset)
            offset += 4
            return int.from_bytes(blob[offset:offset + n], "big", signed=True), offset + n

        def dec_float(blob, offset):
            try:
                return unpack_f64(blob, offset)[0], offset + 8
            except struct.error as exc:
                raise _corrupt(offset, exc) from None

        def dec_str(blob, offset):
            n = length(blob, offset)
            offset += 4
            try:
                return blob[offset:offset + n].decode("utf-8"), offset + n
            except UnicodeDecodeError as exc:
                raise _corrupt(offset, exc) from None

        def dec_bytes(blob, offset):
            n = length(blob, offset)
            offset += 4
            return bytes(blob[offset:offset + n]), offset + n

        def dec_dict(blob, offset):
            n = length(blob, offset)
            offset += 4
            out = {}
            for _ in range(n):
                try:
                    decoder = dec[blob[offset]]
                except IndexError:
                    raise _truncated(blob) from None
                key, offset = decoder(blob, offset + 1)
                try:
                    decoder = dec[blob[offset]]
                except IndexError:
                    raise _truncated(blob) from None
                out[key], offset = decoder(blob, offset + 1)
            return out, offset

        def dec_message(blob, offset):
            idx = length(blob, offset)
            offset += 4
            try:
                cls = types[idx]
            except IndexError as exc:
                raise _corrupt(offset, exc) from None
            values, offset = items(blob, offset, arity[idx])
            return cls(*values), offset

        dec = [unknown] * 256
        for tag, decoder in (
            (_T_NONE, lambda blob, offset: (None, offset)),
            (_T_TRUE, lambda blob, offset: (True, offset)),
            (_T_FALSE, lambda blob, offset: (False, offset)),
            (_T_INT, dec_int), (_T_FLOAT, dec_float), (_T_STR, dec_str),
            (_T_BYTES, dec_bytes), (_T_LIST, container(list)),
            (_T_TUPLE, container(tuple)), (_T_SET, container(set)),
            (_T_FROZENSET, container(frozenset)), (_T_DICT, dec_dict),
            (_T_MESSAGE, dec_message),
        ):
            dec[tag[0]] = decoder
        return dec


@lru_cache(maxsize=None)
def _committed_tables() -> _Tables:
    """The tables of the committed schema, built once per process."""
    return _Tables(*_registry(load_wire_schema()))


class WireCodec:
    """Encoder/decoder for the certified wire grammar.

    The message-type registry is built from the schema: tag index =
    position in sorted message-name order.  Construction validates each
    registered dataclass against the schema's pinned field list — name
    and order — so the codec can never serialize a shape the analyzer
    did not certify.  ``WireCodec()`` reuses the committed schema's
    tables; an explicit ``schema`` is validated and gets its own.
    """

    def __init__(self, schema: dict = None):
        tables = _committed_tables() if schema is None else _Tables(*_registry(schema))
        self._put = tables.put
        self._decoders = tables.decoders

    def encode(self, value: Any) -> bytes:
        out = bytearray()
        self._put(value, out)
        return bytes(out)

    def decode(self, blob: bytes) -> Any:
        try:
            try:
                decoder = self._decoders[blob[0]]
            except IndexError:
                raise _truncated(blob) from None
            value, offset = decoder(blob, 1)
        except (TypeError, RecursionError) as exc:
            # A set or dict key holding a list, or nesting past the
            # interpreter's stack: malformed bytes all the same.
            raise CodecError(f"corrupt wire bytes: {type(exc).__name__}: {exc}") from None
        if offset != len(blob):
            if offset > len(blob):  # a length prefix reached past the end
                raise _truncated(blob)
            raise CodecError(f"{len(blob) - offset} trailing bytes after value")
        return value

    def encode_frame(self, value: Any) -> bytes:
        """One stream frame: 4-byte big-endian length + encoded value."""
        out = bytearray(_LEN.size)
        self._put(value, out)
        _LEN.pack_into(out, 0, len(out) - _LEN.size)
        return bytes(out)
