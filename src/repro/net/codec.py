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
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Type

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


class CodecError(ValueError):
    """A value outside the certified wire grammar, or corrupt bytes."""


def _truncated(blob: bytes) -> CodecError:
    return CodecError(f"corrupt wire bytes at offset {len(blob)}: value cut short")


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


class WireCodec:
    """Encoder/decoder for the certified wire grammar.

    The message-type registry is built from the schema: tag index =
    position in sorted message-name order.  Construction validates each
    registered dataclass against the schema's pinned field list — name
    and order — so the codec can never serialize a shape the analyzer
    did not certify.
    """

    def __init__(self, schema: dict = None):
        if schema is None:
            schema = load_wire_schema()
        self._types: List[Type] = []
        self._fields: List[Tuple[str, ...]] = []
        self._index: Dict[Type, int] = {}
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
            self._index[cls] = len(self._types)
            self._types.append(cls)
            self._fields.append(pinned)

    # ---------------------------------------------------------------- encode

    def encode(self, value: Any) -> bytes:
        out = bytearray()
        self._encode(value, out)
        return bytes(out)

    def _encode(self, value: Any, out: bytearray) -> None:
        # bool before int: bool is an int subclass.
        if value is None:
            out += _T_NONE
        elif value is True:
            out += _T_TRUE
        elif value is False:
            out += _T_FALSE
        elif isinstance(value, int):
            blob = value.to_bytes((value.bit_length() + 8) // 8, "big", signed=True)
            out += _T_INT
            out += _LEN.pack(len(blob))
            out += blob
        elif isinstance(value, float):
            out += _T_FLOAT
            out += _F64.pack(value)
        elif isinstance(value, str):
            blob = value.encode("utf-8")
            out += _T_STR
            out += _LEN.pack(len(blob))
            out += blob
        elif isinstance(value, bytes):
            out += _T_BYTES
            out += _LEN.pack(len(value))
            out += value
        elif isinstance(value, list):
            self._encode_seq(_T_LIST, value, out)
        elif isinstance(value, tuple):
            self._encode_seq(_T_TUPLE, value, out)
        elif isinstance(value, (set, frozenset)):
            tag = _T_FROZENSET if isinstance(value, frozenset) else _T_SET
            # Sorted by encoded bytes: deterministic for any element mix.
            items = sorted(self.encode(item) for item in value)
            out += tag
            out += _LEN.pack(len(items))
            for item in items:
                out += item
        elif isinstance(value, dict):
            items = sorted(
                (self.encode(k), self.encode(v)) for k, v in value.items()
            )
            out += _T_DICT
            out += _LEN.pack(len(items))
            for k, v in items:
                out += k
                out += v
        elif type(value) in self._index:
            tag = self._index[type(value)]
            out += _T_MESSAGE
            out += _LEN.pack(tag)
            for fname in self._fields[tag]:
                self._encode(getattr(value, fname), out)
        else:
            raise CodecError(
                f"value of type {type(value).__name__!r} is outside the "
                "certified wire grammar (not a primitive, container, or "
                "registered message dataclass)"
            )

    def _encode_seq(self, tag: bytes, value, out: bytearray) -> None:
        out += tag
        out += _LEN.pack(len(value))
        for item in value:
            self._encode(item, out)

    # ---------------------------------------------------------------- decode

    def decode(self, blob: bytes) -> Any:
        value, offset = self._decode(blob, 0)
        if offset != len(blob):
            if offset > len(blob):  # a length prefix reached past the end
                raise _truncated(blob)
            raise CodecError(f"{len(blob) - offset} trailing bytes after value")
        return value

    def _decode(self, blob: bytes, offset: int) -> Tuple[Any, int]:
        try:
            tag = blob[offset:offset + 1]
            offset += 1
            if tag == _T_NONE:
                return None, offset
            if tag == _T_TRUE:
                return True, offset
            if tag == _T_FALSE:
                return False, offset
            if tag == _T_INT:
                n, offset = self._length(blob, offset)
                return int.from_bytes(blob[offset:offset + n], "big", signed=True), offset + n
            if tag == _T_FLOAT:
                return _F64.unpack_from(blob, offset)[0], offset + 8
            if tag == _T_STR:
                n, offset = self._length(blob, offset)
                return blob[offset:offset + n].decode("utf-8"), offset + n
            if tag == _T_BYTES:
                n, offset = self._length(blob, offset)
                return bytes(blob[offset:offset + n]), offset + n
            if tag in (_T_LIST, _T_TUPLE, _T_SET, _T_FROZENSET):
                n, offset = self._length(blob, offset)
                items = []
                for _ in range(n):
                    item, offset = self._decode(blob, offset)
                    items.append(item)
                if tag == _T_LIST:
                    return items, offset
                if tag == _T_TUPLE:
                    return tuple(items), offset
                if tag == _T_SET:
                    return set(items), offset
                return frozenset(items), offset
            if tag == _T_DICT:
                n, offset = self._length(blob, offset)
                out = {}
                for _ in range(n):
                    key, offset = self._decode(blob, offset)
                    out[key], offset = self._decode(blob, offset)
                return out, offset
            if tag == _T_MESSAGE:
                idx, offset = self._length(blob, offset)
                cls = self._types[idx]
                values = []
                for _ in self._fields[idx]:
                    value, offset = self._decode(blob, offset)
                    values.append(value)
                return cls(*values), offset
        except (IndexError, struct.error, UnicodeDecodeError) as exc:
            raise CodecError(f"corrupt wire bytes at offset {offset}: {exc}") from None
        if not tag:  # read at or past the end: the blob stops inside a value
            raise _truncated(blob)
        raise CodecError(f"unknown wire tag {tag!r} at offset {offset - 1}")

    @staticmethod
    def _length(blob: bytes, offset: int) -> Tuple[int, int]:
        return _LEN.unpack_from(blob, offset)[0], offset + 4

    # ---------------------------------------------------------------- frames

    def encode_frame(self, value: Any) -> bytes:
        """One stream frame: 4-byte big-endian length + encoded value."""
        payload = self.encode(value)
        return _LEN.pack(len(payload)) + payload
