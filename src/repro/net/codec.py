"""Wire codec: frozen message dataclasses <-> length-prefixed binary frames.

Every message that can cross a process boundary is *registered* here by
class name, and ``register`` enforces the wire rules once, at import
(DESIGN.md §10):

* the type is an Enum, or a dataclass declared ``frozen=True,
  slots=True``;
* every dataclass field type (``typing.get_type_hints``) is ``None``,
  ``bool``, ``int``, ``float``, ``str``, an Enum, an already-registered
  dataclass, or an ``Optional`` / ``Union`` / ``Tuple`` / ``FrozenSet``
  of those — what the tag table below can carry.

Anything else (a ``list`` / ``dict`` / ``set`` field, ``Any``,
``object``, a mutable or unslotted class, an unregistered nested class,
a second registration of a name) is a :class:`CodecError` that leaves the
registry unchanged.  That every registered message has a receive handler
is one test in ``tests/net/test_codec.py``: the registered set equals
the union of the actors' ``_HANDLERS`` keys plus the field types
``Label`` and ``DepContext``.

The wire format (``encode_frame`` / ``encode_message`` and inverses) is
binary and canonical: a value is one tag byte plus a big-endian payload.

===  =========  ========================================================
tag  value      payload
===  =========  ========================================================
0-2  constant   none: 0 is ``None``, 1 ``True``, 2 ``False``
3    int        ``>q``; outside int64 is a :class:`CodecError`
4    float      ``>d``; NaN / +-inf is a :class:`CodecError`, both ways
5    str        ``>I`` byte length + UTF-8
6    tuple      ``>I`` item count + the items
7    frozenset  ``>I`` item count + the items sorted by encoded bytes
8    class      1-byte class id, then a dataclass's fields in declaration
                order (no names, no count) or an enum member's 1-byte
                index in definition order
===  =========  ========================================================

The class id is the type's position among the ``register()`` calls
below, so those calls — and an enum's members — are **append-only**:
a reorder or removal renumbers the wire.  ``register`` compiles each
type's encoder and decoder once; per value the work is one
``dict[type(value)]`` lookup on the *exact* type.  A frame is a 4-byte
big-endian body length, then ``src``, ``dst`` and the message as three
values back to back (DESIGN.md §10); any frame renders readably as
``encode_value(decode_frame_body(body)[2])``.

``encode_value`` / ``decode_value`` are the *journal* encoding (tagged
JSON data: ``__t`` tuple, ``__fs`` frozenset, ``__e`` enum, ``__d``
dataclass) that ``net.node.HookJournal`` writes and ``net.check``
replays; it never crosses a socket.

Mutable containers (list/dict/set) are rejected by design in both: they
are not wire-safe, and accepting them here would hide aliasing bugs the
simulator's by-reference delivery already masks.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import operator
import struct
import types
import typing
from functools import partial
from typing import Any, Callable, Dict, List, Tuple, Type

from repro.baselines.base import BaselinePayload
from repro.baselines.eunomia import EunomiaBatch, EunomiaTick
from repro.baselines.explicit import DepContext, ExplicitPayload
from repro.baselines.okapi import OkapiStabMsg
from repro.core.label import Label, LabelType
from repro.datacenter.messages import (AttachOk, BulkHeartbeat, ClientAttach,
                                       ClientMigrate, ClientRead,
                                       ClientUpdate, LabelBatch, LabelCredit,
                                       MigrateReply, ReadReply, RemotePayload,
                                       SerializerBeacon, StabilizationMsg,
                                       UpdateReply)

__all__ = [
    "CodecError", "register", "registered_messages",
    "encode_value", "decode_value", "encode_message", "decode_message",
    "encode_frame", "decode_frame_body", "FRAME_HEADER",
]

#: frame header: 4-byte big-endian body length
FRAME_HEADER = struct.Struct(">I")

#: refuse absurd frames before allocating for them (a smoke cluster's
#: largest message is a LabelBatch of a few dozen labels, well under 1 MiB)
MAX_FRAME_BYTES = 16 * 1024 * 1024


class CodecError(ValueError):
    """Raised for unregistered types, malformed frames, or unsafe values."""


_DATACLASSES: Dict[str, Type] = {}
_ENUMS: Dict[str, Type] = {}


def register(cls: Type) -> Type:
    """Check *cls* against the wire rules (module docstring), then register
    it under its class name and compile its wire encoder and decoder; its
    class id is its position among these calls.

    Kept as one explicit top-level call per type, never a loop, because
    the class id is that position: the calls are append-only.
    """
    name = cls.__name__
    if name in _DATACLASSES or name in _ENUMS:
        raise CodecError(f"duplicate codec registration for {name!r}")
    head = bytes((_CLASS, len(_CLASS_DECODERS)))
    if isinstance(cls, type) and issubclass(cls, enum.Enum):
        _compile_enum(cls, head)
        _ENUMS[name] = cls
    else:
        _check_dataclass(cls, name)  # raises before anything is recorded
        _compile_dataclass(cls, head)
        _DATACLASSES[name] = cls
    return cls


#: field types that are plain data by themselves (bytes has no wire tag)
_ATOMS = (type(None), bool, int, float, str)


def _check_dataclass(cls: Type, name: str) -> None:
    if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
        raise CodecError(f"{name!r} is neither a dataclass nor an Enum")
    if not cls.__dataclass_params__.frozen or "__slots__" not in vars(cls):
        raise CodecError(f"{name!r} must be @dataclass(frozen=True, "
                         "slots=True): a wire message is immutable and "
                         "cannot grow attributes")
    try:
        hints = typing.get_type_hints(cls)
    except Exception as exc:  # an annotation naming nothing importable
        raise CodecError(f"{name!r} has an unresolvable field type: "
                         f"{exc}") from None
    for field in dataclasses.fields(cls):
        bad = _non_plain(hints[field.name])
        if bad is not None:
            raise CodecError(f"{name}.{field.name} is not wire-safe plain "
                             f"data: {bad!r}")


def _non_plain(hint: Any) -> Any:
    """The first part of the type *hint* the wire cannot carry, or None."""
    if hint in _ATOMS or hint in _DATACLASSES.values() or (
            isinstance(hint, type) and issubclass(hint, enum.Enum)):
        return None
    if typing.get_origin(hint) in (typing.Union, types.UnionType, tuple,
                                   frozenset):
        for arg in typing.get_args(hint):
            bad = None if arg is Ellipsis else _non_plain(arg)
            if bad is not None:
                return bad
        return None
    return hint


def registered_messages() -> Dict[str, Type]:
    """Registered dataclass types by name (a copy; enums excluded)."""
    return dict(_DATACLASSES)


# -- journal encoding (tagged JSON data; never on a socket) ------------------

def encode_value(value: Any) -> Any:
    """Lower *value* to tagged JSON-compatible data."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise CodecError(f"non-finite float on the wire: {value!r}")
        return value
    if isinstance(value, tuple):
        return {"__t": [encode_value(v) for v in value]}
    if isinstance(value, frozenset):
        items = [encode_value(v) for v in value]
        items.sort(key=lambda item: json.dumps(item, sort_keys=True))
        return {"__fs": items}
    if isinstance(value, enum.Enum):
        name = type(value).__name__
        if name not in _ENUMS:
            raise CodecError(f"unregistered enum {name!r}")
        return {"__e": [name, value.value]}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if name not in _DATACLASSES:
            raise CodecError(f"unregistered message type {name!r}")
        fields = {f.name: encode_value(getattr(value, f.name))
                  for f in dataclasses.fields(value)}
        return {"__d": [name, fields]}
    raise CodecError(
        f"value of type {type(value).__name__!r} is not wire-safe "
        "(plain data only; lists/dicts/sets are rejected by design)")


def decode_value(data: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if data is None or isinstance(data, (bool, int, float, str)):
        return data
    if isinstance(data, dict):
        if len(data) != 1:
            raise CodecError(f"malformed tagged value: {data!r}")
        tag, payload = next(iter(data.items()))
        if tag == "__t":
            return tuple(decode_value(v) for v in payload)
        if tag == "__fs":
            return frozenset(decode_value(v) for v in payload)
        if tag == "__e":
            name, member = payload
            cls = _ENUMS.get(name)
            if cls is None:
                raise CodecError(f"unregistered enum {name!r}")
            return cls(member)
        if tag == "__d":
            name, fields = payload
            cls = _DATACLASSES.get(name)
            if cls is None:
                raise CodecError(f"unregistered message type {name!r}")
            return cls(**{key: decode_value(v) for key, v in fields.items()})
        raise CodecError(f"unknown codec tag {tag!r}")
    if isinstance(data, list):
        raise CodecError("bare JSON array is not a wire value (tuples "
                         "travel tagged)")
    raise CodecError(f"undecodable wire value: {data!r}")


# -- wire encoding (binary; tag table in the module docstring) ---------------

_NONE, _TRUE, _FALSE, _INT, _FLOAT, _STR, _TUPLE, _FROZENSET, _CLASS = range(9)

#: each struct spans the tag byte too: a decoder is entered *at* its tag
_INT64 = struct.Struct(">Bq")
_FLOAT64 = struct.Struct(">Bd")
_SIZE = struct.Struct(">BI")   # str byte length, tuple/frozenset item count

Decoder = Callable[[bytes, int], Tuple[Any, int]]   # (body, at) -> (value, end)


def _encode_float(value: float) -> bytes:
    if not math.isfinite(value):
        raise CodecError(f"non-finite float on the wire: {value!r}")
    return _FLOAT64.pack(_FLOAT, value)


def _encode_str(value: str) -> bytes:
    data = value.encode("utf-8")
    return _SIZE.pack(_STR, len(data)) + data


def _encode_tuple(value: tuple) -> bytes:
    return _SIZE.pack(_TUPLE, len(value)) + b"".join(
        [_ENCODERS[type(item)](item) for item in value])


def _encode_frozenset(value: frozenset) -> bytes:
    return _SIZE.pack(_FROZENSET, len(value)) + b"".join(
        sorted([_ENCODERS[type(item)](item) for item in value]))


#: exact type -> encoder; a miss is the "not wire-safe" CodecError
_ENCODERS: Dict[type, Callable[[Any], bytes]] = {
    type(None): {None: bytes((_NONE,))}.__getitem__,
    bool: {True: bytes((_TRUE,)), False: bytes((_FALSE,))}.__getitem__,
    int: partial(_INT64.pack, _INT),
    float: _encode_float,
    str: _encode_str,
    tuple: _encode_tuple,
    frozenset: _encode_frozenset,
}


def _decode_float(body: bytes, pos: int) -> Tuple[float, int]:
    value = _FLOAT64.unpack_from(body, pos)[1]
    if not math.isfinite(value):
        raise CodecError(f"non-finite float on the wire: {value!r}")
    return value, pos + 9


def _decode_str(body: bytes, pos: int) -> Tuple[str, int]:
    start = pos + 5
    end = start + _SIZE.unpack_from(body, pos)[1]
    if end > len(body):   # a slice would silently come up short
        raise CodecError("string length runs past the body")
    return body[start:end].decode("utf-8"), end


def _decode_values(body: bytes, pos: int, count: int) -> Tuple[List[Any], int]:
    """*count* back-to-back values from *pos*.  A hostile count allocates
    nothing: the loop dies on the first value the body does not hold."""
    values = []
    for _ in range(count):
        value, pos = _DECODERS[body[pos]](body, pos)
        values.append(value)
    return values, pos


def _items_decoder(make: Callable[[List[Any]], Any]) -> Decoder:
    def decode(body: bytes, pos: int) -> Tuple[Any, int]:
        items, end = _decode_values(
            body, pos + 5, _SIZE.unpack_from(body, pos)[1])
        return make(items), end
    return decode


#: indexed by tag byte; an unknown tag is an IndexError
_DECODERS: Tuple[Decoder, ...] = (
    lambda body, pos: (None, pos + 1),
    lambda body, pos: (True, pos + 1),
    lambda body, pos: (False, pos + 1),
    lambda body, pos: (_INT64.unpack_from(body, pos)[1], pos + 9),
    _decode_float, _decode_str,
    _items_decoder(tuple), _items_decoder(frozenset),
    lambda body, pos: _CLASS_DECODERS[body[pos + 1]](body, pos + 2),
)

#: indexed by class id (registration order); entered after tag and id
_CLASS_DECODERS: List[Decoder] = []


def _compile_enum(cls: Type, head: bytes) -> None:
    members = tuple(cls)
    _ENCODERS[cls] = {member: head + bytes((index,))
                      for index, member in enumerate(members)}.__getitem__
    _CLASS_DECODERS.append(lambda body, pos: (members[body[pos]], pos + 1))


def _compile_dataclass(cls: Type, head: bytes) -> None:
    getters = tuple(operator.attrgetter(field.name)
                    for field in dataclasses.fields(cls))

    def encode(value: Any) -> bytes:
        return head + b"".join(
            [_ENCODERS[type(field)](field)
             for field in [get(value) for get in getters]])

    def decode(body: bytes, pos: int) -> Tuple[Any, int]:
        fields, end = _decode_values(body, pos, len(getters))
        return cls(*fields), end

    _ENCODERS[cls] = encode
    _CLASS_DECODERS.append(decode)


def _encode(*values: Any) -> bytes:
    """The values back to back; the one place encoder failures surface."""
    try:
        return b"".join([_ENCODERS[type(value)](value) for value in values])
    except KeyError as exc:
        raise CodecError(
            f"value of type {exc.args[0].__name__!r} is not wire-safe "
            "(plain data and registered classes only; lists/dicts/sets "
            "are rejected by design)") from None
    except (struct.error, UnicodeEncodeError) as exc:
        raise CodecError(f"value does not fit the wire: {exc}") from None


def _decode(data: bytes, count: int) -> List[Any]:
    """Exactly *count* back-to-back values filling *data*; the one place
    decoder failures surface, so whatever a peer sends — truncation, an
    unknown tag / class id / member, bad UTF-8, a count or length past
    the body, hostile nesting — is a :class:`CodecError`."""
    try:
        values, end = _decode_values(data, 0, count)
    except CodecError:
        raise
    except (struct.error, IndexError, ValueError, TypeError,
            RecursionError) as exc:
        raise CodecError(f"malformed wire data: {exc!r}") from None
    if end != len(data):
        raise CodecError(f"{len(data) - end} trailing bytes after the value")
    return values


def encode_message(message: Any) -> bytes:
    """Canonical bytes of one message (no frame header)."""
    return _encode(message)


def decode_message(data: bytes) -> Any:
    return _decode(data, 1)[0]


def encode_frame(src: str, dst: str, message: Any) -> bytes:
    """One addressed frame: 4-byte length + src, dst, message."""
    body = _encode(src, dst, message)
    if len(body) > MAX_FRAME_BYTES:
        raise CodecError(f"frame body of {len(body)} bytes exceeds the "
                         f"{MAX_FRAME_BYTES}-byte ceiling")
    return FRAME_HEADER.pack(len(body)) + body


def decode_frame_body(body: bytes) -> Tuple[str, str, Any]:
    """Decode a frame body (header already stripped) -> (src, dst, msg)."""
    src, dst, message = _decode(body, 3)
    if type(src) is not str or type(dst) is not str:
        raise CodecError("frame addresses must be strings")
    return src, dst, message


# -- wire vocabulary ---------------------------------------------------------
# Value types riding inside message fields:
register(Label)
register(LabelType)
register(DepContext)
# client <-> datacenter:
register(ClientAttach)
register(ClientRead)
register(ClientUpdate)
register(ClientMigrate)
register(AttachOk)
register(ReadReply)
register(UpdateReply)
register(MigrateReply)
# datacenter <-> datacenter (bulk-data transfer):
register(RemotePayload)
register(BulkHeartbeat)
# datacenter <-> Saturn:
register(LabelBatch)
register(LabelCredit)
register(SerializerBeacon)
# stabilization baselines:
register(StabilizationMsg)
register(BaselinePayload)
register(ExplicitPayload)
register(EunomiaTick)
register(EunomiaBatch)
register(OkapiStabMsg)
