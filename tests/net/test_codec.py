"""Wire-codec unit, property, golden-bytes and corruption tests.

The property test is the executable form of satellite guarantee 3: every
registered wire message survives an encode/decode round trip with value
equality *and* canonical-byte equality (so re-encoding a decoded message
is byte-stable — required for frame determinism).  The golden fixture
pins the frame bytes themselves: an accidental format change (a tag, a
class id shifted by a reordered ``register()`` call, a length width)
breaks cross-version clusters even if round trips still pass, and only a
committed byte pin catches it.  The corruption corpus is the other
direction: whatever a peer sends, the decoder answers with a message or
a ``CodecError`` — never any other exception.
"""

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.base import BaselinePayload
from repro.baselines.explicit import ExplicitPayload
from repro.core.label import Label, LabelType
from repro.datacenter.messages import (BulkHeartbeat, ClientRead,
                                       ClientUpdate, LabelBatch,
                                       RemotePayload)
from repro.net import codec

GOLDEN = Path(__file__).parent / "golden" / "frames.hex"


def _label(ts: float = 12.5, src: str = "I:g0", key: str = "g0:a",
           origin: str = "I") -> Label:
    return Label(LabelType.UPDATE, src, ts, key, origin)


def golden_frames():
    """The committed frame corpus: one frame per interesting shape."""
    label = _label()
    return [
        codec.encode_frame(
            "client:w", "dc:I",
            ClientUpdate("w", "g0:a", 2, label)),
        codec.encode_frame("client:w", "dc:I", ClientRead("w", "g0:a")),
        codec.encode_frame(
            "dc:I", "ser:e0:sI",
            LabelBatch(labels=(label, _label(13.0, "I:g1", "g0:b")))),
        codec.encode_frame(
            "dc:I", "dc:F", RemotePayload(label, "g0:a", 2, 10.25)),
        codec.encode_frame("dc:F", "dc:T", BulkHeartbeat("F", 42.0)),
        codec.encode_frame(
            "dc:I", "dc:F",
            ExplicitPayload(label, "g0:a", 2, 10.25,
                            frozenset({("g0:b", (11.0, "I:g1")),
                                       ("g0:c", (9.0, "I:g0"))}))),
    ]


# -- unit --------------------------------------------------------------------

def test_scalar_and_container_round_trip():
    values = [None, True, False, 0, -7, 1.5, "x", (),
              (1, ("a", 2.5), None), frozenset({3, 1, 2}),
              LabelType.HEARTBEAT, _label()]
    for value in values:
        assert codec.decode_value(codec.encode_value(value)) == value


def test_frame_round_trip_preserves_addressing():
    frame = codec.encode_frame("a", "b", ClientRead("c", "k"))
    (length,) = codec.FRAME_HEADER.unpack(frame[:4])
    src, dst, msg = codec.decode_frame_body(frame[4:4 + length])
    assert (src, dst, msg) == ("a", "b", ClientRead("c", "k"))


def test_encoding_is_canonical():
    msg = ClientUpdate("w", "g0:a", 2, _label())
    assert codec.encode_message(msg) == codec.encode_message(msg)
    decoded = codec.decode_message(codec.encode_message(msg))
    assert codec.encode_message(decoded) == codec.encode_message(msg)


def test_frozenset_encoding_is_order_independent():
    a = frozenset({("k1", 1.0), ("k2", 2.0), ("k3", 3.0)})
    b = frozenset(reversed(sorted(a)))
    assert codec.encode_message(a) == codec.encode_message(b)


def test_mutable_containers_are_rejected():
    for bad in ([1], {"k": 1}, {1, 2}, bytearray(b"x")):
        with pytest.raises(codec.CodecError):
            codec.encode_value(bad)
        with pytest.raises(codec.CodecError):
            codec.encode_message((1, bad))
        with pytest.raises(codec.CodecError):
            codec.encode_frame("a", "b", ClientRead("c", bad))


def test_non_finite_floats_are_rejected():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(codec.CodecError):
            codec.encode_value(bad)
        with pytest.raises(codec.CodecError):
            codec.encode_message(BulkHeartbeat("F", bad))


def test_ints_outside_int64_and_lone_surrogates_are_rejected():
    for ok in (-2 ** 63, 2 ** 63 - 1):
        assert codec.decode_message(codec.encode_message(ok)) == ok
    for bad in (-2 ** 63 - 1, 2 ** 63, "\ud800"):
        with pytest.raises(codec.CodecError):
            codec.encode_message(bad)


def test_dispatch_is_on_the_exact_type():
    class Text(str):
        pass

    class Pair(tuple):
        pass

    for bad in (Text("x"), Pair((1, 2))):
        with pytest.raises(codec.CodecError):
            codec.encode_message(bad)
    # bool is not int on the wire: the type survives
    assert codec.decode_message(codec.encode_message((True, 1))) == (True, 1)
    assert type(codec.decode_message(codec.encode_message(True))) is bool


def test_unregistered_dataclass_is_rejected():
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class NotWire:
        x: int

    with pytest.raises(codec.CodecError):
        codec.encode_value(NotWire(1))
    with pytest.raises(codec.CodecError):
        codec.encode_message(NotWire(1))
    with pytest.raises(codec.CodecError):
        codec.decode_value({"__d": ["NotWire", {"x": 1}]})


def test_duplicate_registration_is_rejected():
    with pytest.raises(codec.CodecError):
        codec.register(Label)


# -- register(): the wire rules, checked once at import ---------------------

@dataclass(frozen=True, slots=True)
class Unregistered:
    x: int


@dataclass(frozen=True, slots=True)
class ListField:
    xs: List[int]


@dataclass(frozen=True, slots=True)
class AnyField:
    x: Any


@dataclass(frozen=True, slots=True)
class ObjectField:
    x: object


@dataclass(slots=True)
class Mutable:
    x: int


@dataclass(frozen=True)
class Unslotted:
    x: int


@dataclass(frozen=True, slots=True)
class NestsUnregistered:
    inner: Optional[Unregistered]


def registry_state():
    return (codec.registered_messages(), dict(codec._ENUMS),
            len(codec._CLASS_DECODERS), len(codec._ENCODERS))


@pytest.mark.parametrize("cls", [
    ListField, AnyField, ObjectField, Mutable, Unslotted, NestsUnregistered,
    Label,  # a duplicate
], ids=lambda cls: cls.__name__)
def test_register_rejects_what_the_wire_cannot_carry(cls):
    before = registry_state()
    with pytest.raises(codec.CodecError):
        codec.register(cls)
    # nothing half-registered: same names, same next class id
    assert registry_state() == before


def test_registered_messages_are_exactly_the_handled_ones():
    """Every registered message has a receive handler and every handled
    message is registered: the keys of all actors' ``_HANDLERS`` tables,
    plus the two types that only ride inside message fields."""
    from repro.baselines.explicit import DepContext
    import repro.core.serializer  # noqa: F401  (load every actor class)
    import repro.datacenter.client  # noqa: F401
    import repro.protocols  # noqa: F401
    from repro.sim.process import Process

    actors, stack = [], [Process]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            if sub.__module__.startswith("repro.") and \
                    "_HANDLERS" in vars(sub):
                actors.append(sub)
    assert {cls.__name__ for cls in actors} >= {
        "SaturnDatacenter", "Serializer", "ClientProcess",
        "StabilizedDatacenter", "EunomiaDatacenter", "EunomiaSequencer",
        "OkapiDatacenter", "ExplicitDatacenter"}
    handled = set().union(*(cls._HANDLERS for cls in actors))
    registered = set(codec.registered_messages().values())
    components = {Label, DepContext}
    assert sorted(c.__name__ for c in registered - handled - components) == []
    assert sorted(c.__name__ for c in handled - registered) == []
    assert not components & handled


def test_malformed_bodies_are_codec_errors():
    for bad in (b"\xff\xfe", b"not json", b'{"src": "a"}', b"[1,2]"):
        with pytest.raises(codec.CodecError):
            codec.decode_frame_body(bad)
    with pytest.raises(codec.CodecError):
        codec.decode_value({"__x": []})
    with pytest.raises(codec.CodecError):
        codec.decode_value([1, 2])


# -- property: every registered message round-trips --------------------------

st.register_type_strategy(
    float, st.floats(allow_nan=False, allow_infinity=False))
# ints travel as int64; outside it is a CodecError (test_ints_outside_...)
st.register_type_strategy(int, st.integers(-2 ** 63, 2 ** 63 - 1))

_MESSAGE_STRATEGY = st.one_of([
    st.from_type(cls)
    for _, cls in sorted(codec.registered_messages().items())
])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(message=_MESSAGE_STRATEGY)
def test_every_registered_message_round_trips(message):
    encoded = codec.encode_message(message)
    decoded = codec.decode_message(encoded)
    assert type(decoded) is type(message)
    # canonical-byte equality is stronger than == (Label.__eq__ compares
    # only (ts, src)); every field must survive
    assert codec.encode_message(decoded) == encoded
    assert decoded == message


# -- golden bytes ------------------------------------------------------------

def test_golden_frame_bytes_are_stable():
    expected = [bytes.fromhex(line) for line in
                GOLDEN.read_text(encoding="utf-8").split()]
    actual = golden_frames()
    assert len(actual) == len(expected)
    for index, (got, want) in enumerate(zip(actual, expected)):
        assert got == want, (
            f"frame {index} drifted from the committed golden bytes — "
            "this breaks wire compatibility between versions; if the "
            "format change is deliberate, regenerate tests/net/golden/"
            "frames.hex and say so loudly in the changelog")


def test_golden_frames_still_decode():
    for frame in golden_frames():
        (length,) = codec.FRAME_HEADER.unpack(frame[:4])
        src, dst, msg = codec.decode_frame_body(frame[4:])
        assert length == len(frame) - 4
        assert src and dst
        assert codec.encode_frame(src, dst, msg) == frame


# -- corruption: a malformed peer can only ever cause a CodecError ------------

def _golden_bodies():
    return [frame[codec.FRAME_HEADER.size:] for frame in golden_frames()]


def _decodes_or_codec_error(body):
    """*body* is refused with CodecError or is a message that survives its
    own re-encoding; any other exception fails the test by escaping."""
    try:
        src, dst, message = codec.decode_frame_body(body)
    except codec.CodecError:
        return False
    again = codec.decode_frame_body(
        codec.encode_frame(src, dst, message)[codec.FRAME_HEADER.size:])
    assert again == (src, dst, message)
    # Label.__eq__ compares (ts, src) only; the canonical bytes compare all
    assert codec.encode_message(again[2]) == codec.encode_message(message)
    return True


def test_every_truncation_and_trailing_byte_is_a_codec_error():
    for body in _golden_bodies():
        assert _decodes_or_codec_error(body)
        for cut in range(len(body)):
            assert not _decodes_or_codec_error(body[:cut]), cut
        assert not _decodes_or_codec_error(body + b"\x00")


def test_single_byte_substitutions_decode_or_raise_codec_error():
    accepted = refused = 0
    for body in _golden_bodies():
        for offset in range(len(body)):
            for value in range(256):
                if value == body[offset]:
                    continue
                mutant = body[:offset] + bytes((value,)) + body[offset + 1:]
                if _decodes_or_codec_error(mutant):
                    accepted += 1
                else:
                    refused += 1
    # both outcomes occur: payload flips decode, structural flips do not
    assert accepted > 10_000 and refused > 10_000


def test_named_malformed_shapes_are_codec_errors():
    heartbeat = codec.encode_message(BulkHeartbeat("F", 42.0))
    label = codec.encode_message(_label())
    class_tag = label[0]
    # wrong field count: one field short, one field over
    for bad in (heartbeat[:-9], heartbeat + codec.encode_message(1)):
        with pytest.raises(codec.CodecError):
            codec.decode_message(bad)
    # unknown class id (the next registration's) and unknown tag
    unknown_class = bytes((class_tag, len(codec.registered_messages()) + 1))
    for bad in (unknown_class, b"\x09", b"\xff"):
        with pytest.raises(codec.CodecError):
            codec.decode_message(bad)
    # unknown enum member: LabelType's index one past its last member
    member = codec.encode_message(LabelType.UPDATE)
    with pytest.raises(codec.CodecError):
        codec.decode_message(member[:-1] + bytes((len(LabelType),)))
    # non-finite floats are refused inbound too, not only outbound
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(codec.CodecError):
            codec.decode_message(
                heartbeat[:-8] + struct.pack(">d", bad))
    # bad UTF-8, a length past the body, a count past the body
    text = codec.encode_message("ab")
    for bad in (text[:-1] + b"\xff", text[:1] + b"\x00\x00\x00\x09ab",
                codec.encode_message((1, 2))[:5] + b"\x00"):
        with pytest.raises(codec.CodecError):
            codec.decode_message(bad)
    # addresses must be strings
    with pytest.raises(codec.CodecError):
        codec.decode_frame_body(
            codec.encode_message(1) + text + heartbeat)


def test_hostile_nesting_depth_is_a_codec_error():
    one_tuple = codec.encode_message((None,))[:-1]   # tag + count of 1
    with pytest.raises(codec.CodecError):
        codec.decode_message(one_tuple * 100_000 + b"\x00")


# -- the paper's size claim, as bytes -----------------------------------------

def _fixed_width_label(index, origin="I"):
    return Label(LabelType.UPDATE, f"{origin}:g{index % 10}",
                 float(index), f"g0:k{index % 10}", origin)


def test_label_metadata_is_constant_size_on_the_wire():
    """PAPER.md §1: Saturn's metadata is one scalar timestamp + a source
    id, whatever the number of datacenters; the explicit-dependency
    baseline it is argued against grows with the causal past."""
    sizes = [len(codec.encode_message(LabelBatch(
        tuple(_fixed_width_label(i) for i in range(count)))))
        for count in range(6)]
    per_label = {after - before for before, after in zip(sizes, sizes[1:])}
    assert len(per_label) == 1 and per_label.pop() < 64

    # a RemotePayload's frame does not depend on how many datacenters
    # exist; a Cure payload carries one vector entry per datacenter
    def saturn(dcs):
        origin = f"D{dcs - 1:02d}"
        return len(codec.encode_frame("dc:D00", f"dc:{origin}", RemotePayload(
            _fixed_width_label(1, origin), "g0:k1", 2, 10.25)))

    def cure(dcs):
        vector = tuple((f"D{dc:02d}", 9.5) for dc in range(dcs))
        return len(codec.encode_message(BaselinePayload(
            _fixed_width_label(1), "g0:k1", 2, 10.25, vector)))

    assert saturn(3) == saturn(7) == saturn(30)
    assert cure(3) < cure(7) < cure(30)
    assert (cure(30) - cure(7)) // 23 == (cure(7) - cure(3)) // 4 > 0

    def explicit(deps):
        return len(codec.encode_message(ExplicitPayload(
            _fixed_width_label(1), "g0:k1", 2, 10.25,
            frozenset((f"g0:k{i}", (float(i), "I:g0"))
                      for i in range(deps)))))

    growth = [explicit(deps) for deps in range(5)]
    per_dep = {after - before for before, after in zip(growth, growth[1:])}
    assert len(per_dep) == 1 and per_dep.pop() > 0
