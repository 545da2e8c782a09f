"""Unit and property tests for Saturn labels (§3)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.label import Label, LabelType, label_max


def make(ts, src="dc1/g0", type_=LabelType.UPDATE, target="k"):
    return Label(type_, src=src, ts=ts, target=target, origin_dc="dc1")


def test_comparability_by_timestamp():
    assert make(1.0) < make(2.0)
    assert make(2.0) > make(1.0)


def test_comparability_ties_broken_by_source():
    a = make(1.0, src="dcA/g0")
    b = make(1.0, src="dcB/g0")
    assert a < b


def test_equality_is_by_ts_and_src():
    a = make(1.0, target="x")
    b = make(1.0, target="y")
    assert a == b  # same (ts, src) — identity ignores payload fields
    assert hash(a) == hash(b)


def test_uniqueness_of_ts_src_pairs():
    labels = {make(float(i), src=f"dc{j}/g0")
              for i in range(10) for j in range(3)}
    assert len(labels) == 30


def test_label_max_handles_none():
    a = make(1.0)
    assert label_max(None, a) is a
    assert label_max(a, None) is a
    assert label_max(None, None) is None


def test_label_max_returns_greater():
    a, b = make(1.0), make(2.0)
    assert label_max(a, b) is b
    assert label_max(b, a) is b


def test_labels_are_immutable():
    with pytest.raises(AttributeError):
        make(1.0).ts = 5.0


def test_comparison_with_non_label_not_supported():
    assert make(1.0).__lt__(42) is NotImplemented
    assert make(1.0) != 42


def test_repr_mentions_fields():
    text = repr(make(1.5, target="key9"))
    assert "key9" in text and "1.5" in text


label_strategy = st.builds(
    make,
    ts=st.floats(min_value=0, max_value=1e9, allow_nan=False),
    src=st.sampled_from(["a/g0", "b/g0", "c/g1"]))


@given(label_strategy, label_strategy)
def test_total_order_antisymmetry(a, b):
    assert (a < b) or (b < a) or (a == b)
    if a < b:
        assert not b < a


@given(label_strategy, label_strategy, label_strategy)
def test_total_order_transitivity(a, b, c):
    if a < b and b < c:
        assert a < c


@given(label_strategy, label_strategy)
def test_label_max_commutative(a, b):
    assert label_max(a, b) == label_max(b, a)


@given(st.lists(label_strategy, min_size=1, max_size=20))
def test_sorting_matches_sort_key(labels):
    assert sorted(labels) == sorted(labels, key=lambda l: l.sort_key())


# -- the explicit orderings agree with (ts, src) ------------------------------

labels = st.builds(
    Label, type=st.sampled_from(LabelType),
    src=st.sampled_from(["I/g0", "I/g1", "F/g0", "F/sink", ""]),
    ts=st.floats(allow_nan=False),
    target=st.one_of(st.none(), st.text(max_size=3)),
    origin_dc=st.sampled_from(["I", "F"]))


@given(labels, labels)
def test_orderings_equality_and_hash_agree_with_ts_src(a, b):
    ka, kb = (a.ts, a.src), (b.ts, b.src)
    assert (a < b) == (ka < kb)
    assert (a <= b) == (ka <= kb)
    assert (a > b) == (ka > kb)
    assert (a >= b) == (ka >= kb)
    assert (a == b) == (ka == kb) and (a != b) == (ka != kb)
    assert hash(a) == hash(ka)
    assert label_max(a, b) is (a if ka >= kb else b)


@given(labels, st.one_of(st.integers(), st.floats(), st.text(), st.none(),
                         st.tuples(st.floats(), st.text())))
def test_ordering_against_a_non_label_raises(label, other):
    for compare in (lambda: label < other, lambda: label <= other,
                    lambda: label > other, lambda: label >= other,
                    lambda: other < label, lambda: other >= label):
        with pytest.raises(TypeError):
            compare()
    assert label != other and not label == other
