"""Row model, rounding discipline, and the three document emitters."""

from __future__ import annotations

import collections
import enum
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qutritcodec.report import (
    _rounded,
    amplitude_pairs,
    document,
    make_row,
    render,
    round_sig,
    to_csv,
    to_json,
    to_markdown,
)


def rows_document() -> dict:
    rows = [
        make_row("alpha", 0.6666666666666666, 2 / 3, 1e-9, "paper"),
        make_row("beta", 0.25, 0.25, 1e-12, "identity"),
    ]
    return document("verify", {"nodes": 64}, rows=rows)


def trace_document() -> dict:
    return document(
        "demo",
        {"seed": 3},
        trace={"outcome": 2, "qutrit_amplitudes": [[0.0, 0.0], [1.0, 0.0]]},
    )


class TestRows:
    def test_pass_flag_uses_rounded_values(self):
        row = make_row("x", 1.0000000000004, 1.0, 1e-9, "identity")
        assert row["computed"] == 1.0  # rounded to 12 significant digits
        assert row["pass"]

    def test_fail_flag(self):
        row = make_row("x", 1.1, 1.0, 1e-3, "paper")
        assert not row["pass"]

    def test_zero_reference_rounds_to_a_thousandth_of_the_tolerance(self):
        # a cancellation's last-bit residue prints 0, a real deviation its digits
        for residue in (2.220446049250313e-16, -2.220446049250313e-16):
            row = make_row("x", residue, 0.0, 1e-9, "identity")
            assert str(row["computed"]) == "0.0" and row["pass"]
        assert make_row("x", 1.234567891e-10, 0.0, 1e-9, "identity")["computed"] == 1.23e-10
        assert not make_row("x", -2.5e-9, 0.0, 1e-9, "identity")["pass"]
        assert math.isnan(make_row("x", math.nan, 0.0, 1e-9, "identity")["computed"])
        assert make_row("x", 1e-20, 0.0, 0.0, "identity")["computed"] == 1e-20

    def test_source_validation(self):
        with pytest.raises(ValueError):
            make_row("x", 1.0, 1.0, 0.0, "guess")

    def test_round_sig(self):
        assert round_sig(0.6666666666666666) == 0.666666666667
        assert round_sig(0.0) == 0.0


class TestDocuments:
    def test_rows_or_trace_exactly_one(self):
        with pytest.raises(ValueError):
            document("x", {})
        with pytest.raises(ValueError):
            document("x", {}, rows=[], trace={"k": 1})

    def test_overall_pass(self):
        doc = rows_document()
        assert doc["overall_pass"] is True
        failing = document("verify", {}, rows=[make_row("x", 2.0, 1.0, 1e-3, "paper")])
        assert failing["overall_pass"] is False
        # an empty table has no failing row
        assert document("verify", {}, rows=[])["overall_pass"] is True

    def test_key_order_and_rounding(self):
        # a document keeps its values as given; its rendered forms round them
        doc = document("mc", {"tolerance": 0.1 + 0.2}, rows=[])
        assert list(doc) == ["schema_version", "command", "params", "rows", "overall_pass"]
        assert doc["params"] == {"tolerance": 0.30000000000000004}
        assert json.loads(to_json(doc))["params"] == {"tolerance": 0.3}
        trace = document("demo", {}, trace={"p": [1 / 3, True, 2]})
        assert list(trace) == ["schema_version", "command", "params", "trace"]
        assert trace["trace"] == {"p": [1 / 3, True, 2]}
        assert json.loads(to_json(trace))["trace"] == {"p": [0.333333333333, True, 2]}
        assert "p,\"[0.333333333333, true, 2]\"" in to_csv(trace).splitlines()
        assert "| p | [0.333333333333, true, 2] |" in to_markdown(trace).splitlines()

    def test_json_round_trip(self):
        doc = rows_document()
        assert json.loads(to_json(doc)) == doc
        trace = trace_document()
        assert json.loads(to_json(trace)) == trace

    def test_schema_shape(self):
        parsed = json.loads(to_json(rows_document()))
        assert parsed["schema_version"] == "1"
        assert set(parsed) == {"schema_version", "command", "params", "rows", "overall_pass"}
        assert set(parsed["rows"][0]) == {
            "name", "computed", "reference", "tolerance", "source", "pass",
        }
        parsed_trace = json.loads(to_json(trace_document()))
        assert set(parsed_trace) == {"schema_version", "command", "params", "trace"}

    def test_csv_has_header_plus_one_line_per_row(self):
        lines = to_csv(rows_document()).strip().split("\n")
        assert lines[0] == "name,computed,reference,tolerance,source,pass"
        assert len(lines) == 3

    def test_markdown_table(self):
        text = to_markdown(rows_document())
        assert text.startswith("# verify")
        assert "| alpha |" in text

    def test_trace_csv_flattens_keys(self):
        lines = to_csv(trace_document()).strip().split("\n")
        assert lines[0] == "key,value"
        assert any(line.startswith("outcome,") for line in lines)

    def test_render_dispatch(self):
        doc = rows_document()
        assert render(doc, "json") == to_json(doc)
        assert render(doc, "csv") == to_csv(doc)
        assert render(doc, "md") == to_markdown(doc)
        with pytest.raises(ValueError):
            render(doc, "xml")


def test_amplitude_pairs():
    assert amplitude_pairs([1 + 2j, -0.5j]) == [[1.0, 2.0], [0.0, -0.5]]


class Level(enum.IntEnum):
    ONE = 1


floats = st.one_of(
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e15, 1e16])
)
# escapes, control characters, non-ASCII text and a lone surrogate
texts = st.one_of(
    st.text(), st.sampled_from(['"\\/\b\f\n\r\t', "\x00\x1f\x7f", "é", "\u2028", "😀", "\ud800"])
)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(2**64, 2**70), floats, texts,
    # subclasses json prints by its own rules
    st.just(Level.ONE), floats.map(np.float64),
)
# keys json converts to text as well as str keys
keys = st.one_of(texts, st.integers(), floats, st.booleans(), st.none())
json_like = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(texts, children),
        st.dictionaries(texts, children).map(collections.OrderedDict),
        st.dictionaries(keys, children),
    ),
    max_leaves=40,
)


class TestJsonEmitter:
    @given(json_like)
    def test_prints_what_json_dumps_prints(self, value):
        assert to_json(value) == json.dumps(_rounded(value), indent=2) + "\n"

    # zeros and one print a point; 1e12 to 1e16 print as repr does, not
    # in the 12-digit exponent form; a subnormal prints its few digits
    @example(0.0)
    @example(-0.0)
    @example(1.0)
    @example(5e-324)
    @example(1e-310)
    @example(2.2250738585072014e-308)
    @example(1e-05)
    @example(999999999999.5)
    @example(1e12)
    @example(12345678901234.5)
    @example(9.9999999999995e15)
    @example(1e16)
    @example(sys.float_info.max)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_prints_a_float_as_repr_of_its_rounded_value(self, value):
        assert to_json(value) == float.__repr__(round_sig(value)) + "\n"

    @pytest.mark.parametrize("value", [object(), np.int64(1)])
    def test_raises_the_type_error_json_dumps_raises(self, value):
        with pytest.raises(TypeError) as expected:
            json.dumps(value, indent=2)
        with pytest.raises(TypeError) as raised:
            to_json({"rows": [value]})
        assert str(raised.value) == str(expected.value)
