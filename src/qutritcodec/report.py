"""Row model and document emitters shared by the CLI commands.

JSON is the normative format; CSV and Markdown render the same row model.
A document holds its numbers as given, and every float is rounded to
SIG_DIGITS (12) significant digits where it is printed: the JSON is
json.dumps(_rounded(doc), indent=2) byte for byte, from an emitter of its
own, because json's C encoder skips an indented dump. A row is rounded when
it is made, so its pass flag is consistent with the numbers a reader sees.
"""

from __future__ import annotations

import csv
import io
import json
import math
from json.encoder import encode_basestring_ascii
from typing import Any

SCHEMA_VERSION = "1"
SIG_DIGITS = 12

# row provenance: a constant quoted at source precision, an exact internal
# identity, or a statistical Monte Carlo bound
ROW_SOURCES = ("paper", "identity", "mc")

# a row's document fields, in column order
_ROW_FIELDS = ("name", "computed", "reference", "tolerance", "source", "pass")


def round_sig(value: float) -> float:
    """Round to SIG_DIGITS significant digits."""
    return float(f"{float(value):.{SIG_DIGITS}g}")


def make_row(
    name: str, computed: float, reference: float, tolerance: float, source: str
) -> dict[str, Any]:
    """One named comparison of a computed value against a reference, as its
    document fields; rounded first so the stored pass flag matches the numbers."""
    if source not in ROW_SOURCES:
        raise ValueError(f"source must be one of {ROW_SOURCES}, got {source!r}")
    if reference == 0.0 and tolerance > 0.0:
        # a cancellation's residue is rounding whose last bit varies with the
        # BLAS kernel; multiples of 1e-3 x tolerance still show a real
        # deviation (+ 0.0 turns -0.0 into 0.0)
        quantum = 1e-3 * tolerance
        computed = round(computed / quantum, 0) * quantum + 0.0
    computed, reference, tolerance = map(round_sig, (computed, reference, tolerance))
    passed = abs(computed - reference) <= tolerance
    return {"name": name, "computed": computed, "reference": reference,
            "tolerance": tolerance, "source": source, "pass": passed}


def _rounded(value: Any) -> Any:
    """Round every float inside a JSON-like structure to SIG_DIGITS digits."""
    kind = type(value)
    # the exact types skip isinstance; a subclass, such as a numpy float, takes it
    if kind is float or isinstance(value, float):
        return round_sig(value)
    if kind is dict or isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if kind is list or kind is tuple or isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return value


def document(
    command: str,
    params: dict[str, Any],
    rows: list[dict[str, Any]] | None = None,
    trace: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """The JSON object of one command: either a row table (verify, mc) with
    its overall pass flag, or a trace object (demo, encode, decode). Its
    params and trace keep their values as given; the emitters round them."""
    if (rows is None) == (trace is None):
        raise ValueError("a document carries either rows or a trace, not both")
    doc: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "params": params,
    }
    if rows is not None:
        doc["rows"] = [dict(row) for row in rows]
        doc["overall_pass"] = all(row["pass"] for row in rows)
    else:
        doc["trace"] = trace
    return doc


def amplitude_pairs(amplitudes) -> list[list[float]]:
    """Serialize complex amplitudes as [re, im] pairs."""
    return [[float(a.real), float(a.imag)] for a in amplitudes]


def _format_number(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.{SIG_DIGITS}g}"
    return str(value)


def _emit(value: Any, indent: str, parts: list[str]) -> None:
    """Append json.dumps(_rounded(value), indent=2) nested at `indent`: json's
    C encoder skips `indent`, so this walk prints a document's exact types
    itself and leaves the rest (subclasses, non-str keys, non-finite floats,
    empty containers, types json rejects) to json.dumps, re-indented."""
    kind = type(value)
    if kind is float and math.isfinite(value):
        # the 12 digits are repr(round_sig(value)) unless repr would print
        # the point (1.0, 1e12 to 1e16) or fewer digits (a subnormal)
        text = f"{value:.{SIG_DIGITS}g}"
        if "." not in text and "e" not in text or "e+1" in text or "e-3" in text:
            text = float.__repr__(float(text))
        parts.append(text)
    elif kind is str:
        parts.append(encode_basestring_ascii(value))
    elif kind is int:
        parts.append(int.__repr__(value))
    elif value is None or value is True or value is False:
        parts.append("null" if value is None else "true" if value else "false")
    elif (kind is list or kind is tuple or kind is dict and {*map(type, value)} == {str}) and value:
        inner = indent + "  "
        separator = ",\n" + inner
        parts.append(("{" if kind is dict else "[") + "\n" + inner)
        for item in value:
            if kind is dict:
                parts.append(encode_basestring_ascii(item) + ": ")
                item = value[item]
            _emit(item, inner, parts)
            parts.append(separator)
        parts[-1] = "\n" + indent + ("}" if kind is dict else "]")  # replaces the last separator
    else:
        parts.append(json.dumps(_rounded(value), indent=2).replace("\n", "\n" + indent))


def to_json(doc: dict[str, Any]) -> str:
    """json.dumps(_rounded(doc), indent=2) and a newline, byte for byte."""
    parts: list[str] = []
    _emit(doc, "", parts)
    return "".join(parts) + "\n"


def _table(doc: dict[str, Any]) -> tuple[tuple[str, ...], list[list[str]]]:
    """Header and string cells that CSV and Markdown lay out: the rows, or
    the trace's key/value pairs."""
    doc = _rounded(doc)  # a list cell is json.dumps of the list
    if "trace" in doc:
        return ("key", "value"), [list(pair) for pair in _flatten(doc["trace"])]
    return _ROW_FIELDS, [[_format_number(value) for value in row.values()] for row in doc["rows"]]


def _flatten(value: Any, prefix: str = ""):
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _flatten(sub, f"{prefix}{key}." if prefix else f"{key}.")
    elif isinstance(value, list):
        yield (prefix.rstrip("."), json.dumps(value))
    else:
        yield (prefix.rstrip("."), _format_number(value))


def to_csv(doc: dict[str, Any]) -> str:
    header, cells = _table(doc)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(cells)
    return buffer.getvalue()


def to_markdown(doc: dict[str, Any]) -> str:
    header, cells = _table(doc)
    lines = [f"# {doc['command']}", ""]
    for cell_row in (header, ["---"] * len(header), *cells):
        lines.append("| " + " | ".join(cell_row) + " |")
    if "rows" in doc:
        lines += ["", f"overall pass: {_format_number(doc['overall_pass'])}"]
    return "\n".join(lines) + "\n"


_EMITTERS = {"json": to_json, "csv": to_csv, "md": to_markdown}

FORMATS = tuple(_EMITTERS)


def render(doc: dict[str, Any], fmt: str) -> str:
    if fmt not in _EMITTERS:
        raise ValueError(f"unknown format {fmt!r}")
    return _EMITTERS[fmt](doc)
