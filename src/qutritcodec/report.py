"""Row model and document emitters shared by the CLI commands.

JSON is the normative format; CSV and Markdown render the same row model.
Every number entering a document is rounded to SIG_DIGITS (12) significant
digits first, so the pass flags stored in a document are consistent with the
numbers a reader can see, and parsing an emitted JSON document reproduces it
exactly.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
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


@dataclass(frozen=True)
class VerifyRow:
    """One named comparison: computed value against a reference."""

    name: str
    computed: float
    reference: float
    tolerance: float
    source: str
    passed: bool

    def as_dict(self) -> dict[str, Any]:
        values = (self.name, self.computed, self.reference, self.tolerance, self.source)
        return dict(zip(_ROW_FIELDS, (*values, self.passed)))


def make_row(
    name: str, computed: float, reference: float, tolerance: float, source: str
) -> VerifyRow:
    """Build a row, rounding first so the stored pass flag matches the numbers."""
    if source not in ROW_SOURCES:
        raise ValueError(f"source must be one of {ROW_SOURCES}, got {source!r}")
    computed = round_sig(computed)
    reference = round_sig(reference)
    tolerance = round_sig(tolerance)
    return VerifyRow(
        name=name,
        computed=computed,
        reference=reference,
        tolerance=tolerance,
        source=source,
        passed=abs(computed - reference) <= tolerance,
    )


def _rounded(value: Any) -> Any:
    """Round every float inside a JSON-like structure to SIG_DIGITS digits."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return round_sig(value)
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_rounded(v) for v in value]
    return value


@dataclass(frozen=True)
class ReportDocument:
    """Either a row table (verify, mc) or a trace object (demo, encode, decode)."""

    command: str
    params: dict[str, Any]
    rows: tuple[VerifyRow, ...] | None = None
    trace: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if (self.rows is None) == (self.trace is None):
            raise ValueError("a document carries either rows or a trace, not both")

    @property
    def overall_pass(self) -> bool | None:
        if self.rows is None:
            return None
        return all(row.passed for row in self.rows)

    def as_dict(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "params": _rounded(self.params),
        }
        if self.rows is not None:
            doc["rows"] = [row.as_dict() for row in self.rows]
            doc["overall_pass"] = self.overall_pass
        else:
            doc["trace"] = _rounded(self.trace)
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


def to_json(document: ReportDocument) -> str:
    return json.dumps(document.as_dict(), indent=2) + "\n"


def _table(document: ReportDocument) -> tuple[tuple[str, ...], list[list[str]]]:
    """Header and string cells that CSV and Markdown lay out: the rows, or
    the trace's key/value pairs."""
    if document.rows is None:
        return ("key", "value"), [list(pair) for pair in _flatten(_rounded(document.trace))]
    return _ROW_FIELDS, [
        [_format_number(value) for value in row.as_dict().values()] for row in document.rows
    ]


def _flatten(value: Any, prefix: str = ""):
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _flatten(sub, f"{prefix}{key}." if prefix else f"{key}.")
    elif isinstance(value, list):
        yield (prefix.rstrip("."), json.dumps(value))
    else:
        yield (prefix.rstrip("."), _format_number(value))


def to_csv(document: ReportDocument) -> str:
    header, cells = _table(document)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(cells)
    return buffer.getvalue()


def to_markdown(document: ReportDocument) -> str:
    header, cells = _table(document)
    lines = [f"# {document.command}", ""]
    for cell_row in (header, ["---"] * len(header), *cells):
        lines.append("| " + " | ".join(cell_row) + " |")
    if document.rows is not None:
        lines += ["", f"overall pass: {_format_number(document.overall_pass)}"]
    return "\n".join(lines) + "\n"


_EMITTERS = {"json": to_json, "csv": to_csv, "md": to_markdown}

FORMATS = tuple(_EMITTERS)


def render(document: ReportDocument, fmt: str) -> str:
    if fmt not in _EMITTERS:
        raise ValueError(f"unknown format {fmt!r}")
    return _EMITTERS[fmt](document)
