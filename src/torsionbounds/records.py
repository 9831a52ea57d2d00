"""Curve-record CSV ingestion.

Records carry the inputs of the bound calculator per curve: a label, the
base-field degree, the adelic index, and optionally an isogeny-class tag.
Records sharing an isogeny class must carry equal adelic indices; that
contract is checked, not inferred.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable

HEADER = ("label", "base_degree", "adelic_index")
OPTIONAL = ("isogeny_class",)


class RecordParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class CurveRecord:
    label: str
    base_degree: int
    adelic_index: int
    isogeny_class: str | None = None

    def __post_init__(self):
        if not self.label:
            raise ValueError("label must be nonempty")
        if self.base_degree < 1 or self.adelic_index < 1:
            raise ValueError("base_degree and adelic_index must be >= 1")


def parse_curve_records(stream) -> list[CurveRecord]:
    """Parse curve-record CSV; integers must be positive, labels unique."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise RecordParseError(1, "missing header") from None
    header = [h.strip() for h in header]
    if tuple(header[:3]) != HEADER or tuple(header[3:]) not in ((), OPTIONAL):
        raise RecordParseError(
            1, f"bad header {header!r}, expected label,base_degree,"
               "adelic_index[,isogeny_class]")
    has_class = len(header) == 4
    records = []
    seen: dict[str, int] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise RecordParseError(lineno, f"expected {len(header)} fields, got {len(row)}")
        label = row[0].strip()
        if label in seen:
            raise RecordParseError(
                lineno, f"duplicate label {label!r} (first seen on line {seen[label]})")
        numbers = [row[1].strip(), row[2].strip()]
        # int() would also take "1_0", "+2" and non-ASCII digits
        if not all(t.isascii() and t.isdigit() for t in numbers):
            raise RecordParseError(
                lineno, f"degree and index must be decimal digits, got {row!r}")
        cls = row[3].strip() or None if has_class else None
        try:
            rec = CurveRecord(label, int(numbers[0]), int(numbers[1]), cls)
        except ValueError as exc:
            raise RecordParseError(lineno, str(exc)) from None
        seen[label] = lineno
        records.append(rec)
    return records


@dataclass(frozen=True)
class ClassCheck:
    isogeny_class: str
    labels: tuple[str, ...]
    indices: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return len(set(self.indices)) == 1


def check_isogeny_class_indices(records: Iterable[CurveRecord]) -> list[ClassCheck]:
    """One check per isogeny class: all members must share the adelic index."""
    by_class: dict[str, list[CurveRecord]] = {}
    for r in records:
        if r.isogeny_class:
            by_class.setdefault(r.isogeny_class, []).append(r)
    return [
        ClassCheck(cls, tuple(r.label for r in members),
                   tuple(r.adelic_index for r in members))
        for cls, members in sorted(by_class.items())
    ]
