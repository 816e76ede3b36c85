"""Grader evaluation metrics over (human, predicted) grade pairs.

Predicted grades are rounded half-up, bucketed into the four labels
0 / 1 / 6 / 7 (where 1 covers {1,2,3} and 6 covers {4,5,6}), and compared
against human grades. Accuracy and the confusion matrix live on the bucket
labels; MAE compares the bucketed prediction with the raw human grade on
the 7-point scale, normalized by 7. The false-positive rate conditions on
human <= 5 and the false-negative rate on human >= 6; an empty
conditioning set leaves that rate undefined rather than zero.

All ratios are exact :class:`fractions.Fraction` values.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .core import GradingRecord

BUCKET_LABELS = (0, 1, 6, 7)
POSITIVE_THRESHOLD = 6  # predicted/human >= 6 counts as a positive verdict


class MetricsInputError(ValueError):
    """A records file is empty or malformed; carries a line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


def round_half_up(x: float) -> int:
    """Round to nearest integer with .5 going up (not banker's rounding)."""
    return int(math.floor(x + 0.5))


def bucketize(score: int) -> int:
    """Map a 0-7 grade onto the four evaluation labels."""
    if not isinstance(score, int) or isinstance(score, bool):
        raise TypeError(f"bucketize expects an integer, got {score!r}")
    if score == 0:
        return 0
    if 1 <= score <= 3:
        return 1
    if 4 <= score <= 6:
        return 6
    if score == 7:
        return 7
    raise ValueError(f"score out of range 0..7: {score}")


def _merge01(label: int) -> int:
    return 1 if label in (0, 1) else label


@dataclass(frozen=True)
class MetricsReport:
    n: int
    acc: Fraction
    mae: Fraction
    fpr: Optional[Fraction]
    fnr: Optional[Fraction]
    merged_acc: Fraction
    confusion: tuple[tuple[int, ...], ...]  # rows: human bucket, cols: predicted bucket

    def to_dict(self) -> dict:
        # report.json, written once and never read back: each fraction as a value and a ratio.
        def frac(v: Optional[Fraction]):
            return None if v is None else {"value": float(v), "ratio": f"{v.numerator}/{v.denominator}"}

        return {
            "n": self.n,
            "acc": frac(self.acc),
            "mae": frac(self.mae),
            "fpr": frac(self.fpr),
            "fnr": frac(self.fnr),
            "merged_acc": frac(self.merged_acc),
            "labels": list(BUCKET_LABELS),
            "confusion": [list(row) for row in self.confusion],
            "notes": [
                "mae = mean |bucketized prediction - human| / 7",
                "undefined conditional rates are reported as n/a, never 0",
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def compute_metrics(records: Sequence[GradingRecord]) -> MetricsReport:
    """Score a grader against human grades; see module docstring for the
    exact definitions. Raises on an empty record set."""
    if not records:
        raise MetricsInputError("no records to evaluate")
    n = len(records)
    hits = 0
    merged_hits = 0
    mae_sum = Fraction(0)
    fp = fp_den = fn = fn_den = 0
    index = {label: i for i, label in enumerate(BUCKET_LABELS)}
    grid = [[0] * len(BUCKET_LABELS) for _ in BUCKET_LABELS]

    for rec in records:
        pred_bucket = bucketize(round_half_up(rec.predicted))
        human_bucket = bucketize(rec.human)
        if pred_bucket == human_bucket:
            hits += 1
        if _merge01(pred_bucket) == _merge01(human_bucket):
            merged_hits += 1
        mae_sum += Fraction(abs(pred_bucket - rec.human))
        if rec.human <= 5:
            fp_den += 1
            if pred_bucket >= POSITIVE_THRESHOLD:
                fp += 1
        if rec.human >= POSITIVE_THRESHOLD:
            fn_den += 1
            if pred_bucket < POSITIVE_THRESHOLD:
                fn += 1
        grid[index[human_bucket]][index[pred_bucket]] += 1

    return MetricsReport(
        n=n,
        acc=Fraction(hits, n),
        mae=mae_sum / n / 7,
        fpr=Fraction(fp, fp_den) if fp_den else None,
        fnr=Fraction(fn, fn_den) if fn_den else None,
        merged_acc=Fraction(merged_hits, n),
        confusion=tuple(tuple(row) for row in grid),
    )


def render_confusion(report: MetricsReport) -> str:
    """Fixed-width confusion grid, human buckets as rows, with marginals."""
    width = 8
    header = "".join(f"pred {l}".rjust(width) for l in BUCKET_LABELS) + "total".rjust(width)
    lines = [" " * 8 + header]
    col_totals = [0] * len(BUCKET_LABELS)
    for label, row in zip(BUCKET_LABELS, report.confusion):
        for i, v in enumerate(row):
            col_totals[i] += v
        cells = "".join(str(v).rjust(width) for v in row)
        lines.append(f"human {label} ".ljust(8) + cells + str(sum(row)).rjust(width))
    lines.append(
        "total".ljust(8) + "".join(str(v).rjust(width) for v in col_totals) + str(report.n).rjust(width)
    )
    return "\n".join(lines)


def confusion_csv(report: MetricsReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["human\\pred", *BUCKET_LABELS, "total"])
    for label, row in zip(BUCKET_LABELS, report.confusion):
        writer.writerow([label, *row, sum(row)])
    writer.writerow(["total", *[sum(col) for col in zip(*report.confusion)], report.n])
    return out.getvalue()


def render_report(report: MetricsReport) -> str:
    def pct(v: Optional[Fraction]) -> str:
        return "n/a" if v is None else f"{float(v) * 100:.1f}%"

    lines = [
        f"records: {report.n}",
        "(mae = mean |bucketized prediction - human| / 7, shown as a percentage)",
        f"acc:        {pct(report.acc)}",
        f"mae:        {pct(report.mae)}",
        f"fpr:        {pct(report.fpr)}",
        f"fnr:        {pct(report.fnr)}",
        f"merged acc: {pct(report.merged_acc)}  (0 and 1 buckets merged)",
        "",
        render_confusion(report),
    ]
    return "\n".join(lines)


def load_records(path: str | Path) -> list[GradingRecord]:
    """Read grading records from CSV (header: human,predicted[,problem_id])
    or JSONL. Malformed rows raise with their line number."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if not text.strip():
        raise MetricsInputError(f"{path} is empty")
    first = text.lstrip().splitlines()[0].strip()
    if first.startswith("{"):
        return _load_jsonl(text)
    return _load_csv(text)


def _coerce(rec: dict, line: int) -> GradingRecord:
    try:
        human, predicted = rec["human"], rec["predicted"]
        if isinstance(human, bool) or isinstance(predicted, bool):
            raise ValueError(f"a grade is a number, not a boolean: human={human!r}, predicted={predicted!r}")
        if isinstance(human, float) and not human.is_integer():
            raise ValueError(f"a human grade is a whole number, not {human!r}")
        problem_id = rec.get("problem_id") or None
        return GradingRecord(human=int(human), predicted=float(predicted), problem_id=problem_id)
    except (KeyError, TypeError, ValueError) as exc:
        raise MetricsInputError(str(exc), line=line) from exc


def _load_jsonl(text: str) -> list[GradingRecord]:
    records = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MetricsInputError(f"invalid JSON: {exc}", line=lineno) from exc
        records.append(_coerce(obj, lineno))
    if not records:
        raise MetricsInputError("file contains no records")
    return records


def _load_csv(text: str) -> list[GradingRecord]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames is None or "human" not in reader.fieldnames or "predicted" not in reader.fieldnames:
        raise MetricsInputError("CSV header must include 'human' and 'predicted'", line=1)
    records = []
    for lineno, row in enumerate(reader, 2):
        records.append(_coerce(row, lineno))
    if not records:
        raise MetricsInputError("file lists a header but zero records")
    return records
