"""Grader metrics against a brute-forced 20-record oracle.

The expected values below were computed with an independent enumeration
(straight loops over the fixture, Fraction arithmetic) before the module
was written, and are frozen here as literals.
"""
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from proofpipe.core import GradingRecord
from proofpipe.metrics import (
    MetricsInputError,
    bucketize,
    compute_metrics,
    confusion_csv,
    load_records,
    render_confusion,
    render_report,
    round_half_up,
)

FIXTURE_ROWS = [
    (7, 7), (7, 6), (7, 7), (6, 6), (6, 7), (6, 2), (5, 5), (5, 7),
    (4, 4), (4, 1), (3, 3), (3, 6), (2, 2), (2, 0), (1, 1), (1, 7),
    (0, 0), (0, 3), (0, 7), (7, 5.4),
]
FIXTURE = [GradingRecord(human=h, predicted=p) for h, p in FIXTURE_ROWS]

ORACLE = {
    "n": 20,
    "acc": Fraction(9, 20),
    "mae": Fraction(19, 70),
    "fpr": Fraction(6, 13),
    "fnr": Fraction(1, 7),
    "merged_acc": Fraction(11, 20),
    "confusion": (
        (1, 1, 0, 1),   # human bucket 0
        (1, 3, 1, 1),   # human bucket 1
        (0, 2, 3, 2),   # human bucket 6
        (0, 0, 2, 2),   # human bucket 7
    ),
}


class TestBucketize:
    def test_full_mapping(self):
        assert [bucketize(s) for s in range(8)] == [0, 1, 1, 1, 6, 6, 6, 7]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            bucketize(8)
        with pytest.raises(ValueError):
            bucketize(-1)

    def test_idempotent_on_labels(self):
        for label in (0, 1, 6, 7):
            assert bucketize(label) == label

    @given(st.integers(0, 6))
    def test_monotone(self, s):
        assert bucketize(s) <= bucketize(s + 1)


class TestRounding:
    @pytest.mark.parametrize(
        "value,expected",
        [(5.4, 5), (5.5, 6), (6.5, 7), (0.49, 0), (0.5, 1), (7.0, 7), (3.0, 3)],
    )
    def test_half_up(self, value, expected):
        assert round_half_up(value) == expected


class TestComputeMetrics:
    def test_fixture_matches_oracle_exactly(self):
        report = compute_metrics(FIXTURE)
        assert report.n == ORACLE["n"]
        assert report.acc == ORACLE["acc"]
        assert report.mae == ORACLE["mae"]
        assert report.fpr == ORACLE["fpr"]
        assert report.fnr == ORACLE["fnr"]
        assert report.merged_acc == ORACLE["merged_acc"]
        assert report.confusion == ORACLE["confusion"]

    def test_single_perfect_record(self):
        report = compute_metrics([GradingRecord(human=7, predicted=7)])
        assert report.acc == 1 and report.mae == 0
        assert report.fnr == 0
        assert report.fpr is None  # no human <= 5 records: undefined, not zero

    def test_degenerate_always_seven_predictor(self):
        records = [GradingRecord(human=h, predicted=7) for h in (2, 3, 5, 7, 6)]
        report = compute_metrics(records)
        assert report.fpr == 1
        assert report.fnr == 0

    def test_empty_errors(self):
        with pytest.raises(MetricsInputError):
            compute_metrics([])

    def test_acc_equals_trace_over_n(self):
        report = compute_metrics(FIXTURE)
        trace = sum(report.confusion[i][i] for i in range(4))
        assert report.acc == Fraction(trace, report.n)

    def test_confusion_sums_to_n(self):
        report = compute_metrics(FIXTURE)
        assert sum(sum(row) for row in report.confusion) == report.n

    @given(st.permutations(FIXTURE))
    def test_permutation_invariance(self, shuffled):
        report = compute_metrics(list(shuffled))
        assert report.fpr == ORACLE["fpr"]
        assert report.fnr == ORACLE["fnr"]
        assert report.acc == ORACLE["acc"]

    @given(st.lists(st.integers(0, 7), min_size=1, max_size=30))
    def test_exact_agreement_on_label_scores_zero_mae(self, humans):
        # for human grades already on the label set, a perfect predictor has
        # zero error contribution
        records = [
            GradingRecord(human=h, predicted=h) for h in humans if h in (0, 1, 6, 7)
        ]
        if not records:
            return
        report = compute_metrics(records)
        assert report.mae == 0 and report.acc == 1


class TestRendering:
    def test_identity_predictions_diagonal(self):
        records = [GradingRecord(human=h, predicted=h) for h in (0, 1, 6, 7)]
        report = compute_metrics(records)
        assert report.confusion == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        text = render_confusion(report)
        assert "pred 0" in text and "total" in text

    def test_zeros_rendered_not_blank(self):
        report = compute_metrics([GradingRecord(human=7, predicted=7)])
        rows = render_confusion(report).splitlines()
        assert any(r.strip().startswith("human 0") and "0" in r for r in rows)

    def test_fixture_confusion_csv(self):
        report = compute_metrics(FIXTURE)
        csv_text = confusion_csv(report)
        assert "1,1,3,1,1,6" in csv_text.replace("\r", "")  # human-1 row with total

    def test_report_text_marks_undefined(self):
        report = compute_metrics([GradingRecord(human=7, predicted=7)])
        assert "n/a" in render_report(report)

    def test_json_round_values(self):
        report = compute_metrics(FIXTURE)
        d = report.to_dict()
        assert d["acc"]["ratio"] == "9/20"
        assert d["mae"]["ratio"] == "19/70"
        assert d["fpr"]["ratio"] == "6/13"


class TestLoaders:
    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(
            "human,predicted,problem_id\n7,7,q1\n3,6.5,q2\n", encoding="utf-8"
        )
        records = load_records(path)
        assert records[0].human == 7 and records[1].predicted == 6.5

    def test_jsonl(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"human": 7, "predicted": 6}\n{"human": 0, "predicted": 1}\n', encoding="utf-8")
        assert len(load_records(path)) == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(MetricsInputError):
            load_records(path)

    def test_header_only_reports_zero_records(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("human,predicted\n", encoding="utf-8")
        with pytest.raises(MetricsInputError, match="zero records"):
            load_records(path)

    def test_schema_violation_carries_line_number(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("human,predicted\n7,7\nnine,2\n", encoding="utf-8")
        with pytest.raises(MetricsInputError, match="line 3"):
            load_records(path)

    def test_bad_jsonl_line_number(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('{"human": 7, "predicted": 6}\n{broken\n', encoding="utf-8")
        with pytest.raises(MetricsInputError, match="line 2"):
            load_records(path)

    @pytest.mark.parametrize(
        "row, named",
        [
            ('{"human": 6.9, "predicted": 6}', "a human grade is a whole number, not 6.9"),
            ('{"human": Infinity, "predicted": 6}', "a human grade is a whole number, not inf"),
            ('{"human": true, "predicted": 6}', "a grade is a number, not a boolean: human=True, predicted=6"),
            ('{"human": 6, "predicted": true}', "a grade is a number, not a boolean: human=6, predicted=True"),
        ],
        ids=["fraction", "infinity", "human_bool", "predicted_bool"],
    )
    def test_a_jsonl_grade_that_is_no_grade_is_refused(self, tmp_path, row, named):
        """A JSONL grade reads as a CSV one does: a human grade with a
        fraction, or a boolean in either place, is refused with its line,
        not truncated or read as a 1."""
        path = tmp_path / "records.jsonl"
        path.write_text('{"human": 6.0, "predicted": 6.5}\n' + row + "\n", encoding="utf-8")
        with pytest.raises(MetricsInputError) as refused:
            load_records(path)
        assert str(refused.value) == f"line 2: {named}"
