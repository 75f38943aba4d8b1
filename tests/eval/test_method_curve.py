"""Focused tests for MethodCurve."""

import pytest

from repro.eval.linkpred import MethodCurve


class TestMethodCurve:
    def test_hits_and_recall(self):
        curve = MethodCurve(name="x", ranks=[1.0, 5.0, 11.0, 2.0])
        assert curve.num_lists == 4
        assert curve.hits_at(10) == 3
        assert curve.recall_at(10) == pytest.approx(0.75)
        assert curve.precision_at(10) == pytest.approx(3 / 40)

    def test_curve_rows_are_monotone_in_recall(self):
        curve = MethodCurve(name="x", ranks=[1.0, 3.0, 8.0, 20.0, 50.0])
        rows = curve.curve(max_rank=20)
        recalls = [recall for _, recall, _ in rows]
        assert recalls == sorted(recalls)

    def test_boundary_rank_counts_as_hit(self):
        curve = MethodCurve(name="x", ranks=[10.0])
        assert curve.recall_at(10) == 1.0
        assert curve.recall_at(9) == 0.0
