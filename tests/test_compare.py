"""Result-set diffing across runs."""

import pytest

from repro.analysis.compare import diff_results, render_diff
from repro.analysis.export import write_json
from repro.cli import main
from repro.experiments.common import ExperimentResult


def doc(value):
    return {
        "fig9": {
            "experiment": "Figure 9",
            "headers": ["workload", "hashed", "clustered"],
            "rows": [["coral", 1.0, value]],
            "notes": "",
        }
    }


class TestDiff:
    def test_identical_documents_clean(self):
        assert diff_results(doc(0.38), doc(0.38)) == []

    def test_drift_detected(self):
        drifts = diff_results(doc(0.38), doc(0.50))
        assert len(drifts) == 1
        experiment, label, column, old, new, change = drifts[0]
        assert (experiment, label, column) == ("fig9", "coral", "clustered")
        assert old == 0.38 and new == 0.50
        assert change == pytest.approx((0.50 - 0.38) / 0.38, abs=1e-4)

    def test_tolerance_suppresses_noise(self):
        assert diff_results(doc(0.380), doc(0.383), tolerance=0.02) == []
        assert diff_results(doc(0.380), doc(0.383), tolerance=0.001)

    def test_structural_changes_reported(self):
        old = doc(0.38)
        new = dict(doc(0.38), extra={"experiment": "X", "headers": ["w"],
                                     "rows": [], "notes": ""})
        drifts = diff_results(old, new)
        assert any("added" in row[1] for row in drifts)

    def test_row_changes_reported(self):
        old = doc(0.38)
        new = doc(0.38)
        new["fig9"]["rows"].append(["gcc", 1.0, 0.5])
        drifts = diff_results(old, new)
        assert any("gcc" in row[1] for row in drifts)

    def test_non_numeric_cells_ignored(self):
        old = doc(0.38)
        new = doc(0.38)
        old["fig9"]["rows"][0][1] = "n/a"
        new["fig9"]["rows"][0][1] = "other"
        assert diff_results(old, new) == []


class TestCLI:
    def write(self, tmp_path, name, value):
        result = ExperimentResult(
            experiment="Figure 9",
            headers=["workload", "hashed", "clustered"],
            rows=[["coral", 1.0, value]],
        )
        return str(write_json({"fig9": result}, str(tmp_path / name)))

    def test_clean_exit_zero(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.json", 0.38)
        b = self.write(tmp_path, "b.json", 0.38)
        assert main(["compare", a, b]) == 0
        assert "no drift" in capsys.readouterr().out

    def test_drift_exit_one(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.json", 0.38)
        b = self.write(tmp_path, "b.json", 0.55)
        assert main(["compare", a, b]) == 1
        out = capsys.readouterr().out
        assert "clustered" in out and "drifted" in out


def test_render_diff_empty():
    assert "no drift" in render_diff([])
