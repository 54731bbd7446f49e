"""Diff two exported result sets: regression tracking across runs.

``repro compare OLD.json NEW.json`` compares two documents written by
``repro experiment all --json`` and reports every numeric cell that
drifted beyond :data:`DEFAULT_TOLERANCE` — the tool a maintainer runs
after touching a generator or a page table to see exactly which figures
moved.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.report import render_table

#: Default relative drift considered significant.
DEFAULT_TOLERANCE = 0.02


def _rows_by_label(experiment: dict) -> Dict[str, list]:
    return {str(row[0]): row[1:] for row in experiment["rows"]}


def diff_results(
    old: dict,
    new: dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> List[List]:
    """Compare two exported documents; returns drift rows.

    Each drift row is ``[experiment, row label, column, old, new,
    relative change]``.  Structural changes (experiments, rows, or
    columns present on only one side) are reported with ``None`` values.
    """
    drifts: List[List] = []
    for key in sorted(set(old) | set(new)):
        if key not in old or key not in new:
            side = "added" if key not in old else "removed"
            drifts.append([key, f"<experiment {side}>", "-", None, None, None])
            continue
        old_exp, new_exp = old[key], new[key]
        old_rows = _rows_by_label(old_exp)
        new_rows = _rows_by_label(new_exp)
        headers = new_exp["headers"][1:]
        for label in sorted(set(old_rows) | set(new_rows)):
            if label not in old_rows or label not in new_rows:
                side = "added" if label not in old_rows else "removed"
                drifts.append([key, f"{label} <{side}>", "-", None, None, None])
                continue
            for column, old_cell, new_cell in zip(
                headers, old_rows[label], new_rows[label]
            ):
                if not isinstance(old_cell, (int, float)) or not isinstance(
                    new_cell, (int, float)
                ):
                    continue
                if old_cell == new_cell:
                    continue
                base = abs(old_cell) if old_cell else 1.0
                change = (new_cell - old_cell) / base
                if abs(change) >= tolerance:
                    drifts.append(
                        [key, label, column, old_cell, new_cell,
                         round(change, 4)]
                    )
    return drifts


def render_diff(drifts: List[List]) -> str:
    """Human-readable drift table (or an all-clear line)."""
    if not drifts:
        return "no drift beyond tolerance"
    return render_table(
        ["experiment", "row", "column", "old", "new", "rel change"],
        drifts,
        title=f"{len(drifts)} drifted cells",
        precision=4,
    )
