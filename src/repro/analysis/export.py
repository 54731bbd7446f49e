"""Machine-readable export of experiment results.

``python -m repro experiment all --json results.json`` (or ``--csv
DIR``) writes every regenerated table/figure for downstream analysis —
plotting notebooks, regression dashboards, cross-run diffs.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict

from repro.errors import ConfigurationError
from repro.util.atomic_io import atomic_write_text, atomic_writer


def results_to_dict(results: Dict[str, "ExperimentResult"]) -> dict:
    """Convert an experiment-id → result mapping into plain data."""
    return {key: result.as_dict() for key, result in results.items()}


def write_json(results: Dict[str, "ExperimentResult"], path: str) -> Path:
    """Write every result into one JSON document; returns the path."""
    return atomic_write_text(
        path, json.dumps(results_to_dict(results), indent=2, sort_keys=True)
    )


def write_csv(results: Dict[str, "ExperimentResult"], directory: str
              ) -> Dict[str, Path]:
    """Write one CSV file per experiment into ``directory``.

    Returns the mapping experiment-id → file path.
    """
    base = Path(directory)
    if base.exists() and not base.is_dir():
        raise ConfigurationError(f"{directory} exists and is not a directory")
    base.mkdir(parents=True, exist_ok=True)
    written: Dict[str, Path] = {}
    for key, result in results.items():
        target = base / f"{key}.csv"
        with atomic_writer(target, newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(result.headers)
            for row in result.rows:
                writer.writerow(["" if cell is None else cell for cell in row])
        written[key] = target
    return written


def read_json(path: str) -> dict:
    """Load a previously exported JSON document."""
    return json.loads(Path(path).read_text())
