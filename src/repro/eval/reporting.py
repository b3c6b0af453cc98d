"""Plain-text rendering and JSON persistence of experiment results.

The benchmark harness prints these tables so ``pytest benchmarks/``
output can be compared against the paper's figures row by row; the
JSON helpers let the CLI's ``run``/``fleet collect`` paths write a full
:class:`ExperimentResult` to disk for downstream tooling.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..errors import ExperimentError
from .spec import ExperimentResult

RESULT_FORMAT = "flock-result-v1"


def _format_value(value) -> str:
    if isinstance(value, float):
        if value != 0 and (abs(value) < 1e-3 or abs(value) >= 1e5):
            return f"{value:.3e}"
        return f"{value:.4f}".rstrip("0").rstrip(".") or "0"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def format_table(rows: Sequence[Dict], columns: Optional[Sequence[str]] = None) -> str:
    """Render dict rows as an aligned text table."""
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    cells = [[_format_value(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(row[i]) for row in cells))
        for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    rule = "  ".join("-" * w for w in widths)
    body = "\n".join(
        "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        for row in cells
    )
    return f"{header}\n{rule}\n{body}"


def render_result(result: ExperimentResult, columns: Optional[Sequence[str]] = None) -> str:
    """Render a full experiment result with its provenance header."""
    parts = [
        f"== {result.experiment}: {result.description} ==",
    ]
    if result.notes:
        parts.append(f"paper: {result.notes}")
    parts.append(format_table(result.rows, columns))
    return "\n".join(parts)


def print_result(result: ExperimentResult, columns: Optional[Sequence[str]] = None) -> None:
    print()
    print(render_result(result, columns))


def result_to_dict(result: ExperimentResult) -> Dict:
    """Serialize an experiment result (rows are already plain dicts)."""
    return {
        "format": RESULT_FORMAT,
        "experiment": result.experiment,
        "description": result.description,
        "notes": result.notes,
        "rows": [dict(row) for row in result.rows],
    }


def result_from_dict(payload: Dict) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from :func:`result_to_dict`.

    Malformed documents (truncated writes, hand edits) raise
    :class:`~repro.errors.ExperimentError`, matching the wire-codec
    contract, so CLI consumers report a clean error, not a traceback.
    """
    if not isinstance(payload, dict):
        raise ExperimentError(
            f"result payload must be an object, got {type(payload).__name__}"
        )
    if payload.get("format") != RESULT_FORMAT:
        raise ExperimentError(
            f"not a {RESULT_FORMAT} document: format={payload.get('format')!r}"
        )
    if "experiment" not in payload:
        raise ExperimentError(
            f"{RESULT_FORMAT} document is missing its 'experiment' key"
        )
    rows = payload.get("rows", [])
    if not isinstance(rows, list) or not all(
        isinstance(row, dict) for row in rows
    ):
        raise ExperimentError(
            f"{RESULT_FORMAT} rows must be a list of objects"
        )
    return ExperimentResult(
        experiment=payload["experiment"],
        description=payload.get("description", ""),
        rows=[dict(row) for row in rows],
        notes=payload.get("notes", ""),
    )


def save_result(result: ExperimentResult, path: Union[str, Path]) -> Path:
    """Write an experiment result to a JSON file; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as handle:
        json.dump(result_to_dict(result), handle)
    return path


def load_result(path: Union[str, Path]) -> ExperimentResult:
    """Read an experiment result from a JSON file."""
    with Path(path).open() as handle:
        return result_from_dict(json.load(handle))
