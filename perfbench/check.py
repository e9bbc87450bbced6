"""Output checks for one dflsim CLI invocation.

A cell passes when the process exited 0, its CSV header equals
the program's ``CSV_COLUMNS``, it has ``rounds + 1`` rows of finite
values, and (for full-length runs) the final ``loss_mean`` closes at
least ``MIN_GAP_CLOSED`` of the gap between the initial loss and the
ridge optimum f*. A sweep must also list every cell in ``manifest.csv``.
A cell that fails counts as ``repeats`` failed runs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

MIN_GAP_CLOSED = 0.99


@dataclass
class CheckResult:
    cells: int
    failed_cells: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str, cells: int = 1) -> None:
        self.failed_cells += cells
        self.problems.append(problem)


def check_csv(path: Path, columns: tuple[str, ...], rounds: int, f_star: float | None) -> str | None:
    """The first problem found in one cell's CSV, or None.

    f_star None skips the convergence test (set-up runs stop after one round).
    """
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != tuple(columns):
        return f"{path.name}: header {rows[0] if rows else None} != {list(columns)}"
    body = rows[1:]
    if len(body) != rounds + 1:
        return f"{path.name}: {len(body)} rows, expected rounds + 1 = {rounds + 1}"
    try:
        values = [[float(v) for v in row] for row in body]
    except ValueError as exc:
        return f"{path.name}: {exc}"
    if any(len(row) != len(columns) for row in values):
        return f"{path.name}: a row has the wrong number of fields"
    if not all(math.isfinite(v) for row in values for v in row):
        return f"{path.name}: non-finite value"
    if f_star is not None:
        loss_col = columns.index("loss_mean")
        initial, final = values[0][loss_col], values[-1][loss_col]
        closed = (initial - final) / (initial - f_star)
        if not closed >= MIN_GAP_CLOSED:
            return (
                f"{path.name}: loss {initial:.6g} -> {final:.6g} closes {closed:.4%} of the gap "
                f"to f*={f_star:.6g}, need {MIN_GAP_CLOSED:.0%}"
            )
    return None


def check_output(
    out_dir: Path,
    returncode: int,
    columns: tuple[str, ...],
    sweep: bool,
    algorithms: tuple[str, ...],
    rounds: int,
    f_star: float | None,
) -> CheckResult:
    """Check one invocation's output directory; one cell per algorithm."""
    result = CheckResult(cells=len(algorithms))
    if returncode != 0:
        result.fail(f"exit code {returncode}", cells=len(algorithms))
        return result
    if not sweep:
        csvs = sorted(out_dir.glob("*.csv"))
        if len(csvs) != 1:
            result.fail(f"expected one CSV, found {[p.name for p in csvs]}")
        elif (problem := check_csv(csvs[0], columns, rounds, f_star)) is not None:
            result.fail(problem)
        return result
    manifest = out_dir / "manifest.csv"
    if not manifest.is_file():
        result.fail("manifest.csv missing", cells=len(algorithms))
        return result
    with open(manifest, encoding="utf-8", newline="") as fh:
        listed = {row["algorithm"]: row for row in csv.DictReader(fh)}
    for algorithm in algorithms:
        row = listed.get(algorithm)
        if row is None:
            result.fail(f"manifest.csv does not list {algorithm}")
        elif not (out_dir / row["csv_path"]).is_file():
            result.fail(f"manifest.csv lists missing {row['csv_path']}")
        elif (problem := check_csv(out_dir / row["csv_path"], columns, rounds, f_star)) is not None:
            result.fail(problem)
    return result
