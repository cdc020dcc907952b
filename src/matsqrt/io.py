"""File formats: matrix text files, trace CSVs, report JSON lines.

All floating-point output uses 17 significant digits so that values
round-trip exactly and repeated runs produce byte-identical files.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

import numpy as np

FLOAT_FMT = "%.17g"


class MatrixFormatError(ValueError):
    """Raised when a matrix text file violates the format contract."""


def format_float(x: float) -> str:
    return FLOAT_FMT % float(x)


def _open_for(path_or_file, mode: str):
    if hasattr(path_or_file, "write") or hasattr(path_or_file, "read"):
        return path_or_file, False
    return open(path_or_file, mode), True


def read_matrix(path_or_file) -> np.ndarray:
    """Read a dense square matrix from the text format.

    The first significant line holds the order n; each of the next n lines
    holds n whitespace-separated floats.  Lines whose first non-blank
    character is '#' are comments.
    """
    f, should_close = _open_for(path_or_file, "r")
    try:
        lines = []
        for raw in f:
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            lines.append(stripped)
    finally:
        if should_close:
            f.close()
    if not lines:
        raise MatrixFormatError("empty matrix file")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise MatrixFormatError(f"first line must be the order, got {lines[0]!r}") from exc
    if n < 1:
        raise MatrixFormatError(f"order must be >= 1, got {n}")
    if len(lines) - 1 != n:
        raise MatrixFormatError(
            f"expected {n} rows after the header, found {len(lines) - 1}"
        )
    rows = []
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != n:
            raise MatrixFormatError(
                f"row {i} has {len(parts)} entries, expected {n}"
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise MatrixFormatError(f"row {i} contains a non-numeric entry") from exc
    A = np.array(rows, dtype=float)
    if not np.all(np.isfinite(A)):
        raise MatrixFormatError("matrix contains non-finite entries")
    return A


def write_matrix(path_or_file, A) -> None:
    A = np.asarray(A, dtype=float)
    f, should_close = _open_for(path_or_file, "w")
    try:
        f.write(f"{A.shape[0]}\n")
        for row in A:
            f.write(" ".join(format_float(x) for x in row))
            f.write("\n")
    finally:
        if should_close:
            f.close()


TRACE_HEADER = "t,residual_fro,objective,sigma_min,opnorm,eta,err_norm"


def write_trace_csv(path_or_file, trace) -> None:
    """Write an iteration trace with the fixed seven-column header.

    ``sigma_min`` and ``opnorm`` are certified bounds, exact at t = 0, at
    each spectrum refresh of the loop and at the last row.
    """
    f, should_close = _open_for(path_or_file, "w")
    try:
        f.write(TRACE_HEADER + "\n")
        for rec in trace.records():
            f.write(
                "%d,%s,%s,%s,%s,%s,%s\n"
                % (
                    rec.t,
                    format_float(rec.residual_fro),
                    format_float(rec.objective),
                    format_float(rec.sigma_min),
                    format_float(rec.opnorm),
                    format_float(rec.eta),
                    format_float(rec.err_norm),
                )
            )
    finally:
        if should_close:
            f.close()


def report_json_line(report) -> str:
    """One-line JSON for a certificate report."""
    payload = {
        "property": report.property_name,
        "samples": report.samples,
        "worst_margin": report.worst_margin,
        "pass": report.passed,
    }
    return json.dumps(payload, separators=(", ", ": "))


def write_reports_json(path_or_file, reports: Iterable) -> None:
    f, should_close = _open_for(path_or_file, "w")
    try:
        for report in reports:
            f.write(report_json_line(report))
            f.write("\n")
    finally:
        if should_close:
            f.close()


def write_table_csv(path_or_file, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV table, formatting floats with 17 significant digits."""

    def cell(x) -> str:
        if isinstance(x, bool):
            return "true" if x else "false"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        if isinstance(x, (float, np.floating)):
            return format_float(x)
        if x is None:
            return ""
        return str(x)

    f, should_close = _open_for(path_or_file, "w")
    try:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(cell(x) for x in row) + "\n")
    finally:
        if should_close:
            f.close()
