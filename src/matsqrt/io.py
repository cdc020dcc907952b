"""File formats: matrix text files, trace CSVs, report JSON lines.

All floating-point output uses 17 significant digits so that values
round-trip exactly and repeated runs produce byte-identical files.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Sequence

import numpy as np

from .gd import TraceRecord

FLOAT_FMT = "%.17g"


class MatrixFormatError(ValueError):
    """Raised when a matrix text file violates the format contract."""


def format_float(x: float) -> str:
    return FLOAT_FMT % float(x)


@contextmanager
def _opened(path_or_file, mode: str):
    """An open file as given, or the path opened in ``mode`` and closed after."""
    if hasattr(path_or_file, "write") or hasattr(path_or_file, "read"):
        yield path_or_file
    else:
        with open(path_or_file, mode) as f:
            yield f


def read_matrix(path_or_file) -> np.ndarray:
    """Read a dense square matrix from the text format.

    The first significant line holds the order n; each of the next n lines
    holds n whitespace-separated floats.  Lines whose first non-blank
    character is '#' are comments.
    """
    with _opened(path_or_file, "r") as f:
        lines = []
        for raw in f:
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            lines.append(stripped)
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
    with _opened(path_or_file, "w") as f:
        f.write(f"{A.shape[0]}\n")
        for row in A:
            f.write(" ".join(format_float(x) for x in row))
            f.write("\n")


TRACE_HEADER = tuple(name for name in TraceRecord._fields if name != "err_fro")


def write_trace_csv(path_or_file, trace) -> None:
    """Write the ``TRACE_HEADER`` columns of an iteration trace, row by row.

    ``sigma_min`` and ``opnorm`` are certified bounds, exact at t = 0, at
    each spectrum refresh of the loop and at the last row.  The bytes are
    those of ``write_table_csv`` over the same columns; ``eta`` and
    ``err_norm`` are constant on the drawn and the undrawn rows, so each
    of their values is formatted once, and a row is one ``%``.
    """
    n = len(trace)
    eta, drawn, undrawn = (FLOAT_FMT % x for x in (trace.step_size, trace.delta, 0.0))
    err = [undrawn] * n
    on = slice(1, 1 + len(trace.drawn_fro))
    err[on] = [drawn] * len(err[on])
    floats = (getattr(trace, name).tolist() for name in TRACE_HEADER[1:5])
    row = "%d" + f",{FLOAT_FMT}" * 4 + f",{eta},%s\n"
    with _opened(path_or_file, "w") as f:
        f.write(",".join(TRACE_HEADER) + "\n")
        f.writelines(map(row.__mod__, zip(range(n), *floats, err)))


def report_json_line(report) -> str:
    """One-line JSON for a certificate report."""
    import json  # here, so that the commands that write no report do not load it

    payload = {
        "property": report.property_name,
        "samples": report.samples,
        "worst_margin": report.worst_margin,
        "pass": report.passed,
    }
    return json.dumps(payload, separators=(", ", ": "))


def write_reports_json(path_or_file, reports: Iterable) -> None:
    with _opened(path_or_file, "w") as f:
        for report in reports:
            f.write(report_json_line(report))
            f.write("\n")


def write_table_csv(path_or_file, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV table, formatting floats with 17 significant digits."""

    def cell(x) -> str:
        if isinstance(x, (float, np.floating)):
            return FLOAT_FMT % x
        if isinstance(x, bool):
            return "true" if x else "false"
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        if x is None:
            return ""
        return str(x)

    with _opened(path_or_file, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(map(cell, row)) + "\n")
