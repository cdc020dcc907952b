import io as std_io
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from matsqrt import io
from matsqrt.analysis import CertificateReport
from matsqrt.gd import IterationTrace
from matsqrt.io import MatrixFormatError, read_matrix, write_matrix

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e150, max_value=1e150
)


@given(st.integers(1, 6), st.integers(0, 10_000))
def test_matrix_round_trip_exact(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) * 10.0 ** rng.integers(-12, 12)
    buf = std_io.StringIO()
    write_matrix(buf, A)
    back = read_matrix(std_io.StringIO(buf.getvalue()))
    assert np.array_equal(back, A)  # 17 significant digits round-trip float64


@given(finite_floats)
def test_format_float_round_trips(x):
    assert float(io.format_float(x)) == x


def test_read_matrix_comments_and_blanks():
    text = "# a comment\n\n2\n1 0\n\n# another\n0 1\n"
    A = read_matrix(std_io.StringIO(text))
    assert np.array_equal(A, np.eye(2))


def test_read_matrix_from_path(tmp_path):
    p = tmp_path / "m.txt"
    write_matrix(p, np.diag([4.0, 2.0]))
    assert np.array_equal(read_matrix(p), np.diag([4.0, 2.0]))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "# only comments\n",
        "x\n1 2\n3 4\n",
        "0\n",
        "2\n1 0\n",
        "2\n1 0 0\n0 1\n",
        "2\n1 spam\n0 1\n",
        "2\n1 inf\n0 1\n",
        "2\n1 nan\n0 1\n",
        "2\n1 0\n0 1\n2 3\n",
    ],
)
def test_read_matrix_rejects_malformed(text):
    with pytest.raises(MatrixFormatError):
        read_matrix(std_io.StringIO(text))


def test_trace_csv_header_and_shape():
    from matsqrt import GdConfig, run

    cfg = GdConfig(eta=0.02, tol=1e-6, init="explicit", init_matrix=math.sqrt(4.0) * np.eye(2))
    _, trace = run(np.diag([4.0, 1.0]), cfg)
    buf = std_io.StringIO()
    io.write_trace_csv(buf, trace)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,residual_fro,objective,sigma_min,opnorm,eta,err_norm"
    assert len(lines) == len(trace) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == trace.residual_fro[0]
    assert all(len(line.split(",")) == 7 for line in lines[1:])


def test_trace_csv_golden_bytes():
    # the file contract: t as an integer, every float with 17 significant
    # digits, and err_fro kept in memory only; objective, eta and err_norm
    # are derived from the stored columns, the step size and delta
    nan, inf = float("nan"), float("inf")
    trace = IterationTrace(
        ([0.1, 1e-17, nan], [5e-324, -0.0, -inf], [1.5, 2.0, inf]),
        0.25,
        converged=False,
        stop_reason="diverged",
        delta=1e-7,
        drawn_fro=[3e-7],
    )
    buf = std_io.StringIO()
    io.write_trace_csv(buf, trace)
    assert buf.getvalue() == (
        "t,residual_fro,objective,sigma_min,opnorm,eta,err_norm\n"
        "0,0.10000000000000001,0.010000000000000002,4.9406564584124654e-324,1.5,0.25,0\n"
        "1,1.0000000000000001e-17,1.0000000000000001e-34,-0,2,0.25,9.9999999999999995e-08\n"
        "2,nan,nan,-inf,inf,0.25,0\n"
    )
    recs = list(trace.records())
    assert [r.t for r in recs] == [0, 1, 2]
    assert [r.err_fro for r in recs] == [0.0, 3e-7, 0.0]
    for rec in recs:
        assert type(rec.t) is int
        assert all(type(x) is float for x in rec[1:])


def _traces_for_the_csv_writer():
    from matsqrt import ErrorModel, GdConfig, run_perturbed

    M = np.diag([4.0, 2.0, 1.0])
    cfg = GdConfig(c_step=1.0, tol=1e-6, max_iters=40)
    nan, inf = float("nan"), float("inf")
    yield run_perturbed(M, cfg, ErrorModel(1e-7, "every-step", seed=1))[1]
    yield run_perturbed(M, cfg, ErrorModel(1e-7, "first-step-only", seed=1))[1]
    yield IterationTrace(
        ([nan, inf, -0.0, 0.0, 5e-324], [-inf, nan, -0.0, 1e300, 0.5], [inf, -0.0, nan, 2.0, 3.0]),
        -0.0,
        converged=False,
        stop_reason="diverged",
        delta=inf,
        drawn_fro=[nan, -0.0],
    )


@pytest.mark.parametrize(
    "trace",
    list(_traces_for_the_csv_writer()),
    ids=["every-step", "first-step-only", "nan-inf-zero"],
)
def test_trace_csv_is_the_table_writer_over_its_columns(trace):
    # write_trace_csv formats its constant columns once; the bytes must be
    # those of the generic table writer, cell by cell
    got, want = std_io.StringIO(), std_io.StringIO()
    io.write_trace_csv(got, trace)
    columns = [getattr(trace, name) for name in io.TRACE_HEADER]
    io.write_table_csv(want, io.TRACE_HEADER, zip(*columns))
    assert got.getvalue() == want.getvalue()


def test_report_json_line_golden():
    rep = CertificateReport(
        property_name="smoothness", samples=3, worst_margin=0.5, passed=True
    )
    line = io.report_json_line(rep)
    assert line == '{"property": "smoothness", "samples": 3, "worst_margin": 0.5, "pass": true}'
    assert json.loads(line)["pass"] is True


def test_write_reports_json_one_object_per_line():
    reps = [
        CertificateReport("a", 1, 0.0, True),
        CertificateReport("b", 2, -1.0, False),
    ]
    buf = std_io.StringIO()
    io.write_reports_json(buf, reps)
    lines = buf.getvalue().splitlines()
    assert len(lines) == 2
    assert [json.loads(l)["property"] for l in lines] == ["a", "b"]


def test_table_csv_cell_formats():
    buf = std_io.StringIO()
    io.write_table_csv(
        buf,
        ("a", "b", "c", "d", "e"),
        [
            (1, 0.5, True, None, "gd"),
            (2, 1e-17, False, None, "x"),
            (10_000_000, 0.25, True, None, "y"),
        ],
    )
    lines = buf.getvalue().splitlines()
    assert lines[0] == "a,b,c,d,e"
    assert lines[1] == "1,0.5,true,,gd"
    assert lines[2] == "2,1.0000000000000001e-17,false,,x"
    assert lines[3] == "10000000,0.25,true,,y"
