"""What the package exports, what a command of its CLI loads, and what its modules call."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import matsqrt

# The public names of the package, under the module each was imported from
# when the package imported every module up front.
EXPORTS = {
    "linalg": (
        "DimensionMismatchError",
        "EigenDecomposition",
        "LinalgError",
        "NotPositiveDefiniteError",
        "SingularMatrixError",
        "SpdMatrix",
        "estimate_opnorm_bound",
        "frobenius_norm",
        "solve",
        "spectral_norm",
        "sym_eig",
        "symmetrize",
    ),
    "gd": (
        "DivergenceError",
        "ErrorModel",
        "GdConfig",
        "GdError",
        "IterationTrace",
        "LostPositiveDefinitenessError",
        "TraceRecord",
        "gd_step",
        "gradient",
        "initial_iterate",
        "objective",
        "residual_fro",
        "run",
        "run_perturbed",
        "step_size_policy",
    ),
    "analysis": (
        "CertificateReport",
        "RateParams",
        "corridor_check",
        "first_error_attenuation_bound",
        "gradient_dominance_certificate",
        "rate_params",
        "saddle_location_check",
        "smoothness_certificate",
        "stability_bound",
        "stability_bound_series",
        "stability_tolerance",
        "theoretical_residual_bound",
    ),
    "baselines": (
        "NewtonConfig",
        "NewtonConvergenceError",
        "evd_sqrt",
        "newton_sqrt",
        "scalar_newton",
    ),
    "experiments": (
        "LowerBoundError",
        "LowerBoundInstance",
        "LowerBoundReport",
        "SpdInstanceSpec",
        "convergence_benchmark",
        "landscape_grid",
        "lower_bound_instance",
        "random_spd",
        "robustness_sweep",
        "run_lower_bound",
    ),
}


def test_every_export_is_the_object_of_its_module():
    names = []
    for module, exported in EXPORTS.items():
        owner = importlib.import_module(f"matsqrt.{module}")
        for name in exported:
            assert getattr(matsqrt, name) is getattr(owner, name), name
            names.append(name)
    assert sorted(matsqrt.__all__) == sorted(names)
    assert set(names) <= set(dir(matsqrt))
    with pytest.raises(AttributeError, match="no_such_name"):
        matsqrt.no_such_name


@pytest.mark.parametrize("method", ["gd", "newton", "evd"])
def test_sqrt_loads_no_certificate_or_experiment_module(tmp_path, method):
    path = tmp_path / "m.txt"
    path.write_text("2\n4 0\n0 2\n")
    argv = ["sqrt", str(path), "--method", method, "-o", str(tmp_path / "u.txt")]
    if method == "gd":  # the only method that writes a trace
        argv += ["--trace", str(tmp_path / "trace.csv")]
    unused = ("matsqrt.analysis", "matsqrt.experiments", "fractions", "json", "numpy.random")
    script = (
        "import sys\n"
        "from matsqrt import cli\n"
        f"code = cli.main({argv!r})\n"
        f"print(code, [m for m in {unused!r} if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    # the last line follows the command's own '#' echo lines
    assert (proc.stdout.splitlines()[-1], proc.stderr) == ("0 []", "")


def _dotted_calls(tree):
    """(dotted name, function, line) of each call of a module attribute, such as np.linalg.norm."""
    found = []

    def dotted(node):
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            head = dotted(node.value)
            return head and f"{head}.{node.attr}"
        return None

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = dotted(node.func)
            if name:
                found.append((name, function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_only_frobenius_norm_calls_numpys_norm():
    # one Frobenius norm for the package: a second path would miss the
    # rescaling that keeps its squares from leaving the doubles; one module
    # that computes spectra, widens and symmetrizes them; and one home for
    # the integer rule, linalg.as_int
    norm_calls, outside = {}, []
    for path in sorted(Path(matsqrt.__file__).parent.glob("*.py")):
        for name, function, line in _dotted_calls(ast.parse(path.read_text(), str(path))):
            numpy_linalg = name.startswith(("np.linalg.", "numpy.linalg."))
            if path.name != "linalg.py" and (numpy_linalg or name == "operator.index"):
                outside.append(f"{path.name}:{line} {name}")
            if numpy_linalg and name.endswith(".norm"):
                norm_calls.setdefault((path.name, function), []).append(line)
    assert list(norm_calls) == [("linalg.py", "frobenius_norm")], norm_calls
    assert outside == []
