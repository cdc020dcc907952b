import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "default",
    derandomize=True,
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def matrix_file(tmp_path):
    """Write a matrix in the text format and return its path."""

    def write(A, name="m.txt"):
        from matsqrt import io

        path = tmp_path / name
        io.write_matrix(path, np.asarray(A, dtype=float))
        return str(path)

    return write


def _count_calls(monkeypatch, name):
    from matsqrt import linalg

    calls = []
    real = getattr(linalg, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg, name, counted)
    return calls


@pytest.fixture
def sym_eig_calls(monkeypatch):
    """A list that grows by one entry on every call of ``linalg.sym_eig``."""
    return _count_calls(monkeypatch, "sym_eig")


@pytest.fixture
def opnorm_bound_calls(monkeypatch):
    """A list that grows by one entry on every ``linalg.estimate_opnorm_bound`` call."""
    return _count_calls(monkeypatch, "estimate_opnorm_bound")
