import numpy as np
import pytest

from kwlab.energy import bound_constants, cutoff_sweep, full_line_norms
from kwlab.forms import calibrate
from kwlab.jets import Jet
from kwlab.profiles import nahm_pole_invariant_solution
from kwlab.quadrature import QuadratureSpec

_ACCEPTANCE_LINES = []


def jet_exp(x: Jet) -> Jet:
    """exp of a jet, for test profiles with exponential decay."""
    e = np.exp(x.f)
    return Jet(e, e * x.d)


def record_acceptance(name: str, passed: bool, detail: str = ""):
    _ACCEPTANCE_LINES.append((name, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, detail in _ACCEPTANCE_LINES:
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] {name}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def conv():
    return calibrate()


@pytest.fixture(scope="session")
def quad_spec():
    return QuadratureSpec()


@pytest.fixture(scope="session")
def full_line(conv, quad_spec):
    """The reference solution's from-zero pass, as the energy suite builds it."""
    return full_line_norms(conv, nahm_pole_invariant_solution(), quad_spec)


@pytest.fixture(scope="session")
def sweep(conv, quad_spec):
    return cutoff_sweep(conv, quad_spec)


@pytest.fixture(scope="session")
def consts(conv, full_line):
    return bound_constants(conv, full_line)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)
