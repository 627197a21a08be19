from fractions import Fraction

import numpy as np
import pytest

from kwlab import forms
from kwlab.energy import bound_constants, cutoff_sweep, full_line_norms
from kwlab.forms import calibrate
from kwlab.jets import Jet
from kwlab.profiles import nahm_pole_invariant_solution
from kwlab.quadrature import VOL_S3, integrate_halfline

_ACCEPTANCE_LINES = []


def jet_exp(x: Jet) -> Jet:
    """exp of a jet, for test profiles with exponential decay."""
    e = np.exp(x.f)
    return Jet(e, e * x.d)


# The exact oracles of the tests: coefficient matrices of Fractions in object
# arrays, on which the engine's kernels stay exact.  The engine itself runs
# its exact tables on int64 matrices at integer scales.

def exact_form(rows):
    """Exact coefficient matrix of a 1-form, in Fractions."""
    return np.array([[Fraction(x) for x in r] for r in rows], dtype=object)


OMEGA = exact_form(np.eye(3, dtype=int))


def star_vv(v):
    """*3 (v ^ v) as a 1-form, half the engine's [v ^ v]; exact on Fractions."""
    return forms.half_of(forms.wedge_bracket_matrix(v, v))


def one_form_norm_sq(m):
    """|u|^2 for u = sum c_ia t_i e_a, (1/2) sum c_ia^2; a Fraction on
    Fraction entries."""
    return forms.half_of(forms.frob_inner(m, m))


def l2_norm_sq(density, lo: float):
    """vol(S^3) * int_lo^inf density dy, density a pointwise norm^2: one
    density's whole pass, the reference that the energy suite's shared
    passes are held to."""
    v, e = integrate_halfline(density, lo)
    return VOL_S3 * v, VOL_S3 * e


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
def full_line(conv):
    """The reference solution's from-zero pass, as the energy suite builds it."""
    return full_line_norms(conv, nahm_pole_invariant_solution())


@pytest.fixture(scope="session")
def sweep(full_line):
    return cutoff_sweep(full_line)


@pytest.fixture(scope="session")
def consts(full_line):
    return bound_constants(full_line)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260808)
