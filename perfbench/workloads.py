"""The benchmark's workloads: the `kwlab` CLI invocations each one runs.

A workload turns a seeded `random.Random` into one *invocation*: a list of
commands, each run as `python -m kwlab.cli ...` in a fresh interpreter, and
each paired with the check that validates its output files.  The program
sees only the generated command lines.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import validate

ACCEPTANCE_CFG = os.path.join("configs", "acceptance.cfg")

# Perturbation chains per energy-chain invocation.  The suite's fixed cost
# (six identities, c_model stability, charges, bound) is 26-30 s and each
# chain adds 0.4-0.7 s; both halves go through the same scalar quadrature,
# so a few chains show the per-chain cost without lengthening every run.
ENERGY_N_PERT = 3

# Vectors per exact-algebra decomposition run, about 0.3 ms each, so that
# an invocation (with the models and algebra suites) takes 5-8 s and a run
# holds two of them.
DECOMP_N = 15000

# `solve` trusts its series initial data only on this range of y0.
SOLVE_Y0_RANGE = (0.05, 0.2)


@dataclass(frozen=True)
class Command:
    argv: tuple  # arguments after `python -m kwlab.cli`
    check: Callable[[], validate.Outcome]  # validates the command's outputs


def energy_chain(rng: random.Random, root: str, out: str) -> list:
    # Why: nearly all of its time is the scalar quadrature, the profile jets
    # behind the pole_scalars cache, the energy densities and the float path
    # of wedge_bracket_matrix; it never touches `reduced` or `decomp`.  An
    # array-native quadrature must show its gain here.
    seed = rng.randrange(1, 2**31)
    report = os.path.join(out, "energy.json")
    argv = ("verify", "--suite", "energy",
            "--config", os.path.join(root, ACCEPTANCE_CFG),
            "--n-pert", str(ENERGY_N_PERT), "--seed", str(seed), "--out", report)
    return [Command(argv, partial(
        validate.verify_report, report, "energy", seed,
        {"perturbation-chain": {"n_pert": ENERGY_N_PERT, "failures": 0}}))]


def solver_shoot(rng: random.Random, root: str, out: str) -> list:
    # Why: all of its time is in `reduced`: about 48 bisection
    # classifications, each a longdouble Dormand-Prince run to y = 20 through
    # ReducedSystem.rhs, plus a Fraction series expansion.  It uses no
    # quadrature, so a quadrature change must leave it unchanged, and a
    # solver change must show its gain here.  The CLI offers no knob that
    # shortens one solve.
    y0 = round(rng.uniform(*SOLVE_Y0_RANGE), 6)
    profile = os.path.join(out, "profile.csv")
    log = os.path.join(out, "solve-log.json")
    argv = ("solve", "--y0", repr(y0), "--out-profile", profile, "--out-log", log)
    return [Command(argv, partial(validate.solve_outputs, profile, log, y0))]


def exact_algebra(rng: random.Random, root: str, out: str) -> list:
    # Why: it drives the `forms` layer through the exact object/Fraction path
    # of wedge_bracket_matrix, the `decomp` Fraction battery, the `halfspace`
    # Dual4 residuals and `su2`, and no quadrature or ODE.  A change that
    # unifies the su(2) representation or drops the float wedge branch shows
    # its cost to the exact path here.
    seed = rng.randrange(1, 2**31)
    commands = []
    for suite, extra, required in (
        ("decomposition", ("--n", str(DECOMP_N)),
         {"decomposition-suite": {"n": DECOMP_N, "seed": seed}}),
        ("models", (), {}),
        ("algebra", (), {}),
    ):
        report = os.path.join(out, f"{suite}.json")
        argv = ("verify", "--suite", suite, *extra, "--seed", str(seed),
                "--out", report)
        commands.append(Command(argv, partial(
            validate.verify_report, report, suite, seed, required)))
    return commands


WORKLOADS = {
    "energy-chain": energy_chain,
    "solver-shoot": solver_shoot,
    "exact-algebra": exact_algebra,
}
