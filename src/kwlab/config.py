"""Suite configuration: a flat key-value text format plus CLI overrides.

Config files hold one ``key = value`` pair per line (# comments allowed).
Recognised keys mirror the CLI flags; an unknown key is rejected at parse
time, so that a typo does not pass silently.  No key or flag sets a
tolerance: each gate's tolerance is a constant of its check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .quadrature import QuadratureSpec

SUITES = ("algebra", "models", "decomposition", "energy", "solver", "all")

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _boolean(val: str) -> bool:
    try:
        return _BOOL[val.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {val!r}") from None


@dataclass
class SuiteConfig:
    suite: str = "all"
    seed: int = 42
    n: int = 10000
    n_pert: int = 20
    eps: float = 0.05
    y_split: float = 1.0
    y_max: float = 30.0
    panels: int = 24
    nodes_per_panel: int = 16
    out: str | None = None
    json_out: bool = False
    flip_star_sign: bool = False

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}; pick one of {SUITES}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.n_pert < 1:
            raise ValueError("n_pert must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        # raises on a bad y range or panel layout, and on a bad eps: the
        # energy identities integrate from eps itself
        spec = self.quadrature()
        try:
            spec.refined()
        except ValueError as e:
            raise ValueError(f"{e} on the refined layout (twice the panels) "
                             "of c-model-stability") from None

    def quadrature(self) -> QuadratureSpec:
        return QuadratureSpec(
            eps=self.eps,
            y_split=self.y_split,
            y_max=self.y_max,
            panels=self.panels,
            nodes_per_panel=self.nodes_per_panel,
        )


_KEY_TYPES = {
    "suite": str,
    "seed": int,
    "n": int,
    "n_pert": int,
    "eps": float,
    "y_split": float,
    "y_max": float,
    "panels": int,
    "nodes_per_panel": int,
    "out": str,
    "json_out": _boolean,
    "flip_star_sign": _boolean,
}


_TYPE_NAMES = {int: "an integer", float: "a float", _boolean: "a boolean"}


def _parse_value(ln: int, key: str, typ, val: str):
    try:
        return typ(val)
    except ValueError:
        raise ValueError(f"line {ln}: {key} expects {_TYPE_NAMES[typ]}, "
                         f"got {val!r}") from None


def parse_config_text(text: str) -> dict:
    values: dict = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _KEY_TYPES:
            raise ValueError(f"line {ln}: unknown config key {key!r}")
        values[key] = _parse_value(ln, key, _KEY_TYPES[key], val)
    return values


def load_config(path: str) -> dict:
    with open(path) as fh:
        return parse_config_text(fh.read())


def build_config(file_values: dict | None, cli_values: dict) -> SuiteConfig:
    """CLI flags override file values override defaults."""
    merged = dict(file_values or {})
    merged.update((k, v) for k, v in cli_values.items() if v is not None)
    return SuiteConfig(**merged)
