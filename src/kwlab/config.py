"""Suite configuration: a flat key-value text format plus CLI overrides.

Config files hold one ``key = value`` pair per line (# comments allowed);
`verify` and `residual` read one.  Recognised keys mirror the CLI flags; an
unknown key is rejected at parse time, so that a typo does not pass
silently.  No key or flag sets a tolerance, the quadrature layout or a
cutoff: each gate's tolerance is a constant of its check, the layout is
three constants of `quadrature`, and each integral names its lower limit.
"""

from __future__ import annotations

from typing import NamedTuple

SUITES = ("algebra", "models", "decomposition", "energy", "solver", "all")

_BOOL = {"true": True, "false": False, "1": True, "0": False,
         "yes": True, "no": False}


def _boolean(val: str) -> bool:
    try:
        return _BOOL[val.lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {val!r}") from None


class _Settings(NamedTuple):
    suite: str = "all"
    seed: int = 42
    n: int = 10000
    n_pert: int = 20
    out: str | None = None
    json_out: bool = False
    flip_star_sign: bool = False


class SuiteConfig(_Settings):
    """The settings of one command, validated when made."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        cfg = super().__new__(cls, *args, **kwargs)
        if cfg.suite not in SUITES:
            raise ValueError(f"unknown suite {cfg.suite!r}; pick one of {SUITES}")
        if cfg.n < 1:
            raise ValueError("n must be >= 1")
        if cfg.n_pert < 1:
            raise ValueError("n_pert must be >= 1")
        if cfg.seed < 0:
            raise ValueError("seed must be >= 0")
        return cfg


# each key's parser, from its default's type: a bool default gives
# _boolean, an int default int, anything else str
_KEY_TYPES = {key: {bool: _boolean, int: int}.get(type(default), str)
              for key, default in _Settings._field_defaults.items()}


_TYPE_NAMES = {int: "an integer", _boolean: "a boolean"}


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
