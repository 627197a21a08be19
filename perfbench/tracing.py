"""Traced run: per-layer spans and counts around the calls into `kwlab`.

Run as a child process,

    PYTHONPATH=src python perfbench/tracing.py DUMP.json -- verify --suite ...

it imports `kwlab.cli`, wraps the public functions listed in SPANS and
COUNTS, runs `kwlab.cli.main(argv)` and, at exit, writes what it recorded
to DUMP.json.  Spans (name, start, end, parent) stay in memory until then.
The program itself is not changed: every wrapper is installed from here.

`summarize` turns the dumps of one invocation into the per-layer metrics.
"""

from __future__ import annotations

import json
import sys
import time

# Timed spans: (module, attribute) -> span name.  A span's `.s` is its
# inclusive time and `.self_s` that time minus its child spans.
SPANS = {
    ("kwlab.cli", "main"): "cli.main",
    ("kwlab.cli", "suite_energy"): "cli.suite_energy",
    ("kwlab.cli", "suite_decomposition"): "cli.suite_decomposition",
    ("kwlab.cli", "suite_models"): "cli.suite_models",
    ("kwlab.cli", "suite_algebra"): "cli.suite_algebra",
    ("kwlab.energy", "check_energy_identity"): "energy.check_energy_identity",
    ("kwlab.energy", "c_model"): "energy.c_model",
    ("kwlab.energy", "theorem_bound_report"): "energy.theorem_bound_report",
    ("kwlab.energy", "perturbation_chain"): "energy.perturbation_chain",
    ("kwlab.quadrature", "integrate_panels"): "quadrature.integrate_panels",
    ("kwlab.forms", "calibrate"): "forms.calibrate",
    ("kwlab.reduced", "shoot_for_decay"): "reduced.shoot_for_decay",
    ("kwlab.reduced", "integrate_ivp"): "reduced.integrate_ivp",
    ("kwlab.reduced", "indicial_expand"): "reduced.indicial_expand",
    ("kwlab.decomp", "decomposition_suite"): "decomp.decomposition_suite",
    ("kwlab.halfspace", "kw_residual_flat_combined"):
        "halfspace.kw_residual_flat_combined",
    ("kwlab.report", "write_checks_json"): "report.write_checks_json",
}

# Hot kernels: counted, not timed, so that tracing stays cheap.
COUNTS = {
    ("kwlab.energy", "densities"): "energy.densities.calls",
    ("kwlab.profiles", "pole_scalars"): "profiles.pole_scalars.calls",
    ("kwlab.forms", "kw_residual_norm"): "forms.kw_residual_norm.calls",
    ("kwlab.reduced", "ReducedSystem.rhs"): "reduced.rhs.calls",
    ("kwlab.decomp", "project"): "decomp.project.calls",
}
WEDGE = ("kwlab.forms", "wedge_bracket_matrix")

# Spans whose call count is a per-layer metric too.
SPAN_CALLS = ("energy.perturbation_chain", "quadrature.integrate_panels",
              "reduced.integrate_ivp", "halfspace.kw_residual_flat_combined")


class Recorder:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {}
        self.in_calibrate = 0
        self.cache_info = None  # pole_scalars' lru_cache statistics

    def cell(self, key: str) -> list:
        """The one-element list that holds counter `key`."""
        return self.counts.setdefault(key, [0])

    def add(self, key: str, n=1):
        self.cell(key)[0] += n

    def timed(self, name: str, fn, after=None):
        """Wrap `fn` in a span; `after(rec, fn, args, kwargs, result)` may
        add counts taken from the call's arguments or result."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if after is not None:
                after(self, fn, args, kwargs, result)
            return result

        return wrapper

    def counted(self, key: str, fn):
        cell = self.cell(key)

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self) -> dict:
        return {"spans": self.spans,
                "counts": {k: v[0] for k, v in self.counts.items()}}


def _bound(fn, args, kwargs) -> dict:
    import inspect

    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _panels_after(rec, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    rec.add("quadrature.integrand_evals", (len(a["edges"]) - 1) * a["nodes"])


def _shoot_after(rec, fn, args, kwargs, result):
    rec.add("reduced.classifications", len(result.trace))


def _decomp_after(rec, fn, args, kwargs, result):
    rec.add("decomp.vectors", _bound(fn, args, kwargs)["n"])


# Counts taken from the arguments or result of a timed call.
_AFTER = {"quadrature.integrate_panels": _panels_after,
          "reduced.shoot_for_decay": _shoot_after,
          "decomp.decomposition_suite": _decomp_after}


def _resolve(module, attr):
    obj = module
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def _rebind(modules, attr: str, orig, wrapper):
    """Point every binding of `orig` at `wrapper`: the defining module, each
    module that did `from .x import f`, and module-level dicts such as the
    CLI's suite table.  Methods are replaced on their class."""
    if "." in attr:
        owner, name = attr.rsplit(".", 1)
        setattr(_resolve(modules[0], owner), name, wrapper)
        return
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapper)
            elif type(val) is dict:
                for dk, dv in val.items():
                    if dv is orig:
                        val[dk] = wrapper


def install(rec: Recorder) -> list:
    """Install every wrapper; returns the targets that do not exist."""
    import importlib

    importlib.import_module("kwlab.cli")
    kw = [m for n, m in sorted(sys.modules.items())
          if n == "kwlab" or n.startswith("kwlab.")]
    missing = []

    def targets(table):
        for (modname, attr), name in table.items():
            try:
                mod = sys.modules[modname]
                yield mod, attr, _resolve(mod, attr), name
            except (KeyError, AttributeError):
                missing.append(f"{modname}.{attr}")

    for mod, attr, orig, name in targets(SPANS):
        wrapper = rec.timed(name, orig, _AFTER.get(name))
        if name == "reduced.integrate_ivp":
            wrapper = _ivp_wrapper(rec, wrapper)
        if name == "forms.calibrate":
            wrapper = _calibrate_wrapper(rec, wrapper)
        _rebind([mod] + kw, attr, orig, wrapper)

    for mod, attr, orig, name in targets(COUNTS):
        _rebind([mod] + kw, attr, orig, rec.counted(name, orig))
        if name == "profiles.pole_scalars.calls":
            rec.cache_info = getattr(orig, "cache_info", None)

    for mod, attr, orig, name in targets({WEDGE: "forms.wedge_bracket_matrix"}):
        _rebind([mod] + kw, attr, orig, _wedge_wrapper(rec, orig))
    return missing


def _ivp_wrapper(rec: Recorder, timed):
    """Counts accepted and attempted Dormand-Prince steps of the runs that
    return, and the runs that exit by blow-up.  A run makes one rhs call to
    start and six per attempted step, so attempted = (rhs calls - 1) / 6."""
    from kwlab.reduced import BlowUpError

    def wrapper(*args, **kwargs):
        rhs = rec.cell("reduced.rhs.calls")
        rhs0 = rhs[0]
        try:
            res = timed(*args, **kwargs)
        except BlowUpError:
            rec.add("reduced.blowup_exits")
            raise
        rec.add("reduced.accepted_steps", len(res.ys) - 1)
        rec.add("reduced.attempted_steps_returned", (rhs[0] - rhs0 - 1) / 6)
        return res

    return wrapper


def _calibrate_wrapper(rec: Recorder, timed):
    def wrapper(*args, **kwargs):
        rec.in_calibrate += 1
        try:
            return timed(*args, **kwargs)
        finally:
            rec.in_calibrate -= 1

    return wrapper


def _wedge_wrapper(rec: Recorder, fn):
    """Counts wedge_bracket_matrix calls by the dtype of the result: object
    (the exact Fraction path), integer, or float; float calls made while
    calibrating are kept apart."""
    cell = {k: rec.cell(f"forms.wedge_bracket_matrix.calls_{k}")
            for k in ("exact", "int", "float", "float_calibrate")}
    by_kind = {"O": cell["exact"], "i": cell["int"], "u": cell["int"]}
    flt, flt_cal = cell["float"], cell["float_calibrate"]

    def wrapper(u, v):
        out = fn(u, v)
        counter = by_kind.get(out.dtype.kind)
        if counter is None:
            counter = flt_cal if rec.in_calibrate else flt
        counter[0] += 1
        return out

    return wrapper


# ---------------------------------------------------------------------------
# summary: dumps of one invocation -> per-layer metrics
# ---------------------------------------------------------------------------

def span_times(spans: list) -> dict:
    """name -> [calls, inclusive s, self s].  Inclusive time counts only
    the outermost span of a name, so recursion is not counted twice."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out = {}
    for i, (name, t0, t1, parent) in enumerate(spans):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[2] += (t1 - t0) - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row[1] += t1 - t0
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def summarize(dumps: list) -> dict:
    """Per-layer metrics (name -> (value, unit)) from the dumps of the
    commands of one traced invocation."""
    times, counts = {}, {}
    hits = misses = 0
    for d in dumps:
        for name, (n, s, self_s) in span_times(d["spans"]).items():
            row = times.setdefault(name, [0, 0.0, 0.0])
            row[0] += n
            row[1] += s
            row[2] += self_s
        for key, v in d["counts"].items():
            counts[key] = counts.get(key, 0) + v
        hits += d.get("cache", {}).get("hits", 0)
        misses += d.get("cache", {}).get("misses", 0)

    m = {}
    for name in SPANS.values():
        n, s, self_s = times.get(name, (0, 0.0, 0.0))
        m[f"{name}.s"] = (s, "s")
        m[f"{name}.self_s"] = (self_s, "s")
        if name in SPAN_CALLS:
            m[f"{name}.calls"] = (n, "count")
    c = counts.get
    for key in (*COUNTS.values(), "quadrature.integrand_evals",
                "forms.wedge_bracket_matrix.calls_float",
                "forms.wedge_bracket_matrix.calls_exact",
                "forms.wedge_bracket_matrix.calls_int",
                "reduced.classifications", "reduced.accepted_steps",
                "reduced.blowup_exits"):
        m[key] = (c(key, 0), "count")
    m["quadrature.evals_per_s"] = (
        _ratio(c("quadrature.integrand_evals", 0),
               m["quadrature.integrate_panels.s"][0]), "1/s")
    m["profiles.pole_scalars.hit_ratio"] = (_ratio(hits, hits + misses), "ratio")
    m["reduced.step_accept_ratio"] = (
        _ratio(c("reduced.accepted_steps", 0),
               c("reduced.attempted_steps_returned", 0)), "ratio")
    m["decomp.vectors_per_s"] = (
        _ratio(c("decomp.vectors", 0), m["decomp.decomposition_suite.s"][0]), "1/s")
    return m


def main(argv: list) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracing.py DUMP.json -- KWLAB_ARGS...", file=sys.stderr)
        return 2
    rec = Recorder()
    missing = install(rec)
    if missing:
        print("tracing: not found, left unwrapped: " + ", ".join(missing),
              file=sys.stderr)
    import kwlab.cli

    try:
        return kwlab.cli.main(argv[2:])
    finally:
        dump = rec.dump()
        if rec.cache_info is not None:
            ci = rec.cache_info()
            dump["cache"] = {"hits": ci.hits, "misses": ci.misses}
        with open(argv[0], "w") as fh:
            json.dump(dump, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
