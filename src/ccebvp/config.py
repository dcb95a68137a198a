"""Flat key=value run configuration.

One `key = value` per line, `#` comments; unknown and repeated keys are
errors, and a command-line flag overrides its key.  Each key sets one field
of `BoundaryData`, `SolveOptions` or `SweepPlan`, each built once from its
own defaults and checks: a failed check is a config error before any solve.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .continuation import SweepPlan
from .solver import SolveOptions
from .systems import KINDS, BoundaryData, DomainError, UsageError


class ParseError(ValueError):
    def __init__(self, message, key=None, line=None):
        where = [f"key {key!r}"] if key else []
        where += [f"line {line}"] if line else []
        ValueError.__init__(self, message + (f" ({', '.join(where)})" if where else ""))


@dataclass
class RunConfig:
    bd: BoundaryData
    options: SolveOptions
    plan: SweepPlan | None = None  # built when sweep_end is given
    out: str = "."
    quiet: bool = False


def _kind(s):
    if s not in KINDS:
        raise ParseError(f"system must be one of {sorted(KINDS)}")  # a ValueError: named as its key
    return KINDS[s]


def _flag(s):
    # a ValueError (so a ParseError naming the key) unless s is a boolean word
    return ("0", "false", "no", "1", "true", "yes").index(s.lower()) >= 3


# config key -> (the object whose field it sets: the RunConfig itself, its
# BoundaryData, its SolveOptions or its SweepPlan; the field; the value parser)
_KEYS = {
    "system": ("bd", "kind", _kind),
    "n": ("bd", "n", int),
    "phi0": ("bd", "phi0", lambda s: tuple(float(p) for p in s.split(","))),
    "out": ("run", "out", str),
    "quiet": ("run", "quiet", _flag),
    "grid": ("options", "grid", int),
    "tol": ("options", "tol", float),
    "sweep_end": ("plan", "lam_end", float),
    "sweep_step": ("plan", "step", float),
    "sweep_min_step": ("plan", "min_step", float),
    "sweep_max_step": ("plan", "max_step", float),
    "event_tol": ("plan", "event_tol", float),
}


def parse_config(text: str, flags: dict | None = None) -> RunConfig:
    """The run `text` configures; each `flags` entry (key -> value text) overrides its key."""
    given, lines = {}, {}  # key -> its value text, and its line (None for a flag)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", line=lineno)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KEYS:
            raise ParseError(f"unknown key {key!r}", key=key, line=lineno)
        if key in lines:
            raise ParseError(f"repeated key {key!r}, first set on line {lines[key]}", key=key, line=lineno)
        given[key], lines[key] = val, lineno
    for key, val in (flags or {}).items():
        given[key], lines[key] = val, None
    values = {"run": {}, "bd": {}, "options": {}, "plan": {}}
    for key, val in given.items():
        where, name, parse = _KEYS[key]
        try:
            values[where][name] = parse(val)
        except ValueError as e:
            msg = str(e) if isinstance(e, ParseError) else f"bad value for {key!r}: {val!r}"
            raise ParseError(msg, key=key, line=lines[key]) from e
    for req in ("system", "n", "phi0"):
        if req not in lines:
            raise ParseError(f"missing required key {req!r}", key=req)

    try:
        values["bd"]["kind"].validate_dimension(values["bd"]["n"])
    except UsageError as e:
        raise ParseError(str(e), key="n", line=lines["n"]) from e
    try:
        bd = BoundaryData(**values["bd"])
    except (UsageError, DomainError) as e:
        raise ParseError(str(e), key="phi0", line=lines["phi0"]) from e
    try:
        options = SolveOptions(**values["options"])
        plan = None
        if "lam_end" in values["plan"]:
            # a sweep solves at the plan's own default options, under the solver keys set
            plan = SweepPlan(bd.kind, bd.n, **values["plan"])
            plan.options = replace(plan.options, **values["options"])
    except UsageError as e:
        # the first solver or sweep key whose field the failed check names
        named = set(re.findall(r"\w+", str(e)))
        key = next((k for k, (where, name, _) in _KEYS.items() if where in ("options", "plan") and name in named), None)
        raise ParseError(str(e), key=key, line=lines.get(key)) from e
    return RunConfig(bd, options, plan, **values["run"])
