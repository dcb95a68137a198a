"""Flat key=value run configuration.

One `key = value` per line, `#` comments; unknown and repeated keys are
errors.  Each solver or sweep key sets one field of `SolveOptions` or
`SweepPlan`, which hold the defaults and the checks; a failed check is a
config error before any solve starts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .continuation import SweepPlan
from .solver import SolveOptions
from .systems import KINDS, BoundaryData, DomainError, UsageError


class ParseError(ValueError):
    def __init__(self, message, key=None, line=None):
        where = [f"key {key!r}"] if key else []
        where += [f"line {line}"] if line else []
        super().__init__(message + (f" ({', '.join(where)})" if where else ""))
        self.key = key
        self.line = line


@dataclass
class RunConfig:
    system: str
    n: int
    phi0: tuple
    out: str = "."
    quiet: bool = False
    options: SolveOptions = field(default_factory=SolveOptions)
    sweep: dict = field(default_factory=dict)  # SweepPlan keywords; lam_end set by sweep_end

    @property
    def kind(self):
        return KINDS[self.system]

    def boundary_data(self) -> BoundaryData:
        return BoundaryData(self.kind, self.n, self.phi0)


def _flag(s):
    # a ValueError (so a ParseError naming the key) unless s is a boolean word
    return ("0", "false", "no", "1", "true", "yes").index(s.lower()) >= 3


# config key -> (where its value goes: the RunConfig itself, its SolveOptions
# or its SweepPlan keywords; the field name there; the value parser)
_KEYS = {
    "system": ("run", "system", str),
    "n": ("run", "n", int),
    "phi0": ("run", "phi0", lambda s: tuple(float(p) for p in s.split(","))),
    "out": ("run", "out", str),
    "quiet": ("run", "quiet", _flag),
    "grid": ("options", "grid", int),
    "tol": ("options", "tol", float),
    "sweep_end": ("sweep", "lam_end", float),
    "sweep_step": ("sweep", "step", float),
    "sweep_min_step": ("sweep", "min_step", float),
    "sweep_max_step": ("sweep", "max_step", float),
    "event_tol": ("sweep", "event_tol", float),
}

_REQUIRED = ("system", "n", "phi0")


def parse_config(text: str) -> RunConfig:
    values = {"run": {}, "options": {}, "sweep": {}}
    lines = {}
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
        where, name, parse = _KEYS[key]
        try:
            values[where][name] = parse(val)
        except ValueError as e:
            raise ParseError(f"bad value for {key!r}: {val!r}", key=key, line=lineno) from e
        lines[key] = lineno
    run = values["run"]
    for req in _REQUIRED:
        if req not in run:
            raise ParseError(f"missing required key {req!r}", key=req)
    if run["system"] not in KINDS:
        raise ParseError(f"system must be one of {sorted(KINDS)}", key="system", line=lines["system"])

    cfg = RunConfig(**run, sweep=values["sweep"])
    try:
        cfg.kind.validate_dimension(cfg.n)
    except UsageError as e:
        raise ParseError(str(e), key="n", line=lines["n"]) from e
    try:
        cfg.boundary_data()
    except (UsageError, DomainError) as e:
        raise ParseError(str(e), key="phi0", line=lines["phi0"]) from e
    try:
        cfg.options = SolveOptions(**values["options"])
        if "lam_end" in cfg.sweep:
            SweepPlan(cfg.kind, cfg.n, options=cfg.options, **cfg.sweep)
    except UsageError as e:
        # the first solver or sweep key whose field the failed check names
        named = set(re.findall(r"\w+", str(e)))
        key = next((k for k, (where, name, _) in _KEYS.items() if where != "run" and name in named), None)
        raise ParseError(str(e), key=key, line=lines.get(key)) from e
    return cfg
