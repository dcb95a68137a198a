"""Flat key=value run configuration.

One `key = value` per line, `#` comments; unknown keys are errors.  All
numeric fields are validated against the module preconditions before any
solve starts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .systems import GBERGER, SP, SU, BoundaryData, DomainError, UsageError

_KINDS = {"gberger": GBERGER, "su": SU, "sp": SP}


class ParseError(ValueError):
    def __init__(self, message, key=None, line=None):
        where = f" (key {key!r}, line {line})" if key else ""
        super().__init__(message + where)
        self.key = key
        self.line = line


@dataclass
class RunConfig:
    system: str
    n: int
    phi0: tuple
    grid: int = 128
    tol: float = 1e-10
    out: str = "."
    quiet: bool = False
    seed_mode: str = "blend"
    experimental_sp: bool = False
    sweep_end: float | None = None
    sweep_step: float = 0.05
    sweep_min_step: float = 1e-4
    sweep_max_step: float = 0.1
    event_tol: float = 1e-6

    @property
    def kind(self):
        return _KINDS[self.system]

    def boundary_data(self) -> BoundaryData:
        return BoundaryData(self.kind, self.n, self.phi0)


_PARSERS = {
    "system": str,
    "n": int,
    "phi0": lambda s: tuple(float(p) for p in s.split(",")),
    "grid": int,
    "tol": float,
    "out": str,
    "quiet": lambda s: s.lower() in ("1", "true", "yes"),
    "seed_mode": str,
    "experimental_sp": lambda s: s.lower() in ("1", "true", "yes"),
    "sweep_end": float,
    "sweep_step": float,
    "sweep_min_step": float,
    "sweep_max_step": float,
    "event_tol": float,
}

_REQUIRED = ("system", "n", "phi0")


def parse_config(text: str) -> RunConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected 'key = value'", line=lineno)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _PARSERS:
            raise ParseError(f"unknown key {key!r}", key=key, line=lineno)
        try:
            values[key] = _PARSERS[key](val)
        except ValueError as e:
            raise ParseError(f"bad value for {key!r}: {val!r}", key=key, line=lineno) from e
    for req in _REQUIRED:
        if req not in values:
            raise ParseError(f"missing required key {req!r}", key=req)
    if values["system"] not in _KINDS:
        raise ParseError(f"system must be one of {sorted(_KINDS)}", key="system")

    cfg = RunConfig(**values)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig):
    try:
        cfg.boundary_data()
    except (UsageError, DomainError) as e:
        key = "n" if "dimension" in str(e) else "phi0"
        raise ParseError(str(e), key=key) from e
    if cfg.grid < 8:
        raise ParseError("grid must be at least 8", key="grid")
    if cfg.tol <= 0:
        raise ParseError("tol must be positive", key="tol")
    if cfg.seed_mode not in ("blend", "zero"):
        raise ParseError("seed_mode must be 'blend' or 'zero'", key="seed_mode")
    if cfg.sweep_end is not None:
        if cfg.sweep_end <= 0:
            raise ParseError("sweep_end must be positive", key="sweep_end")
        if not (0 < cfg.sweep_min_step <= cfg.sweep_step <= cfg.sweep_max_step):
            raise ParseError(
                "need 0 < sweep_min_step <= sweep_step <= sweep_max_step", key="sweep_step"
            )
    if cfg.event_tol <= 0:
        raise ParseError("event_tol must be positive", key="event_tol")
