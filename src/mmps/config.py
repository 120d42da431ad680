"""Run configuration: a flat, diffable text format.

One ``section.key = value`` assignment per line; ``#`` starts a comment;
blank lines are ignored.  Parsing is strict: unknown keys, malformed lines
and out-of-range values are all rejected before any computation starts.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

from .evolution import ADVECTION_SCHEMES, SCHEMES, StepError, _step_count
from .fields import MODE_DIRICHLET, MODES
from .recipes import INITIAL_RECIPES, MMS_RECIPES

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config", "with_seed", "config_items"]


class ConfigError(ValueError):
    """Configuration text is malformed or carries invalid values."""


@dataclass(frozen=True)
class RunConfig:
    """Validated settings for simulations and experiment drivers."""

    nx: int = 32
    mode: str = MODE_DIRICHLET
    mu: float = 0.04
    chi: float = 0.01
    nu: float = 0.01
    dt: float = 1e-3
    t_end: float = 0.05
    recipe: str = "zero"
    seed: int = 0
    scheme: str = "imex-euler"
    advection: str = "upwind2"
    cfl_limit: float = 0.5
    stride: int = 1
    forcing_recipe: str | None = None
    epsilon: float | None = None  # mollifier width; None means 2h
    schauder_tol: float = 1e-10
    schauder_max_iterations: int = 30
    delta: float = 1e-6
    spatial_grids: tuple[int, ...] = (16, 32, 64)
    temporal_dts: tuple[float, ...] = (2e-3, 1e-3, 5e-4)

    def __post_init__(self) -> None:
        def positive(name: str, value: float) -> None:
            if not (value > 0.0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be positive and finite, got {value}")

        if self.nx < 8:
            raise ConfigError(f"grid.nx must be >= 8, got {self.nx}")
        if self.mode not in MODES:
            raise ConfigError(f"grid.mode must be one of {MODES}, got {self.mode!r}")
        positive("params.mu", self.mu)
        if not (self.chi >= 0.0 and math.isfinite(self.chi)):
            raise ConfigError(f"params.chi must be >= 0, got {self.chi}")
        positive("params.nu", self.nu)
        positive("time.dt", self.dt)
        if not (self.t_end >= 0.0 and math.isfinite(self.t_end)):
            raise ConfigError(f"time.t_end must be >= 0, got {self.t_end}")
        try:
            _step_count(0.0, self.t_end, self.dt)
        except StepError as exc:
            raise ConfigError(f"time.t_end = {self.t_end}: {exc}") from None
        if self.recipe not in INITIAL_RECIPES:
            raise ConfigError(
                f"init.recipe must be one of {INITIAL_RECIPES}, got {self.recipe!r}"
            )
        if self.seed < 0:
            raise ConfigError(f"init.seed must be >= 0, got {self.seed}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"scheme.stepper must be one of {SCHEMES}")
        if self.advection not in ADVECTION_SCHEMES:
            raise ConfigError(f"scheme.advection must be one of {ADVECTION_SCHEMES}")
        if not (0.0 < self.cfl_limit <= 1.0):
            raise ConfigError(f"scheme.cfl_limit must lie in (0, 1], got {self.cfl_limit}")
        if self.stride < 1:
            raise ConfigError(f"output.stride must be >= 1, got {self.stride}")
        if self.forcing_recipe is not None and self.forcing_recipe not in MMS_RECIPES:
            raise ConfigError(
                f"forcing.recipe must be one of {MMS_RECIPES}, got {self.forcing_recipe!r}"
            )
        if self.epsilon is not None:
            positive("schauder.epsilon", self.epsilon)
        positive("schauder.tolerance", self.schauder_tol)
        if self.schauder_max_iterations < 1:
            raise ConfigError("schauder.max_iterations must be >= 1")
        if not (self.delta >= 0.0 and math.isfinite(self.delta)):
            raise ConfigError(f"uniqueness.delta must be >= 0, got {self.delta}")
        grids = self.spatial_grids
        if len(grids) < 3 or any(n < 8 for n in grids):
            raise ConfigError("convergence.spatial_grids needs >= 3 entries, all >= 8")
        _one_factor("convergence.spatial_grids", [b / a for a, b in zip(grids, grids[1:])])
        if len(self.temporal_dts) < 2 or not all(
                d > 0.0 and math.isfinite(d) for d in self.temporal_dts):
            raise ConfigError("convergence.temporal_dts needs >= 2 positive, finite entries")
        dts = sorted(self.temporal_dts, reverse=True)
        _one_factor("convergence.temporal_dts", [a / b for a, b in zip(dts, dts[1:])])


def _one_factor(key: str, ratios: list[float]) -> None:
    """A convergence ladder must refine by one fixed factor above 1 (``ratios``:
    coarse over fine, level by level), which its order fit uses."""
    factor = ratios[0]
    if not factor > 1.0 or any(abs(r - factor) > 1e-9 * factor for r in ratios[1:]):
        raise ConfigError(f"{key} must refine by a fixed factor > 1, got ratios {ratios}")


def _parse_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from exc


def _parse_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from exc


def _parse_int_list(key: str, raw: str) -> tuple[int, ...]:
    return tuple(_parse_int(key, part.strip()) for part in raw.split(","))


def _parse_float_list(key: str, raw: str) -> tuple[float, ...]:
    return tuple(_parse_float(key, part.strip()) for part in raw.split(","))


_KEY_PARSERS = {
    "grid.nx": ("nx", _parse_int),
    "grid.mode": ("mode", lambda k, v: v),
    "params.mu": ("mu", _parse_float),
    "params.chi": ("chi", _parse_float),
    "params.nu": ("nu", _parse_float),
    "time.dt": ("dt", _parse_float),
    "time.t_end": ("t_end", _parse_float),
    "init.recipe": ("recipe", lambda k, v: v),
    "init.seed": ("seed", _parse_int),
    "scheme.stepper": ("scheme", lambda k, v: v),
    "scheme.advection": ("advection", lambda k, v: v),
    "scheme.cfl_limit": ("cfl_limit", _parse_float),
    "output.stride": ("stride", _parse_int),
    "forcing.recipe": (
        "forcing_recipe",
        lambda k, v: None if v == "none" else v,
    ),
    "schauder.epsilon": ("epsilon", _parse_float),
    "schauder.tolerance": ("schauder_tol", _parse_float),
    "schauder.max_iterations": ("schauder_max_iterations", _parse_int),
    "uniqueness.delta": ("delta", _parse_float),
    "convergence.spatial_grids": ("spatial_grids", _parse_int_list),
    "convergence.temporal_dts": ("temporal_dts", _parse_float_list),
}


def parse_config(text: str) -> RunConfig:
    """Parse configuration text, rejecting anything unknown or malformed."""
    assignments: dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {raw_line!r}")
        key, raw_value = (part.strip() for part in line.split("=", 1))
        if key not in _KEY_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in assignments:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        field, parser = _KEY_PARSERS[key]
        assignments[key] = (field, parser(key, raw_value))
    values = {field: value for field, value in assignments.values()}
    return RunConfig(**values)


def load_config(path: str | os.PathLike) -> RunConfig:
    """Parse the file at ``path``; one that cannot be read as UTF-8 text raises ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {os.fspath(path)}: {exc}") from exc
    return parse_config(text)


def with_seed(cfg: RunConfig, seed: int | None) -> RunConfig:
    """Copy of ``cfg`` with the seed replaced (used by the --seed flag)."""
    if seed is None:
        return cfg
    return replace(cfg, seed=seed)


def config_items(cfg: RunConfig) -> dict[str, object]:
    """Every ``section.key`` of ``cfg`` with its value, in key-table order;
    tuples become lists, so the mapping round-trips through JSON unchanged."""
    items: dict[str, object] = {}
    for key, (field, _) in _KEY_PARSERS.items():
        value = getattr(cfg, field)
        items[key] = list(value) if isinstance(value, tuple) else value
    return items
