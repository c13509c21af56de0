"""Seeded synthetic (x, w, f, g) scenario generation.

Scenarios cover smooth signals plus the stress cases the quadrature
pipeline is supposed to survive: rare large spikes and fat-tailed values
with finite mean but effectively infinite variance.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import ConfigurationError, InputDataError
from .io import content_lines, read_text
from .moments import SampleSet, physical_memory

X_LAWS = ("uniform_grid", "uniform_random", "clustered")
VALUE_LAWS = ("affine_of_x", "smooth", "spikes", "student_t")
OMEGA_LAWS = ("unit", "random_positive")


@dataclass(frozen=True)
class Law:
    """A named law with keyword parameters, e.g. spikes(rate=0.01)."""

    name: str
    params: dict = field(default_factory=dict)

    def get(self, key, default):
        return float(self.params.get(key, default))


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    M: int
    seed: int
    x_law: Law
    f_law: Law
    omega_law: Law
    g_law: Law | None = None

    def __post_init__(self):
        if self.M < 1:
            raise ConfigurationError(f"sample count must be >= 1, got {self.M}")
        # generate() holds all M samples at once: x, w, f and maybe g
        need = self.M * (3 if self.g_law is None else 4) * 8
        have = physical_memory()
        if need > have:
            raise ConfigurationError(
                f"M = {self.M} samples need {need / 2**30:.3g} GiB, "
                f"more than the {have / 2**30:.3g} GiB of physical memory"
            )
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        for law in (self.x_law, self.f_law, self.g_law, self.omega_law):
            if law is not None and not all(np.isfinite(float(v)) for v in law.params.values()):
                raise ConfigurationError(f"law {law.name!r} has a non-finite parameter")
        if self.x_law.name not in X_LAWS:
            raise ConfigurationError(f"unknown x law {self.x_law.name!r}")
        lo, hi = self.x_law.get("lo", -1.0), self.x_law.get("hi", 1.0)
        if not 0 <= hi - lo < np.inf:
            raise ConfigurationError(f"x range needs lo <= hi, got lo={lo}, hi={hi}")
        if self.x_law.name == "clustered" and not 1 <= int(self.x_law.get("centers", 3)) <= self.M:
            raise ConfigurationError("clustered x law needs 1 <= centers <= M")
        if self.omega_law.name not in OMEGA_LAWS:
            raise ConfigurationError(f"unknown omega law {self.omega_law.name!r}")
        for law in (self.f_law, self.g_law):
            if law is None:
                continue
            if law.name not in VALUE_LAWS:
                raise ConfigurationError(f"unknown value law {law.name!r}")
            if law.name == "student_t" and law.get("nu", 1.5) <= 1:
                raise ConfigurationError("student_t needs nu > 1 for a finite mean")
            if law.name == "spikes" and not 0 <= law.get("rate", 0.01) <= 1:
                raise ConfigurationError("spike rate must be in [0, 1]")


def _draw_x(law: Law, M: int, rng: np.random.Generator) -> np.ndarray:
    lo, hi = law.get("lo", -1.0), law.get("hi", 1.0)
    if law.name == "uniform_grid":
        return np.linspace(lo, hi, M) if M > 1 else np.array([0.5 * (lo + hi)])
    if law.name == "uniform_random":
        return rng.uniform(lo, hi, M)
    # clustered: tight bumps around a few centers, clipped into the range
    k = int(law.get("centers", 3))
    width = law.get("width", 0.05)
    centers = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), k)
    x = rng.choice(centers, M) + width * rng.standard_normal(M)
    return np.clip(x, lo, hi)


def _draw_values(law: Law, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    if law.name == "affine_of_x":
        return law.get("a", 1.0) * x + law.get("b", 0.0)
    if law.name == "smooth":
        freq = law.get("freq", 1.0)
        curvature = law.get("curvature", 0.3)
        return np.sin(np.pi * freq * x) + curvature * x * x
    if law.name == "spikes":
        rate = law.get("rate", 0.01)
        magnitude = law.get("magnitude", 1000.0)
        base = np.sin(np.pi * x)
        hit = rng.random(x.size) < rate
        return base + np.where(hit, magnitude * rng.standard_normal(x.size), 0.0)
    # student_t: fat tails, finite mean for nu > 1
    return law.get("scale", 1.0) * rng.standard_t(law.get("nu", 1.5), x.size)


def generate(spec: ScenarioSpec) -> SampleSet:
    """Deterministic SampleSet for a scenario; same spec and seed, same bits."""
    rng = np.random.default_rng(spec.seed)
    # Huge law parameters can overflow the draws; SampleSet reports the
    # non-finite values, so numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        x = _draw_x(spec.x_law, spec.M, rng)
        if spec.omega_law.name == "unit":
            w = np.ones(spec.M)
        else:
            w = rng.uniform(0.1, 1.0, spec.M)
        f = _draw_values(spec.f_law, x, rng)
        g = _draw_values(spec.g_law, x, rng) if spec.g_law is not None else None
    return SampleSet(x=x, w=w, f=f, g=g)


def _parse_law(text: str, line: int | None = None) -> Law:
    text = text.strip()
    if "(" not in text:
        return Law(text, {})
    if not text.endswith(")"):
        raise InputDataError(f"malformed law {text!r}", line=line)
    name, _, body = text[:-1].partition("(")
    params = {}
    for item in filter(None, (s.strip() for s in body.split(","))):
        key, sep, value = item.partition("=")
        if not sep:
            raise InputDataError(f"law parameter {item!r} is not key=value", line=line)
        try:
            params[key.strip()] = float(value)
        except ValueError:
            raise InputDataError(f"non-numeric law parameter {item!r}", line=line) from None
    return Law(name.strip(), params)


def parse_scenario(text: str, name: str = "scenario") -> ScenarioSpec:
    """Parse the plain-text key = value scenario format."""
    fields: dict = {"name": name}
    for lineno, line in content_lines(text):
        key, sep, value = (s.strip() for s in line.partition("="))
        if not sep:
            raise InputDataError(f"expected 'key = value', got {line!r}", line=lineno)
        if key == "name":
            fields["name"] = value
        elif key in ("M", "seed"):
            try:
                fields[key] = int(value)
            except ValueError:
                raise InputDataError(f"{key} must be an integer, got {value!r}",
                                     line=lineno) from None
        elif key in ("x_law", "f_law", "g_law", "omega_law"):
            fields[key] = _parse_law(value, line=lineno)
        else:
            raise InputDataError(f"unknown scenario key {key!r}", line=lineno)
    missing = {"M", "seed", "x_law", "f_law", "omega_law"} - fields.keys()
    if missing:
        raise InputDataError(f"scenario is missing keys: {sorted(missing)}")
    return ScenarioSpec(**fields)


def builtin_scenario_names() -> list[str]:
    root = resources.files(__package__) / "scenarios"
    return sorted(p.name.removesuffix(".scenario") for p in root.iterdir()
                  if p.name.endswith(".scenario"))


def load_scenario(name: str) -> ScenarioSpec:
    """Load a built-in scenario by name, or any scenario file by path."""
    res = resources.files(__package__) / "scenarios" / f"{name}.scenario"
    if res.is_file():
        return parse_scenario(res.read_text(), name=name)
    if not os.path.isfile(name):
        raise InputDataError(
            f"no built-in scenario or readable file named {name!r} "
            f"(built-ins: {', '.join(builtin_scenario_names())})"
        )
    return parse_scenario(read_text(name), name=name)
