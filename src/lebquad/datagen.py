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

# Each law's parameters with their defaults; a law takes no other parameter.
LAW_PARAMS = {
    "uniform_grid": {"lo": -1.0, "hi": 1.0},
    "uniform_random": {"lo": -1.0, "hi": 1.0},
    "clustered": {"lo": -1.0, "hi": 1.0, "centers": 3.0, "width": 0.05},
    "affine_of_x": {"a": 1.0, "b": 0.0},
    "smooth": {"freq": 1.0, "curvature": 0.3},
    "spikes": {"rate": 0.01, "magnitude": 1000.0},
    "student_t": {"scale": 1.0, "nu": 1.5},
    "unit": {},
    "random_positive": {},
}

# generate() draws and evaluates each column in chunks of this many samples.
# Measured against the whole-column expressions at M = 1e6 (median paired
# differences of 21 interleaved calls, 2-vCPU Xeon, numpy 2.4.6), 2^14 was
# 0.4-4.9 ms faster on smooth, spikes and student_t and 3.8 ms (7%) slower on
# clustered, whose choice, offset and clip passes each pay a fixed cost per
# call; 4096 was 7.9 ms (15%) slower there.
_DRAW_CHUNK = 1 << 14


@dataclass(frozen=True)
class Law:
    """A named law with keyword parameters, e.g. spikes(rate=0.01)."""

    name: str
    params: dict = field(default_factory=dict)

    def param(self, key: str) -> float:
        """The parameter ``key``, or its default in LAW_PARAMS."""
        return float(self.params.get(key, LAW_PARAMS[self.name][key]))


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
        # generate() keeps the M-sample columns it returns, 8 M bytes each: x,
        # f, g if there is a g law, and w only if it is drawn (unit weights
        # are one value); its peak is about 1.09 times them at M = 1e6
        columns = 2 + (self.g_law is not None) + (self.omega_law.name == "random_positive")
        need = self.M * columns * 8
        have = physical_memory()
        if need > have:
            raise ConfigurationError(
                f"M = {self.M} samples need {need / 2**30:.3g} GiB, "
                f"more than the {have / 2**30:.3g} GiB of physical memory"
            )
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        for kind, law, names in (("x", self.x_law, X_LAWS), ("value", self.f_law, VALUE_LAWS),
                                 ("value", self.g_law, VALUE_LAWS),
                                 ("omega", self.omega_law, OMEGA_LAWS)):
            if law is None:
                continue
            if law.name not in names:
                raise ConfigurationError(f"unknown {kind} law {law.name!r}")
            for key, value in law.params.items():
                if key not in LAW_PARAMS[law.name]:
                    raise ConfigurationError(f"law {law.name!r} has no parameter {key!r}")
                if not np.isfinite(float(value)):
                    raise ConfigurationError(f"law {law.name!r}: parameter {key!r} is not finite")
            if law.name == "student_t" and law.param("nu") <= 1:
                raise ConfigurationError("student_t needs nu > 1 for a finite mean")
            if law.name == "spikes" and not 0 <= law.param("rate") <= 1:
                raise ConfigurationError("spike rate must be in [0, 1]")
        lo, hi = self.x_law.param("lo"), self.x_law.param("hi")
        if not 0 <= hi - lo < np.inf:
            raise ConfigurationError(f"x range needs lo <= hi, got lo={lo}, hi={hi}")
        if self.x_law.name == "clustered":
            centers = self.x_law.param("centers")
            if not (centers.is_integer() and 1 <= centers <= self.M):
                raise ConfigurationError("law 'clustered' needs a whole number of centers "
                                         f"in [1, M], got centers={centers:g}")


def _fill(out: np.ndarray, chunk_values) -> np.ndarray:
    """out[c] = chunk_values(c, size of c) for each _DRAW_CHUNK-sample slice
    c of out, in order. A law's draws and temporaries are then
    chunk-sized, and its draws come in the order of one whole-column call:
    numpy's Generator fills an array one value after another, so drawing it
    in pieces gives the same values."""
    for start in range(0, out.size, _DRAW_CHUNK):
        part = slice(start, min(start + _DRAW_CHUNK, out.size))
        out[part] = chunk_values(part, part.stop - start)
    return out


def _draw_x(law: Law, M: int, rng: np.random.Generator) -> np.ndarray:
    lo, hi = law.param("lo"), law.param("hi")
    if law.name == "uniform_grid":  # linspace fills the one array it returns
        return np.linspace(lo, hi, M) if M > 1 else np.array([0.5 * (lo + hi)])
    x = np.empty(M)
    if law.name == "uniform_random":
        return _fill(x, lambda part, size: rng.uniform(lo, hi, size))
    # clustered: tight bumps around a few centers, clipped into the range;
    # every center is drawn before the first offset
    k = int(law.param("centers"))
    width = law.param("width")
    centers = np.linspace(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo), k)
    _fill(x, lambda part, size: rng.choice(centers, size))
    return _fill(x, lambda part, size:
                 np.clip(x[part] + width * rng.standard_normal(size), lo, hi))


def _draw_values(law: Law, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    out = np.empty_like(x)
    if law.name == "affine_of_x":
        a, b = law.param("a"), law.param("b")
        return _fill(out, lambda part, size: a * x[part] + b)
    if law.name == "smooth":
        freq = law.param("freq")
        curvature = law.param("curvature")
        return _fill(out, lambda part, size:
                     np.sin(np.pi * freq * x[part]) + curvature * x[part] * x[part])
    if law.name == "spikes":
        # every hit is drawn before the first magnitude; the M-byte mask is
        # the one array kept beside the columns
        rate = law.param("rate")
        magnitude = law.param("magnitude")
        hit = _fill(np.empty(x.size, dtype=bool), lambda part, size: rng.random(size) < rate)
        return _fill(out, lambda part, size: np.sin(np.pi * x[part]) + np.where(
            hit[part], magnitude * rng.standard_normal(size), 0.0))
    # student_t: fat tails, finite mean for nu > 1
    scale, nu = law.param("scale"), law.param("nu")
    return _fill(out, lambda part, size: scale * rng.standard_t(nu, size))


def generate(spec: ScenarioSpec) -> SampleSet:
    """Deterministic SampleSet for a scenario; same spec and seed, same bits.

    It keeps x, f and g (if the spec has a g law) as M-sample arrays, and w
    only under ``random_positive`` weights: unit weights are
    ``np.broadcast_to(1.0, M)``, a read-only view of one value. Each drawn
    column is written once, in chunks (:func:`_fill`), so beside the columns
    it allocates only chunk-sized temporaries and, for a spikes law, an
    M-byte mask.
    """
    rng = np.random.default_rng(spec.seed)
    # Huge law parameters can overflow the draws; SampleSet reports the
    # non-finite values, so numpy's warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        x = _draw_x(spec.x_law, spec.M, rng)
        if spec.omega_law.name == "unit":
            w = np.broadcast_to(1.0, spec.M)
        else:
            w = _fill(np.empty(spec.M), lambda part, size: rng.uniform(0.1, 1.0, size))
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
