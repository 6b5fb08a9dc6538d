"""Scenario and receiver parameters, validation, and flat-config parsing.

A scenario is the physical side of the detection problem: mean signal
photons per mode ``n_s``, round-trip channel transmissivity ``kappa`` and
mean background photons per mode ``n_b``.  The receiver side collects the
knobs of the optical-parametric-amplifier detector: gain, thresholding
policy and count model.  Hypotheses are taken equally likely throughout;
unequal priors would only rescale prefactors, never error exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

from .errors import DomainError, ParseError

__all__ = [
    "ScenarioParams",
    "ReceiverConfig",
    "ThresholdPolicy",
    "CountModel",
    "parse_config",
    "parse_value",
    "render_config",
]

# The weak-signal, lossy, bright-background corner where the closed-form
# exponent approximations hold.
REGIME_NS_MAX = 0.1
REGIME_KAPPA_MAX = 0.1
REGIME_NB_MIN = 10.0

GAIN_AUTO = "auto"    # pick the gain that maximizes the OPA exponent
GAIN_BHATT = "bhatt"  # small-gain preset G = 1 + n_s / sqrt(n_b)


class ThresholdPolicy(Enum):
    """How the count threshold of the OPA receiver is chosen."""

    PAPER_FORMULA = "paper_formula"   # Gaussian crossing point of the two count laws
    OPTIMAL_SCAN = "optimal_scan"     # exact likelihood-ratio threshold: minimum error


class CountModel(Enum):
    """Detector statistics at the OPA output."""

    FULL_COUNTING = "full_counting"   # photon-number-resolving detector
    ON_OFF = "on_off"                 # click / no-click detector


@dataclass(frozen=True)
class ScenarioParams:
    """Physical parameters of one target-detection scenario."""

    n_s: float
    kappa: float
    n_b: float

    def __post_init__(self):
        for name in ("n_s", "kappa", "n_b"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise DomainError(f"{name} must be a real number, got {v!r}")
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v!r}")
        if self.n_s <= 0.0:
            raise DomainError(f"n_s must be > 0, got {self.n_s}")
        if not 0.0 <= self.kappa <= 1.0:
            raise DomainError(f"kappa must lie in [0, 1], got {self.kappa}")
        if self.n_b < 0.0:
            raise DomainError(f"n_b must be >= 0, got {self.n_b}")

    @property
    def regime_ok(self) -> bool:
        """True when the closed-form exponent approximations are trustworthy."""
        return _in_regime(self.n_s, self.kappa, self.n_b)


def _in_regime(n_s, kappa, n_b):
    """regime_ok of one scenario, or elementwise of arrays of scenarios."""
    return (n_s <= REGIME_NS_MAX) & (kappa <= REGIME_KAPPA_MAX) & (n_b >= REGIME_NB_MIN)


@dataclass(frozen=True)
class ReceiverConfig:
    """Receiver knobs: gain spec, threshold policy, count model."""

    gain: Union[float, str] = GAIN_AUTO
    threshold_policy: ThresholdPolicy = ThresholdPolicy.PAPER_FORMULA
    count_model: CountModel = CountModel.FULL_COUNTING

    def __post_init__(self):
        if isinstance(self.gain, str):
            if self.gain not in (GAIN_AUTO, GAIN_BHATT):
                raise DomainError(
                    f"gain must be a float > 1, '{GAIN_AUTO}' or '{GAIN_BHATT}', "
                    f"got {self.gain!r}"
                )
        else:
            if not isinstance(self.gain, (int, float)) or isinstance(self.gain, bool):
                raise DomainError(f"gain must be numeric or a preset name, got {self.gain!r}")
            if not math.isfinite(self.gain) or self.gain <= 1.0:
                raise DomainError(f"explicit gain must satisfy G > 1, got {self.gain}")
        if not isinstance(self.threshold_policy, ThresholdPolicy):
            raise DomainError(f"bad threshold_policy: {self.threshold_policy!r}")
        if not isinstance(self.count_model, CountModel):
            raise DomainError(f"bad count_model: {self.count_model!r}")


def _parse_gain(text: str) -> Union[float, str]:
    return text if text in (GAIN_AUTO, GAIN_BHATT) else float(text)


# Every settings key, in render_config's order, with the parser of its text
# and what that parser accepts.  Range checks stay in the dataclasses.
_PARSERS = {
    "n_s": (float, "a number"),
    "kappa": (float, "a number"),
    "n_b": (float, "a number"),
    "gain": (_parse_gain, f"a number, '{GAIN_AUTO}' or '{GAIN_BHATT}'"),
    "threshold_policy": (ThresholdPolicy, " or ".join(repr(p.value) for p in ThresholdPolicy)),
    "count_model": (CountModel, " or ".join(repr(m.value) for m in CountModel)),
}
_SCENARIO_KEYS = ("n_s", "kappa", "n_b")


def parse_value(key: str, text: str):
    """The value of one settings key from its text, as in a config line.

    Raises ParseError naming the key, the text and what the key accepts.
    """
    if key not in _PARSERS:
        raise ParseError(f"unknown key {key!r}")
    if not text:
        raise ParseError(f"key {key!r} has no value")
    parse, accepts = _PARSERS[key]
    try:
        return parse(text)
    except ValueError:
        raise ParseError(f"key {key!r} needs {accepts}, got {text!r}") from None


def parse_config(text: str):
    """Parse a flat ``key=value`` document into (ScenarioParams, ReceiverConfig).

    Lines are independent; ``#`` starts a comment; unknown or duplicate keys
    are rejected.  Scenario keys are required, receiver keys fall back to
    defaults (gain=auto, paper_formula, full_counting).
    """
    values: dict = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected key=value, got {rawline.strip()!r}")
        key, value = map(str.strip, line.split("=", 1))
        if key in values:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = parse_value(key, value)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None

    missing = [k for k in _SCENARIO_KEYS if k not in values]
    if missing:
        raise ParseError(f"missing required keys: {missing}")
    params = ScenarioParams(**{k: values.pop(k) for k in _SCENARIO_KEYS})
    return params, ReceiverConfig(**values)


def render_config(params: ScenarioParams, receiver: ReceiverConfig) -> str:
    """Serialize a (params, receiver) pair so parse_config round-trips exactly.

    Floats are written with repr, which is lossless for doubles.
    """
    gain = receiver.gain if isinstance(receiver.gain, str) else repr(float(receiver.gain))
    lines = [
        f"n_s={params.n_s!r}",
        f"kappa={params.kappa!r}",
        f"n_b={params.n_b!r}",
        f"gain={gain}",
        f"threshold_policy={receiver.threshold_policy.value}",
        f"count_model={receiver.count_model.value}",
    ]
    return "\n".join(lines) + "\n"
