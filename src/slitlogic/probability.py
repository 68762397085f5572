"""Truth-to-probability bridge and two-path interference bookkeeping.

The bridge is deliberately minimal: a true proposition gets probability 1, a
false one gets 0, and anything else (intermediate degrees included) leaves
the probability unconstrained. The interference term of a two-path setup is
p_or - p1/2 - p2/2, where p_or is the detection probability with both paths
open and p1, p2 the single-path probabilities. All quantities are exact
rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import SlitlogicError, _shown
from .valuation import UNDEFINED, _exact, as_value

__all__ = [
    "bridge",
    "InterferenceInputs",
    "interference_term",
    "amplitude_interference",
    "OutOfRange",
]


class OutOfRange(SlitlogicError):
    """A probability or squared amplitude left the unit interval."""


def _unit(value, what: str) -> Fraction:
    v = _exact(value, what)
    if not 0 <= v <= 1:
        raise OutOfRange(f"{what} = {_shown(v)} is outside [0, 1]")
    return v


def bridge(truth) -> Fraction | None:
    """Forced probability for a truth value: 1 for true, 0 for false,
    ``None`` (unconstrained) for everything else including undefined."""
    t = as_value(truth)
    if t is UNDEFINED:
        return None
    if t == 1:
        return Fraction(1)
    if t == 0:
        return Fraction(0)
    return None


@dataclass(frozen=True)
class InterferenceInputs:
    """The three conditional detection probabilities of a two-path run."""

    p_or: Fraction
    p1: Fraction
    p2: Fraction

    def __post_init__(self):
        object.__setattr__(self, "p_or", _unit(self.p_or, "p_or"))
        object.__setattr__(self, "p1", _unit(self.p1, "p1"))
        object.__setattr__(self, "p2", _unit(self.p2, "p2"))


def interference_term(inputs: InterferenceInputs) -> Fraction:
    """p_or - p1/2 - p2/2, exactly."""
    return inputs.p_or - inputs.p1 / 2 - inputs.p2 / 2


def amplitude_interference(a1, a2) -> InterferenceInputs:
    """Detection probabilities induced by two path amplitudes.

    Amplitudes are (re, im) pairs of exact rationals. The single-path
    probabilities are the squared moduli and the both-open probability is
    |a1 + a2|^2 / 2, so the induced interference term equals
    re1*re2 + im1*im2 (the real part of a1 * conj(a2)).
    """
    re1, im1 = (_exact(x) for x in a1)
    re2, im2 = (_exact(x) for x in a2)
    p1 = re1 * re1 + im1 * im1
    p2 = re2 * re2 + im2 * im2
    p_or = ((re1 + re2) ** 2 + (im1 + im2) ** 2) / 2
    if p1 > 1:
        raise OutOfRange(f"|a1|^2 = {_shown(p1)} exceeds 1")
    if p2 > 1:
        raise OutOfRange(f"|a2|^2 = {_shown(p2)} exceeds 1")
    if p_or > 1:
        raise OutOfRange(f"|a1+a2|^2/2 = {_shown(p_or)} exceeds 1")
    return InterferenceInputs(p_or, p1, p2)
