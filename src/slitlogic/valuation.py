"""Truth values and the evaluation semantics over lattices.

Truth values are exact rationals in [0, 1] plus the distinguished gap value
``UNDEFINED`` used by the partial semantics. The degree functions are the
bounded-sum family: not t = 1 - t, s or t = min(s + t, 1), s and t =
max(s + t - 1, 0); an undefined input makes any result undefined.

Two routes assign a value to a formula whose atoms are bound to lattice
elements. ``evaluate_lattice`` folds the connectives as join, meet, and
involution, reducing the formula to a single element before applying a truth
function once. ``evaluate_degrees`` instead combines atom truth values
directly through the degree functions. Both value y ^ z as (y or z) and
not (y and z), from each operand's value once. ``check_valuational_axioms``
measures exactly where the two routes part company for a given truth
function, skipping comparisons that involve undefined values.

All arithmetic is exact: ``fractions.Fraction``, and in ``evaluate_degrees``
integer numerators over the atoms' common denominator. Floats are rejected
so axiom checks never see representation noise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm
from typing import Iterator, Mapping, Union

from .errors import SlitlogicError, _shown
from .formula import Atom, Formula, atoms, fold
from .lattice import Lattice, UnknownElement

__all__ = [
    "UNDEFINED",
    "MAX_GRID_VALUES",
    "TruthValue",
    "as_value",
    "lukasiewicz_neg",
    "lukasiewicz_or",
    "lukasiewicz_and",
    "ValueSystem",
    "TruthFunction",
    "formula_element",
    "evaluate_lattice",
    "evaluate_degrees",
    "evaluate_supervaluation",
    "supervalue",
    "AxiomViolation",
    "AxiomReport",
    "check_valuational_axioms",
    "enumerate_truth_functions",
    "UnboundAtom",
    "InvalidValue",
    "InexactValue",
]


class UnboundAtom(SlitlogicError):
    """A formula atom has no entry in the binding or value map."""


class InvalidValue(SlitlogicError, ValueError):
    """A value that is no rational or lies outside [0, 1], or a bad value
    system or truth function."""


class InexactValue(SlitlogicError, TypeError):
    """A float, or an object of no numeric type, where an exact rational is
    required."""


class _UndefinedType:
    """Singleton truth-value gap; absorbing under every degree function."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "undefined"


UNDEFINED = _UndefinedType()

TruthValue = Union[Fraction, _UndefinedType]

_ZERO = Fraction(0)
_ONE = Fraction(1)

# The most values that ``ValueSystem.finite`` and ``ValueSystem.infinite``
# build. A scan checks every pair of the grid, so the cap is on its square:
# at 501 values, 251 001 pairs.
MAX_GRID_VALUES = 501


def _grid_size(size, what: str) -> int:
    # bool is an int, but True is no size
    if isinstance(size, bool) or not isinstance(size, int):
        raise InvalidValue(f"{what} must be an int, not {type(size).__name__}")
    return size


# The interference of two amplitudes has a denominator dividing twice the square
# of the product of their four denominators: 8 * 500 + 1 digits stay printable
# under the interpreter's 4300-digit limit on int to str.
_LITERAL_DIGIT_LIMIT = 500
# A rational literal, read alike on every Python release: Fraction's own
# grammar takes underscores from 3.11 on and spaces around "/" from 3.12 on,
# and an exponent such as "1e5000" would be an integer too long to print.
_RATIONAL = re.compile(r"\s*[+-]?(?:\d+(?:/\d+)?|\d+\.\d*|\.\d+)\s*")


def _exact(value, what: str = "value") -> Fraction:
    if isinstance(value, float):
        raise InexactValue("floats are inexact; pass a Fraction, int, or decimal string")
    if isinstance(value, str):
        digits = sum(map(str.isdigit, value))
        if digits > _LITERAL_DIGIT_LIMIT:
            raise InvalidValue(f"{what} has a literal of {digits} digits; "
                               f"a rational literal has at most {_LITERAL_DIGIT_LIMIT}")
    try:
        if isinstance(value, str) and not _RATIONAL.fullmatch(value):
            raise ValueError(value)  # Fraction's own grammar is wider
        return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InvalidValue(f"cannot read {what} {value!r} as an exact rational") from exc
    except TypeError as exc:
        raise InexactValue(f"a {type(value).__name__} is not an exact rational; "
                           "pass a Fraction, int, or decimal string") from exc


def as_value(value) -> TruthValue:
    """Coerce to an exact truth value in [0, 1] or ``UNDEFINED``.

    Accepts Fraction, int, and strings in the command line's rational
    literal grammar (decimals are read exactly in base 10; no exponents).
    Floats are rejected: binary rounding would leak into the
    exact-equality checks downstream.
    """
    if type(value) is not Fraction:
        if value is UNDEFINED:
            return UNDEFINED
        value = _exact(value)
    # a Fraction's denominator is positive
    if not 0 <= value.numerator <= value.denominator:
        raise InvalidValue(f"truth value {_shown(value)} outside [0, 1]")
    return value


def lukasiewicz_neg(t) -> TruthValue:
    """1 - t, with undefined absorbing."""
    t = as_value(t)
    if t is UNDEFINED:
        return UNDEFINED
    return _ONE - t


def lukasiewicz_or(s, t) -> TruthValue:
    """min(s + t, 1), with undefined absorbing."""
    s, t = as_value(s), as_value(t)
    if s is UNDEFINED or t is UNDEFINED:
        return UNDEFINED
    return min(s + t, _ONE)


def lukasiewicz_and(s, t) -> TruthValue:
    """max(s + t - 1, 0), with undefined absorbing."""
    s, t = as_value(s), as_value(t)
    if s is UNDEFINED or t is UNDEFINED:
        return UNDEFINED
    return max(s + t - _ONE, _ZERO)


@dataclass(frozen=True)
class ValueSystem:
    """The admissible truth values for an analysis run.

    ``values`` holds at least one defined value, kept in the order given;
    they need not be sorted and may repeat. Each value is validated by
    :func:`as_value` when the system is built, and ``UNDEFINED`` or an empty
    system raises :class:`InvalidValue`, so consumers take them as exact
    Fractions in [0, 1] without checking again.
    """

    kind: str
    values: tuple[Fraction, ...]

    def __post_init__(self):
        values = tuple(as_value(v) for v in self.values)
        if not values:
            raise InvalidValue("a value system needs at least one value")
        if UNDEFINED in values:
            raise InvalidValue("a value system holds defined values only, not undefined")
        object.__setattr__(self, "values", values)

    @classmethod
    def bivalent(cls) -> "ValueSystem":
        return cls("bivalent", (_ZERO, _ONE))

    @classmethod
    def finite(cls, n: int) -> "ValueSystem":
        """n equally spaced values from 0 to 1 inclusive (2 <= n <=
        MAX_GRID_VALUES)."""
        if _grid_size(n, "the size of a finite value system") < 2:
            raise InvalidValue("a finite value system needs at least the two extremes")
        if n > MAX_GRID_VALUES:
            raise InvalidValue(
                f"finite({_shown(n)}) has more than the {MAX_GRID_VALUES} values allowed")
        return cls(f"finite({n})", tuple(Fraction(k, n - 1) for k in range(n)))

    @classmethod
    def infinite(cls, denominator: int = 10) -> "ValueSystem":
        """Rational grid {k/d} standing in for the full unit interval: d + 1
        values, so 1 <= d < MAX_GRID_VALUES."""
        if _grid_size(denominator, "denominator") < 1:
            raise InvalidValue("denominator must be positive")
        if denominator >= MAX_GRID_VALUES:
            raise InvalidValue(f"infinite({_shown(denominator)}) has more than "
                               f"the {MAX_GRID_VALUES} values allowed")
        return cls(
            f"infinite({denominator})",
            tuple(Fraction(k, denominator) for k in range(denominator + 1)),
        )

    def admits(self, value: TruthValue) -> bool:
        return value in self.values


@dataclass(frozen=True)
class TruthFunction:
    """A total map from lattice elements to truth values.

    The boundary conditions are enforced at construction: the bottom element
    maps to 0 and the top to 1. Other entries may be any exact value in
    [0, 1], or ``UNDEFINED``.
    """

    lattice: Lattice
    values: Mapping[str, TruthValue]

    def __post_init__(self):
        normalized = {}
        for element in self.lattice.elements:
            if element not in self.values:
                raise InvalidValue(f"truth function is missing element {element!r}")
            normalized[element] = as_value(self.values[element])
        extras = set(self.values) - set(self.lattice.elements)
        if extras:
            raise InvalidValue(f"truth function mentions unknown elements {sorted(extras)}")
        if normalized[self.lattice.bottom] != _ZERO:
            raise InvalidValue("bottom element must have truth value 0")
        if normalized[self.lattice.top] != _ONE:
            raise InvalidValue("top element must have truth value 1")
        object.__setattr__(self, "values", normalized)

    def __call__(self, element: str) -> TruthValue:
        try:
            return self.values[element]
        except KeyError:
            raise UnknownElement(f"{element!r} is not an element of this lattice") from None


def formula_element(formula: Formula, binding: Mapping[str, str], lattice: Lattice) -> str:
    """Reduce a formula to one lattice element via join/meet/involution.

    An exclusive disjunction y ^ z reduces to (y join z) meet ~(y meet z),
    so only the three lattice operations are ever applied.
    """

    def element(atom: Atom) -> str:
        if atom.name not in binding:
            raise UnboundAtom(f"atom {atom.name!r} has no bound lattice element")
        bound = binding[atom.name]
        lattice.index(bound)
        return bound

    return fold(formula, element, lattice.involute, lattice.meet, lattice.join)


def evaluate_lattice(
    formula: Formula, binding: Mapping[str, str], truth_function: TruthFunction
) -> TruthValue:
    """Reduce the formula to a lattice element, then apply the truth function."""
    element = formula_element(formula, binding, truth_function.lattice)
    return truth_function(element)


def evaluate_degrees(formula: Formula, atom_values: Mapping[str, object]) -> TruthValue:
    """Combine atom truth values through the degree functions.

    Each atom's value is validated once, in first-appearance order. An
    undefined one makes the result undefined. Otherwise the values k/D over
    the least common denominator D of the atoms' values are closed under the
    three functions, so the formula is folded on the numerators k: 1 - t is
    D - t, min(s + t, 1) is min(s + t, D) and max(s + t - 1, 0) is
    max(s + t - D, 0).
    """
    values = {}
    for name in atoms(formula):
        if name not in atom_values:
            raise UnboundAtom(f"atom {name!r} has no truth value")
        values[name] = as_value(atom_values[name])
    if any(v is UNDEFINED for v in values.values()):
        return UNDEFINED
    d = lcm(*(v.denominator for v in values.values()))
    numerators = {name: v.numerator * (d // v.denominator) for name, v in values.items()}
    result = fold(formula, lambda a: numerators[a.name], lambda t: d - t,
                  lambda s, t: max(s + t - d, 0), lambda s, t: min(s + t, d))
    return Fraction(result, d)


def evaluate_supervaluation(
    formula: Formula, binding: Mapping[str, str], lattice: Lattice
) -> TruthValue:
    """Value the reduced element: 0 at bottom, 1 at top, no value elsewhere."""
    return supervalue(formula_element(formula, binding, lattice), lattice)


def supervalue(element: str, lattice: Lattice) -> TruthValue:
    """The supervaluation of one element: 0 at bottom, 1 at top, no value
    elsewhere. Callers that already hold a formula's reduced element use it
    instead of reducing the formula again."""
    if element == lattice.bottom:
        return _ZERO
    if element == lattice.top:
        return _ONE
    return UNDEFINED


@dataclass(frozen=True)
class AxiomViolation:
    """One spot where the truth function and the degree functions disagree."""

    operation: str  # "join", "meet", or "neg"
    elements: tuple[str, ...]
    lattice_value: TruthValue
    degree_value: TruthValue


@dataclass(frozen=True)
class AxiomReport:
    violations: tuple[AxiomViolation, ...]
    skipped: int

    @property
    def ok(self) -> bool:
        return not self.violations


def check_valuational_axioms(lattice: Lattice, truth_function: TruthFunction) -> AxiomReport:
    """Compare v(y op z) against the degree functions for every pair.

    Checks v(y join z) = min(v(y)+v(z), 1) and v(y meet z) =
    max(v(y)+v(z)-1, 0) over all ordered pairs, and v(~y) = 1 - v(y) for
    every element. Comparisons touching an undefined value are skipped and
    counted, since the degree functions only constrain defined values.
    """
    elements = lattice.elements
    cases = []
    for y in elements:
        for z in elements:
            cases.append(("join", (y, z), lattice.join(y, z), lukasiewicz_or))
            cases.append(("meet", (y, z), lattice.meet(y, z), lukasiewicz_and))
    cases += [("neg", (y,), lattice.involute(y), lukasiewicz_neg) for y in elements]
    violations: list[AxiomViolation] = []
    skipped = 0
    for operation, operands, element, degree in cases:
        actual = truth_function(element)
        expected = degree(*map(truth_function, operands))
        if actual is UNDEFINED or expected is UNDEFINED:
            skipped += 1
        elif actual != expected:
            violations.append(AxiomViolation(operation, operands, actual, expected))
    return AxiomReport(tuple(violations), skipped)


def enumerate_truth_functions(
    lattice: Lattice, value_system: ValueSystem
) -> Iterator[TruthFunction]:
    """Yield every admissible truth function, in a fixed order.

    Bottom and top are pinned to 0 and 1. Enumeration runs over the other
    elements in declaration order with values in the system's order, so the
    stream is deterministic and its length is len(values) ** free.
    """
    pinned = {lattice.bottom: (_ZERO,), lattice.top: (_ONE,)}
    elements = lattice.elements
    # A pinned element contributes a one-value axis, so the product advances
    # the free elements in declaration order with values in the system's order.
    axes = [pinned.get(e, value_system.values) for e in elements]
    for row in product(*axes):
        yield TruthFunction(lattice, dict(zip(elements, row)))
