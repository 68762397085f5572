"""Exhaustive certification of pre-assigned truth values against a
two-path interference scenario.

A scenario fixes a lattice, a binding of the two which-path atoms X1 and X2
to lattice elements, the observed detection probabilities (with a nonzero
interference term), and the equal-priors assumption. Three constraints
govern any assignment of truth values to the atoms before verification:

  C-COLLAPSE  both detectors cannot click: the conjunction must not be true.
  C-TRUE      the exactly-one-path proposition is verified true, so values
              that already make it false are inconsistent.
  C-INT       when the bridge forces all four probabilities (atoms,
              disjunction, conjunction), additivity plus the equal-priors
              split expand the two-path pattern into the even mixture of
              one-path patterns, zeroing the interference term that the
              scenario observed to be nonzero.

``check_assignment`` applies the constraints to one value pair and returns
the first violation with a replayable derivation trace (an assignment can
break several constraints; the rest land in ``also_violates``).
``run_nogo`` certifies the four bivalent corner assignments, which decide
every bivalent truth function on the scenario lattice, and counts those
functions without enumerating them; ``scan_grid`` sweeps a whole value
grid, and ``check_supervaluation`` exercises the reading in which
unverified propositions carry no truth value at all.

Only bivalence can break a constraint. C-COLLAPSE needs the conjunction at
1, so both values at 1. C-TRUE needs the exactly-one compound at 0; with s
the sum of the values it is min(s, 1) - max(s - 1, 0), so s is 0 or 2.
C-INT needs every bridge forced, so each value 0 or 1. A pair with a value
strictly between 0 and 1, or with no value, escapes all three:
``check_assignment`` returns None for it and decides any other pair by its
corner. So ``scan_grid`` checks only the bivalent cells of a grid and keeps
their violations; every other pair is consistent without a check.

The degree steps and bridges of a corner depend on the corner alone. They are
computed once, at import, through ``lukasiewicz_*`` and ``bridge``, into
``_CORNERS``; a trace reads them from there (P is the bridge, 1 for true and
0 for false; the total is P[X1] + P[X2], and the prior half of it):

  corner  or  and  !and  xor  P[or]  P[and]  P[X1]  P[X2]  total  prior
  (0, 0)   0   0    1     0    0      0       0      0      0      0
  (0, 1)   1   0    1     1    1      0       0      1      1      1/2
  (1, 0)   1   0    1     1    1      0       1      0      1      1/2
  (1, 1)   1   1    0     0    1      1       1      1      2      1

(0, 0) breaks C-TRUE; (1, 1) breaks C-COLLAPSE and C-TRUE; (0, 1) and (1, 0)
break C-INT when equal priors hold and the observed interference term, which
a ``Scenario`` computes once, is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Mapping

from .errors import SlitlogicError
from .formula import Atom, Xor
from .lattice import Lattice
from .probability import InterferenceInputs, bridge, interference_term
from .valuation import (
    UNDEFINED,
    TruthValue,
    ValueSystem,
    as_value,
    formula_element,
    lukasiewicz_and,
    lukasiewicz_neg,
    lukasiewicz_or,
    supervalue,
)

__all__ = [
    "C_INT",
    "C_COLLAPSE",
    "C_TRUE",
    "Scenario",
    "TraceStep",
    "Violation",
    "Certificate",
    "GridReport",
    "SupervaluationReport",
    "check_assignment",
    "run_nogo",
    "scan_grid",
    "check_supervaluation",
    "replay_trace",
    "ScenarioError",
    "BindingAtExtreme",
]

C_INT = "C-INT"
C_COLLAPSE = "C-COLLAPSE"
C_TRUE = "C-TRUE"

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)


def _corner(v1: Fraction, v2: Fraction) -> tuple:
    """A corner's steps: or, and, the negated and, xor, the bridges of or,
    and, v1 and v2, their total and the prior half of it."""
    or12 = lukasiewicz_or(v1, v2)
    and12 = lukasiewicz_and(v1, v2)
    neg_and = lukasiewicz_neg(and12)
    x12 = lukasiewicz_and(or12, neg_and)
    bridges = (bridge(or12), bridge(and12), bridge(v1), bridge(v2))
    total = bridges[2] + bridges[3]
    return or12, and12, neg_and, x12, bridges, total, total / 2


# The steps of each corner (v1, v2), keyed by the numerators of its values.
_CORNERS = {(n1, n2): _corner(Fraction(n1), Fraction(n2))
            for n1, n2 in product((0, 1), repeat=2)}


class ScenarioError(SlitlogicError):
    """Scenario construction rejected (zero interference, bad binding)."""


class BindingAtExtreme(SlitlogicError):
    """An atom is bound to the bottom or top element, which always carries
    a truth value; the no-value analysis needs non-extreme bindings."""


@dataclass(frozen=True)
class Scenario:
    """The fixed constraint context for one two-path analysis."""

    lattice: Lattice
    binding: tuple[tuple[str, str], tuple[str, str]]
    interference: InterferenceInputs
    equal_priors: bool = True
    # the observed interference term, computed once from ``interference``
    _i12: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_i12", interference_term(self.interference))

    @classmethod
    def build(
        cls,
        lattice: Lattice,
        binding: Mapping[str, str] | Iterable[Iterable[str]],
        interference: InterferenceInputs,
        equal_priors: bool = True,
        allow_degenerate: bool = False,
    ) -> "Scenario":
        try:
            if isinstance(binding, Mapping):
                items = tuple(binding.items())
            else:
                items = tuple(tuple(pair) for pair in binding)
        except TypeError:
            raise ScenarioError("binding must be a mapping or a sequence of pairs") from None
        if len(items) != 2:
            raise ScenarioError("binding must pair exactly two atoms with elements")
        if any(len(pair) != 2 for pair in items):
            raise ScenarioError("each binding entry must be one (atom, element) pair")
        (a1, e1), (a2, e2) = items
        for atom in (a1, a2):
            if not isinstance(atom, str):
                raise ScenarioError(f"an atom name must be a str, not {type(atom).__name__}")
            if not atom:
                raise ScenarioError("an atom name must be nonempty")
        if a1 == a2:
            raise ScenarioError("the two bound atoms must be distinct")
        lattice.index(e1)
        lattice.index(e2)
        if e1 == e2:
            raise ScenarioError("the two atoms must be bound to distinct elements")
        scenario = cls(lattice, items, interference, equal_priors)
        if not allow_degenerate and scenario._i12 == 0:
            raise ScenarioError(
                "interference term is zero; the scenario models observed "
                "two-path interference (pass allow_degenerate to override)"
            )
        return scenario

    @property
    def atom_names(self) -> tuple[str, str]:
        return (self.binding[0][0], self.binding[1][0])

    @property
    def bound_elements(self) -> tuple[str, str]:
        return (self.binding[0][1], self.binding[1][1])

    def observed_interference(self) -> Fraction:
        return self._i12


@dataclass(frozen=True)
class TraceStep:
    """One derivation step: a named rule applied to exact operands."""

    rule: str
    operands: tuple
    result: object
    note: str = ""

    def __str__(self) -> str:
        ops = ", ".join(str(o) for o in self.operands)
        text = f"{self.rule}({ops}) = {self.result}"
        if self.note:
            text += f"   [{self.note}]"
        return text


@dataclass(frozen=True)
class Violation:
    """A constraint broken by one assignment, with its derivation."""

    constraint: str
    assignment: tuple[tuple[str, TruthValue], ...]
    trace: tuple[TraceStep, ...]
    also_violates: tuple[str, ...] = ()


Pair = tuple[TruthValue, TruthValue]


@dataclass(frozen=True)
class Certificate:
    """The no-go record: the four bivalent corners as ``((v1, v2), violation)``
    items, and the number of bivalent truth functions they decide."""

    scenario: Scenario
    corner_results: tuple[tuple[Pair, Violation | None], ...]
    verdict: str
    functions_covered: int

    @property
    def holds(self) -> bool:
        return self.verdict == "no-go holds"


@dataclass(frozen=True)
class GridReport:
    """Outcome of sweeping every admissible value pair of a value system.

    The k-th pair of ``product(values, repeat=2)``, the scan order, is cell k.
    ``violations`` holds the ``(k, violation)`` items of the cells that break
    a constraint, in scan order; only a bivalent cell can, so every other
    pair is consistent. The three methods are views over that, in scan order.
    """

    value_system: ValueSystem
    violations: tuple[tuple[int, Violation], ...]

    def items(self) -> Iterator[tuple[Pair, Violation | None]]:
        """Each grid pair with its violation, or None, in scan order."""
        violations = dict(self.violations)
        return ((pair, violations.get(k))
                for k, pair in enumerate(product(self.value_system.values, repeat=2)))

    def consistent_pairs(self) -> tuple[Pair, ...]:
        return tuple(pair for pair, violation in self.items() if violation is None)

    def corner_results(self) -> tuple[tuple[Pair, Violation | None], ...]:
        """The items whose two values are each 0 or 1, in scan order."""
        violations = dict(self.violations)
        return tuple((pair, violations.get(k))
                     for k, pair in _bivalent_cells(self.value_system.values))


@dataclass(frozen=True)
class SupervaluationReport:
    """Pre-verification picture when non-extreme elements carry no value."""

    atom_values: tuple[tuple[str, TruthValue], ...]
    compound_element: str
    compound_value: TruthValue
    bridges_fired: bool
    consistent: bool


def _extreme(value: TruthValue) -> bool:
    """Whether a validated value is 0 or 1: a value in [0, 1] is 0 or 1
    exactly when its denominator is 1."""
    return value is not UNDEFINED and value.denominator == 1


def _bivalent_cells(values) -> Iterator[tuple[int, Pair]]:
    """The cells ``(k, (v1, v2))`` of ``product(values, repeat=2)`` whose two
    values are each 0 or 1, in scan order: the only cells that can break a
    constraint."""
    n = len(values)
    extremes = [(i, v) for i, v in enumerate(values) if _extreme(v)]
    return ((i * n + j, (v1, v2)) for i, v1 in extremes for j, v2 in extremes)


def check_assignment(scenario: Scenario, v1, v2) -> Violation | None:
    """Check one pre-assigned value pair against the scenario constraints.

    The pair is validated once, here. A pair escapes every constraint, and
    is consistent, unless both of its values are 0 or 1: an undefined value
    forces no bridge and a value strictly between 0 and 1 leaves the
    conjunction below 1, the exactly-one compound above 0 and its own bridge
    unforced. On the corners, (1, 1) breaks C-COLLAPSE and C-TRUE, (0, 0)
    breaks C-TRUE, and (0, 1) and (1, 0) break C-INT when equal priors hold
    and the observed interference term is nonzero.

    Returns the violation, with any further constraint the pair breaks in
    ``also_violates``, or None when the pair is consistent. A violation's
    derivation trace reads its corner's degree steps and bridges from the
    table in the module docstring, ``_CORNERS``, and computes only the
    scenario's predicted pattern from p1 and p2.
    """
    v1, v2 = as_value(v1), as_value(v2)
    if not (_extreme(v1) and _extreme(v2)):
        return None
    if v1 == v2:
        # A double-click both falsifies the compound and breaks collapse;
        # collapse is the sharper diagnosis, so it outranks C-TRUE.
        primary, also = (C_COLLAPSE, (C_TRUE,)) if v1 else (C_TRUE, ())
    elif scenario.equal_priors and scenario.observed_interference() != 0:
        primary, also = C_INT, ()
    else:
        return None

    or12, and12, neg_and, x12, bridges, total, prior = _CORNERS[v1.numerator, v2.numerator]
    a1, a2 = scenario.atom_names
    steps = [
        TraceStep("degree-or", (v1, v2), or12, f"value of {a1} | {a2}"),
        TraceStep("degree-and", (v1, v2), and12, f"value of {a1} & {a2}"),
        TraceStep("degree-neg", (and12,), neg_and, f"value of !({a1} & {a2})"),
        TraceStep("degree-and", (or12, neg_and), x12, f"value of {a1} ^ {a2}"),
    ]

    if primary == C_COLLAPSE:
        steps.append(TraceStep(
            "contradiction", (and12,), C_COLLAPSE,
            "conjunction true: both detectors click, collapse allows one"))
    elif primary == C_TRUE:
        steps.append(TraceStep(
            "contradiction", (x12,), C_TRUE,
            "pre-assigned reading: the verified exactly-one proposition is already false"))
    else:
        p_or_b, p_and_b, pb1, pb2 = bridges
        steps.append(TraceStep("bridge", (or12,), p_or_b, f"P[{a1} | {a2}] forced"))
        steps.append(TraceStep("bridge", (and12,), p_and_b, f"P[{a1} & {a2}] forced"))
        steps.append(TraceStep("bridge", (v1,), pb1, f"P[{a1}] forced"))
        steps.append(TraceStep("bridge", (v2,), pb2, f"P[{a2}] forced"))
        steps.append(TraceStep(
            "additivity", bridges, total, f"P[{a1}] + P[{a2}] = P[or] + P[and]"))
        steps.append(TraceStep(
            "equal-priors", (total,), prior, "equal priors split the total evenly"))
        inputs = scenario.interference
        p1, p2 = inputs.p1, inputs.p2
        predicted = _HALF * p1 + _HALF * p2
        steps.append(TraceStep(
            "total-probability", (p1, p2), predicted,
            "two-path pattern = even mixture of one-path patterns"))
        steps.append(TraceStep(
            "interference-zero", (predicted, p1, p2), _ZERO,
            "the predicted pattern has no interference term"))
        steps.append(TraceStep(
            "contradiction", (inputs.p_or, p1, p2), C_INT,
            f"observed interference term {scenario.observed_interference()} is nonzero"))

    return Violation(primary, ((a1, v1), (a2, v2)), tuple(steps), also)


def run_nogo(scenario: Scenario) -> Certificate:
    """Certify every bivalent assignment of the scenario.

    A bivalent truth function reaches the constraints only through its
    values at the two bound elements, so its verdict is the verdict of the
    corner (v(e1), v(e2)). The four corners are checked once each, by
    ``scan_grid`` over the bivalent system, and no function is enumerated:
    ``functions_covered`` is 2^(n - 2), the number of bivalent truth
    functions on an n-element lattice, whose extremes are fixed at 0 and 1.
    The verdict is "no-go holds" exactly when all four corners violate a
    constraint.
    """
    corners = scan_grid(scenario, ValueSystem.bivalent()).corner_results()
    return Certificate(
        scenario=scenario,
        corner_results=corners,
        verdict="no-go holds" if all(v for _, v in corners) else "no-go fails",
        functions_covered=2 ** (len(scenario.lattice.elements) - 2),
    )


def scan_grid(scenario: Scenario, value_system: ValueSystem) -> GridReport:
    """Check the bivalent cells of the system's grid, in scan order; every
    other pair escapes all three constraints and is not checked."""
    violations = []
    for k, (v1, v2) in _bivalent_cells(value_system.values):
        violation = check_assignment(scenario, v1, v2)
        if violation is not None:
            violations.append((k, violation))
    return GridReport(value_system, tuple(violations))


def check_supervaluation(scenario: Scenario) -> SupervaluationReport:
    """Evaluate the scenario when unverified propositions carry no value.

    The atoms must be bound to non-extreme elements (otherwise
    :class:`BindingAtExtreme` is raised), so both come out undefined. An
    undefined value forces no bridge and breaks no constraint, so the report
    is consistent and fires no bridge, by construction. The exactly-one
    compound still reduces to a lattice element, which may be the top and
    hence carry value 1 despite its parts having none.
    """
    lattice = scenario.lattice
    for atom, element in scenario.binding:
        if element in (lattice.bottom, lattice.top):
            raise BindingAtExtreme(f"atom {atom!r} is bound to extreme element {element!r}")
    a1, a2 = scenario.atom_names
    compound_element = formula_element(Xor(Atom(a1), Atom(a2)), dict(scenario.binding), lattice)
    return SupervaluationReport(
        atom_values=((a1, UNDEFINED), (a2, UNDEFINED)),
        compound_element=compound_element,
        compound_value=supervalue(compound_element, lattice),
        bridges_fired=False,
        consistent=True,
    )


def replay_trace(violation: Violation, scenario: Scenario) -> bool:
    """Re-execute every derivation step of a violation.

    Returns True when each recorded result matches recomputation through the
    valuation and probability operations and the trace ends at a
    contradiction naming the violated constraint.
    """
    steps = violation.trace
    if not steps:
        return False
    last = steps[-1]
    if last.rule != "contradiction" or last.result != violation.constraint:
        return False
    for step in steps:
        ops = step.operands
        if step.rule == "degree-or":
            ok = lukasiewicz_or(*ops) == step.result
        elif step.rule == "degree-and":
            ok = lukasiewicz_and(*ops) == step.result
        elif step.rule == "degree-neg":
            ok = lukasiewicz_neg(*ops) == step.result
        elif step.rule == "bridge":
            ok = step.result is not None and bridge(ops[0]) == step.result
        elif step.rule == "additivity":
            p_or_b, p_and_b, pb1, pb2 = ops
            ok = pb1 + pb2 == step.result and p_or_b + p_and_b == step.result
        elif step.rule == "equal-priors":
            ok = scenario.equal_priors and step.result * 2 == ops[0]
        elif step.rule == "total-probability":
            ok = step.result == _HALF * ops[0] + _HALF * ops[1]
        elif step.rule == "interference-zero":
            predicted, p1, p2 = ops
            ok = (
                step.result == _ZERO
                and interference_term(InterferenceInputs(predicted, p1, p2)) == _ZERO
            )
        elif step.rule == "contradiction":
            if step.result == C_COLLAPSE:
                ok = ops[0] == _ONE
            elif step.result == C_TRUE:
                ok = ops[0] == _ZERO
            elif step.result == C_INT:
                ok = (
                    ops == (
                        scenario.interference.p_or,
                        scenario.interference.p1,
                        scenario.interference.p2,
                    )
                    and interference_term(scenario.interference) != 0
                )
            else:
                ok = False
        else:
            ok = False
        if not ok:
            return False
    return True
