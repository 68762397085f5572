"""Many-valued propositional logic over finite bounded lattices, plus an
exhaustive checker for pre-assigned truth values in a two-path
interference scenario."""

from .formula import Formula, ParseError, atoms, desugar_xor, parse, render
from .lattice import (
    Lattice,
    build_from_order,
    builtin,
    load,
    verify_axioms,
)
from .nogo import (
    Certificate,
    Scenario,
    check_assignment,
    check_supervaluation,
    replay_trace,
    run_nogo,
    scan_grid,
)
from .probability import (
    InterferenceInputs,
    amplitude_interference,
    bridge,
    interference_term,
)
from .valuation import (
    UNDEFINED,
    TruthFunction,
    ValueSystem,
    check_valuational_axioms,
    enumerate_truth_functions,
    evaluate_degrees,
    evaluate_lattice,
    evaluate_supervaluation,
    lukasiewicz_and,
    lukasiewicz_neg,
    lukasiewicz_or,
    supervalue,
)

__version__ = "0.1.0"

__all__ = [
    "Lattice",
    "build_from_order",
    "builtin",
    "verify_axioms",
    "load",
    "Formula",
    "ParseError",
    "parse",
    "render",
    "atoms",
    "desugar_xor",
    "UNDEFINED",
    "ValueSystem",
    "TruthFunction",
    "lukasiewicz_neg",
    "lukasiewicz_or",
    "lukasiewicz_and",
    "evaluate_lattice",
    "evaluate_degrees",
    "evaluate_supervaluation",
    "supervalue",
    "check_valuational_axioms",
    "enumerate_truth_functions",
    "bridge",
    "InterferenceInputs",
    "interference_term",
    "amplitude_interference",
    "Scenario",
    "Certificate",
    "check_assignment",
    "run_nogo",
    "scan_grid",
    "check_supervaluation",
    "replay_trace",
    "__version__",
]
