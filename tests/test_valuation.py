"""Degree functions, the evaluation routes, axiom checking, enumeration."""

from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slitlogic.errors import SlitlogicError
from slitlogic.formula import And, Atom, Not, Or, Xor, atoms, fold, parse
from slitlogic.lattice import build_from_order, builtin
from slitlogic.probability import InterferenceInputs, OutOfRange, amplitude_interference
from slitlogic.valuation import (
    MAX_GRID_VALUES,
    UNDEFINED,
    InexactValue,
    InvalidValue,
    TruthFunction,
    UnboundAtom,
    ValueSystem,
    as_value,
    check_valuational_axioms,
    enumerate_truth_functions,
    evaluate_degrees,
    evaluate_lattice,
    evaluate_supervaluation,
    lukasiewicz_and,
    lukasiewicz_neg,
    lukasiewicz_or,
)

F = Fraction
HALF = F(1, 2)
EXACTLY_ONE = Xor(Atom("X1"), Atom("X2"))
_DEGREE_FORMULAS = st.recursive(
    st.builds(Atom, st.sampled_from(["a", "b", "c", "d"])),
    lambda children: st.one_of(
        st.builds(Not, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Xor, children, children),
    ),
    max_leaves=20,
)


def classical_tf(lattice, assignment):
    """Truth function from explicit non-extreme values."""
    values = {lattice.bottom: F(0), lattice.top: F(1)}
    values.update(assignment)
    return TruthFunction(lattice, values)


# ------------------------------------------------------------ degree ops


def test_neg_example():
    assert lukasiewicz_neg(F(3, 10)) == F(7, 10)


def test_half_pair_saturates():
    # oracle: min(1/2 + 1/2, 1) and max(1/2 + 1/2 - 1, 0)
    assert lukasiewicz_or(HALF, HALF) == min(HALF + HALF, F(1)) == F(1)
    assert lukasiewicz_and(HALF, HALF) == max(HALF + HALF - 1, F(0)) == F(0)


def test_boundary_and_absorption_cases():
    assert lukasiewicz_or(F(1), F(0)) == F(1)
    assert lukasiewicz_and(F(1), F(1)) == F(1)
    assert lukasiewicz_neg(UNDEFINED) is UNDEFINED
    assert lukasiewicz_or(UNDEFINED, F(1)) is UNDEFINED
    assert lukasiewicz_and(F(0), UNDEFINED) is UNDEFINED


@pytest.mark.parametrize("a", [0, 1])
@pytest.mark.parametrize("b", [0, 1])
def test_classical_tables_on_extremes(a, b):
    assert lukasiewicz_or(F(a), F(b)) == F(int(a or b))
    assert lukasiewicz_and(F(a), F(b)) == F(int(a and b))


@pytest.mark.parametrize("a", [0, 1])
def test_classical_negation(a):
    assert lukasiewicz_neg(F(a)) == F(int(not a))


def test_neg_is_involution_on_grid():
    for k in range(11):
        t = F(k, 10)
        assert lukasiewicz_neg(lukasiewicz_neg(t)) == t


def test_floats_rejected():
    with pytest.raises(TypeError):
        lukasiewicz_neg(0.3)
    with pytest.raises(TypeError):
        as_value(0.5)


@pytest.mark.parametrize("coerce, error", [
    (lambda: as_value("abc"), InvalidValue),
    (lambda: InterferenceInputs("x", 0, 0), InvalidValue),
    (lambda: as_value(None), InexactValue),
    # a value system's size is an int; True is none
    (lambda: ValueSystem.finite("3"), InvalidValue),
    (lambda: ValueSystem.finite(2.5), InvalidValue),
    (lambda: ValueSystem.finite(True), InvalidValue),
    (lambda: ValueSystem.infinite(None), InvalidValue),
    (lambda: ValueSystem.infinite(True), InvalidValue),
    # an infinity has no integer ratio
    (lambda: as_value(Decimal("Infinity")), InvalidValue),
    # a message names a value of more digits than the interpreter prints by its digit count
    (lambda: as_value(10**5000), InvalidValue),
    (lambda: InterferenceInputs(10**5000, 0, 0), OutOfRange),
    (lambda: amplitude_interference((10**5000, 0), (0, 0)), OutOfRange),
    (lambda: ValueSystem.finite(10**5000), InvalidValue),
    (lambda: ValueSystem.infinite(10**5000), InvalidValue),
])
def test_unreadable_values_raise_typed_errors(coerce, error):
    with pytest.raises(error) as info:
        coerce()
    assert isinstance(info.value, SlitlogicError)
    assert str(info.value) and "\n" not in str(info.value)


# each entry point that reads a literal, with the name its messages give it
_LITERAL_READERS = [
    (as_value, "value"),
    (lambda v: InterferenceInputs(v, 0, 0), "p_or"),
    (lambda v: amplitude_interference((v, 0), (0, 0)), "value"),
]


def _outcome(call, *args):
    """What a call gives: its result, or the type and message of the
    SlitlogicError it raised."""
    try:
        return call(*args)
    except SlitlogicError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("read, what", _LITERAL_READERS)
@pytest.mark.parametrize("text, message", [
    # Fraction reads the first two from Python 3.11 on, the third from 3.12
    # on and the fourth on every release; the literal grammar on none
    *((text, "cannot read {what} {text!r} as an exact rational")
      for text in ("1_0/2_0", "0.2_5", "1 / 2", "1e-3", "1/0")),
    ("0." + "1" * 500, "{what} has a literal of 501 digits; a rational literal has at most 500"),
])
def test_the_library_refuses_the_literals_the_command_line_refuses(read, what, text, message):
    with pytest.raises(InvalidValue) as info:
        read(text)
    assert str(info.value) == message.format(what=what, text=text)


@pytest.mark.parametrize("read, what", _LITERAL_READERS)
@pytest.mark.parametrize("text, value", [
    ("1/2", F(1, 2)), ("-1/2", F(-1, 2)), ("+1/2", F(1, 2)), (".5", F(1, 2)),
    ("0.", F(0)), (" 1/2 ", F(1, 2)), ("0.25", F(1, 4)),
])
def test_the_library_reads_a_literal_as_its_value(read, what, text, value):
    # the same result, or the same refusal of a value out of range
    assert _outcome(read, text) == _outcome(read, value)


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        as_value(F(3, 2))
    with pytest.raises(ValueError):
        as_value(F(-1, 2))
    with pytest.raises(ValueError):
        lukasiewicz_or(F(-1, 2), F(1, 2))


@given(st.fractions(min_value=0, max_value=1), st.fractions(min_value=0, max_value=1))
def test_degree_ops_stay_in_unit_interval(s, t):
    assert 0 <= lukasiewicz_or(s, t) <= 1
    assert 0 <= lukasiewicz_and(s, t) <= 1
    assert lukasiewicz_neg(lukasiewicz_neg(s)) == s


# ------------------------------------------------------- evaluation routes


def test_lattice_route_with_extreme_binding():
    # binding the atoms to bottom and top forces the compound to the top
    for lat in (builtin("boolean", 2), builtin("chain", 3), builtin("lantern", 2)):
        tf = classical_tf(lat, {e: HALF for e in lat.non_extremes()})
        binding = {"X1": lat.bottom, "X2": lat.top}
        assert evaluate_lattice(EXACTLY_ONE, binding, tf) == F(1)


def test_lattice_route_atom_is_lookup():
    lat = builtin("boolean", 2)
    tf = classical_tf(lat, {"a": F(1, 3), "b": F(2, 3)})
    assert evaluate_lattice(Atom("X1"), {"X1": "a"}, tf) == F(1, 3)


def test_lattice_route_on_complementary_atoms():
    # oracle: fold the element by hand from the order matrix
    lat = builtin("boolean", 2)

    def is_leq(y, z):
        return bool(lat.up[lat.index(y)] >> lat.index(z) & 1)

    join_ab = next(
        w
        for w in lat.elements
        if is_leq("a", w)
        and is_leq("b", w)
        and all(is_leq(w, u) for u in lat.elements if is_leq("a", u) and is_leq("b", u))
    )
    assert join_ab == "1"
    tf = classical_tf(lat, {"a": HALF, "b": HALF})
    binding = {"X1": "a", "X2": "b"}
    assert evaluate_lattice(EXACTLY_ONE, binding, tf) == F(1)


def test_degrees_route_corner_values():
    assert evaluate_degrees(EXACTLY_ONE, {"X1": 1, "X2": 0}) == F(1)
    assert evaluate_degrees(EXACTLY_ONE, {"X1": 0, "X2": 1}) == F(1)
    assert evaluate_degrees(EXACTLY_ONE, {"X1": 1, "X2": 1}) == F(0)


def test_degrees_route_half_half():
    # oracle: and(or(1/2,1/2), neg(and(1/2,1/2))) = and(1, 1) = 1
    s = lukasiewicz_and(
        lukasiewicz_or(HALF, HALF), lukasiewicz_neg(lukasiewicz_and(HALF, HALF))
    )
    assert s == F(1)
    assert evaluate_degrees(EXACTLY_ONE, {"X1": HALF, "X2": HALF}) == F(1)


def test_degrees_route_undefined_atom_absorbs():
    assert evaluate_degrees(EXACTLY_ONE, {"X1": UNDEFINED, "X2": 1}) is UNDEFINED


def test_degrees_xor_matches_classical_xor():
    for a, b in product([0, 1], repeat=2):
        assert evaluate_degrees(EXACTLY_ONE, {"X1": a, "X2": b}) == F(int(a != b))


def reference_degrees(formula, atom_values):
    """The degrees route as a Fraction fold of the public degree functions,
    each atom validated where the fold reaches it."""

    def value(atom):
        if atom.name not in atom_values:
            raise UnboundAtom(f"atom {atom.name!r} has no truth value")
        return as_value(atom_values[atom.name])

    return fold(formula, value, lukasiewicz_neg, lukasiewicz_and, lukasiewicz_or)


def test_a_64_atom_xor_chain_is_valued_in_linear_time():
    # desugared, the chain would have about 2^63 nodes; the fold values each
    # operand of a xor once
    names = [f"X{i}" for i in range(64)]
    values = {name: F(1, i + 2) for i, name in enumerate(names)}
    chain = parse(" ^ ".join(names))
    assert evaluate_degrees(chain, values) == reference_degrees(chain, values)


_DEGREE_INPUTS = st.one_of(
    st.fractions(min_value=0, max_value=1, max_denominator=60),
    st.integers(0, 1),
    st.sampled_from(["0", "1", "0.5", "0.125", "1/3", "2/7", "0.0", "1.000", "  3/4 "]),
    st.just(UNDEFINED),
    # invalid: floats, no number, not a rational literal, outside [0, 1]
    st.sampled_from([0.5, None, "x", "1/0", "1e-3", "", F(3, 2), -1, 2, "-0.1"]),
)


@given(f=_DEGREE_FORMULAS, data=st.data())
def test_degrees_route_matches_the_fraction_fold(f, data):
    values = {}
    for name in atoms(f):
        # some atoms are left unbound
        if data.draw(st.integers(0, 9)):
            values[name] = data.draw(_DEGREE_INPUTS)
    assert _outcome(evaluate_degrees, f, values) == _outcome(reference_degrees, f, values)


def test_unbound_atom():
    with pytest.raises(UnboundAtom):
        evaluate_degrees(EXACTLY_ONE, {"X1": 1})
    lat = builtin("boolean", 2)
    tf = classical_tf(lat, {"a": HALF, "b": HALF})
    with pytest.raises(UnboundAtom):
        evaluate_lattice(EXACTLY_ONE, {"X1": "a"}, tf)


def test_supervaluation_values():
    lat = builtin("boolean", 2)
    binding = {"X1": "a", "X2": "b"}
    assert evaluate_supervaluation(Atom("X1"), binding, lat) is UNDEFINED
    assert evaluate_supervaluation(EXACTLY_ONE, binding, lat) == F(1)
    assert evaluate_supervaluation(And(Atom("X1"), Atom("X2")), binding, lat) == F(0)
    assert evaluate_supervaluation(Atom("X1"), {"X1": lat.top}, lat) == F(1)


def test_supervaluation_defined_iff_extreme():
    lat = builtin("lantern", 2)
    for element in lat.elements:
        value = evaluate_supervaluation(Atom("p"), {"p": element}, lat)
        if element in (lat.bottom, lat.top):
            assert value in (F(0), F(1))
        else:
            assert value is UNDEFINED


# ------------------------------------------------------- truth functions


def test_truth_function_boundary_enforced():
    lat = builtin("boolean", 2)
    with pytest.raises(ValueError):
        TruthFunction(lat, {"0": F(1), "a": F(0), "b": F(0), "1": F(1)})
    with pytest.raises(ValueError):
        TruthFunction(lat, {"0": F(0), "a": F(0), "b": F(0), "1": F(0)})
    with pytest.raises(ValueError):
        TruthFunction(lat, {"0": F(0), "1": F(1)})  # not total


def test_truth_function_rejects_unknown_elements():
    lat = builtin("boolean", 1)
    with pytest.raises(ValueError):
        TruthFunction(lat, {"0": F(0), "1": F(1), "zz": F(1)})


# --------------------------------------------------- valuational axioms


def oracle_axiom_scan(lattice, tf):
    """Independent pairwise scan used to cross-check the module's report.

    Returns each violation as (operation, elements, lattice value, degree
    value), in report order, and the number of skipped comparisons.
    """

    def undefined(*values):
        return any(v is UNDEFINED for v in values)

    bad, skipped = [], 0
    for y in lattice.elements:
        for z in lattice.elements:
            vy, vz = tf(y), tf(z)
            vj, vm = tf(lattice.join(y, z)), tf(lattice.meet(y, z))
            if undefined(vy, vz, vj):
                skipped += 1
            elif vj != min(vy + vz, F(1)):
                bad.append(("join", (y, z), vj, min(vy + vz, F(1))))
            if undefined(vy, vz, vm):
                skipped += 1
            elif vm != max(vy + vz - 1, F(0)):
                bad.append(("meet", (y, z), vm, max(vy + vz - 1, F(0))))
    for y in lattice.elements:
        vy, vn = tf(y), tf(lattice.involute(y))
        if undefined(vy, vn):
            skipped += 1
        elif vn != 1 - vy:
            bad.append(("neg", (y,), vn, 1 - vy))
    return bad, skipped


def test_axioms_hold_on_classical_two_chain():
    lat = builtin("chain", 1)
    tf = TruthFunction(lat, {"0": F(0), "1": F(1)})
    report = check_valuational_axioms(lat, tf)
    assert report.ok
    assert report.skipped == 0


def test_axioms_diverge_exactly_at_chain_midpoint():
    # the idempotent pair is the known divergence point: v(m) = 1/2 but
    # min(1/2 + 1/2, 1) = 1 and max(1/2 + 1/2 - 1, 0) = 0
    lat = builtin("chain", 2)
    mid = lat.non_extremes()[0]
    tf = classical_tf(lat, {mid: HALF})
    report = check_valuational_axioms(lat, tf)
    assert not report.ok
    spots = {(v.operation, v.elements) for v in report.violations}
    assert spots == {("join", (mid, mid)), ("meet", (mid, mid))}
    assert {(v[0], v[1]) for v in oracle_axiom_scan(lat, tf)[0]} == {
        ("join", (mid, mid)),
        ("meet", (mid, mid)),
    }
    join_violation = next(v for v in report.violations if v.operation == "join")
    assert join_violation.lattice_value == HALF
    assert join_violation.degree_value == F(1)


def test_axioms_on_boolean_2_with_halves():
    lat = builtin("boolean", 2)
    tf = classical_tf(lat, {"a": HALF, "b": HALF})
    report = check_valuational_axioms(lat, tf)
    spots = {(v.operation, v.elements) for v in report.violations}
    assert spots == {
        ("join", ("a", "a")),
        ("meet", ("a", "a")),
        ("join", ("b", "b")),
        ("meet", ("b", "b")),
    }
    oracle = {(v[0], v[1]) for v in oracle_axiom_scan(lat, tf)[0]}
    assert spots == oracle


@pytest.mark.parametrize(
    "family, n",
    [("boolean", 1), ("boolean", 2), ("chain", 2), ("chain", 3), ("lantern", 1), ("lantern", 2)],
)
def test_axiom_report_matches_oracle_with_gaps(family, n):
    # every truth function with values in {0, 1/2, 1, undefined}: the
    # violations, in report order, and the skip count agree with the oracle
    lat = builtin(family, n)
    free = lat.non_extremes()
    for row in product((F(0), HALF, F(1), UNDEFINED), repeat=len(free)):
        tf = classical_tf(lat, dict(zip(free, row)))
        report = check_valuational_axioms(lat, tf)
        found = [
            (v.operation, v.elements, v.lattice_value, v.degree_value)
            for v in report.violations
        ]
        assert (found, report.skipped) == oracle_axiom_scan(lat, tf), tf.values


def test_fixed_point_involution_always_flagged():
    # the linear order with middles fixed by the involution admits no truth
    # function that satisfies the axioms: the negation axiom wants 1/2 at a
    # fixed point while idempotent join/meet want 0 or 1
    lat = build_from_order(
        ["0", "a", "b", "1"],
        [("0", "a"), ("a", "b"), ("b", "1")],
        [("0", "1"), ("a", "a"), ("b", "b")],
    )
    for tf in enumerate_truth_functions(lat, ValueSystem.finite(3)):
        assert not check_valuational_axioms(lat, tf).ok


def test_axioms_skip_undefined_and_count():
    lat = builtin("boolean", 2)
    tf = TruthFunction(lat, {"0": F(0), "a": UNDEFINED, "b": UNDEFINED, "1": F(1)})
    report = check_valuational_axioms(lat, tf)
    assert report.ok
    # oracle count: ordered pairs touching a or b skip join and meet checks,
    # plus the two negation checks at a and b
    pairs = [
        (y, z)
        for y in lat.elements
        for z in lat.elements
        if tf(y) is UNDEFINED or tf(z) is UNDEFINED
    ]
    assert report.skipped == 2 * len(pairs) + 2


def test_agreement_when_axioms_pass():
    # wherever the axioms hold with nothing skipped, the two evaluation
    # routes agree on every formula over every binding
    formulas = [
        parse("p"),
        parse("!p"),
        parse("p | q"),
        parse("p & q"),
        parse("p ^ q"),
        parse("(p | q) & !r"),
        parse("!(p & q) ^ r"),
    ]
    lattices = [builtin("boolean", 1), builtin("boolean", 2), builtin("lantern", 1)]
    checked = 0
    for lat in lattices:
        for tf in enumerate_truth_functions(lat, ValueSystem.finite(3)):
            report = check_valuational_axioms(lat, tf)
            if not report.ok or report.skipped:
                continue
            checked += 1
            for f in formulas:
                names = sorted({"p", "q", "r"} & set(_atoms_of(f)))
                for combo in product(lat.elements, repeat=len(names)):
                    binding = dict(zip(names, combo))
                    lhs = evaluate_lattice(f, binding, tf)
                    rhs = evaluate_degrees(f, {n: tf(e) for n, e in binding.items()})
                    assert lhs == rhs, (lat.elements, tf.values, f, binding)
    assert checked >= 4  # the filter keeps the classical homomorphisms


def _atoms_of(f):
    from slitlogic.formula import atoms

    return atoms(f)


# ------------------------------------------------------------ enumeration


def test_enumerate_two_chain_bivalent_single():
    lat = builtin("chain", 1)
    tfs = list(enumerate_truth_functions(lat, ValueSystem.bivalent()))
    assert len(tfs) == 1
    assert tfs[0]("0") == F(0) and tfs[0]("1") == F(1)


def test_enumerate_boolean_2_bivalent_four():
    lat = builtin("boolean", 2)
    tfs = list(enumerate_truth_functions(lat, ValueSystem.bivalent()))
    assert len(tfs) == 4
    seen = {tuple(tf.values[e] for e in lat.elements) for tf in tfs}
    assert len(seen) == 4


def test_enumerate_boolean_2_three_valued_nine():
    lat = builtin("boolean", 2)
    system = ValueSystem.finite(3)
    tfs = list(enumerate_truth_functions(lat, system))
    assert len(tfs) == len(system.values) ** 2 == 9


def test_enumerate_order_is_declaration_then_ascending():
    lat = builtin("boolean", 2)
    tfs = list(enumerate_truth_functions(lat, ValueSystem.bivalent()))
    pairs = [(tf("a"), tf("b")) for tf in tfs]
    assert pairs == [(F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1))]


def test_enumerate_counts_match_formula():
    system = ValueSystem.finite(4)
    for family, n, free in [("boolean", 2, 2), ("chain", 3, 2), ("lantern", 2, 4)]:
        lat = builtin(family, n)
        tfs = list(enumerate_truth_functions(lat, system))
        assert len(tfs) == len(system.values) ** free
        assert len({tuple(tf.values[e] for e in lat.elements) for tf in tfs}) == len(tfs)


@pytest.mark.parametrize(
    "family, n, system",
    [
        ("boolean", 3, ValueSystem.bivalent()),
        ("lantern", 2, ValueSystem.finite(3)),
        ("boolean", 2, ValueSystem.infinite(4)),
        ("chain", 3, ValueSystem.finite(3)),
    ],
)
def test_enumerated_functions_equal_validated_construction(family, n, system):
    lat = builtin(family, n)
    tfs = list(enumerate_truth_functions(lat, system))
    assert tfs
    for tf in tfs:
        assert list(tf.values) == list(lat.elements)
        assert all(type(v) is Fraction for v in tf.values.values())
        assert tf == TruthFunction(lat, dict(tf.values))


@pytest.mark.parametrize("bad, error", [(0.5, TypeError), (F(3, 2), ValueError)])
def test_value_system_rejects_invalid_value_when_built(bad, error):
    with pytest.raises(error):
        ValueSystem("hand-built", (F(0), bad, F(1)))


@pytest.mark.parametrize("values, message", [
    ((UNDEFINED, F(0), F(1)), "a value system holds defined values only, not undefined"),
    ((F(1), F(0), UNDEFINED), "a value system holds defined values only, not undefined"),
    ((), "a value system needs at least one value"),
])
def test_value_system_rejects_undefined_and_empty(values, message):
    with pytest.raises(InvalidValue) as info:
        ValueSystem("hand-built", values)
    assert str(info.value) == message


def test_value_system_keeps_the_order_given():
    # unsorted, with 0 repeated and no 1: kept as given
    values = (HALF, F(0), F(1, 4), F(0))
    assert ValueSystem("hand-built", values).values == values


@pytest.mark.parametrize("bad, message", [
    (F(3, 2), "truth value 3/2 outside [0, 1]"),
    (F(-1, 2), "truth value -1/2 outside [0, 1]"),
    ("-0.5", "truth value -1/2 outside [0, 1]"),
    (2, "truth value 2 outside [0, 1]"),
])
def test_out_of_range_message(bad, message):
    for reject in (as_value, lambda v: ValueSystem("hand-built", (F(0), v, F(1)))):
        with pytest.raises(ValueError) as info:
            reject(bad)
        assert str(info.value) == message


# ------------------------------------------------------------ value systems


def test_value_system_constructors():
    assert ValueSystem.bivalent().values == (F(0), F(1))
    assert ValueSystem.finite(3).values == (F(0), HALF, F(1))
    assert ValueSystem.finite(11).values == ValueSystem.infinite(10).values
    with pytest.raises(ValueError):
        ValueSystem.finite(1)
    with pytest.raises(ValueError):
        ValueSystem.infinite(0)


def test_value_systems_stop_at_the_grid_cap():
    assert MAX_GRID_VALUES == 501
    assert len(ValueSystem.finite(501).values) == 501
    assert len(ValueSystem.infinite(500).values) == 501
    with pytest.raises(InvalidValue, match=r"^finite\(502\) has more than the 501 values allowed$"):
        ValueSystem.finite(502)
    with pytest.raises(InvalidValue, match=r"^infinite\(501\) has more than the 501 values allowed$"):
        ValueSystem.infinite(501)


def test_value_system_admits():
    system = ValueSystem.finite(3)
    assert system.admits(HALF)
    assert not system.admits(F(1, 3))
    assert not system.admits(UNDEFINED)
