"""Scenario construction, assignment checking, certificates, and grids."""

import json
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slitlogic
from slitlogic import cli, nogo, valuation
from slitlogic.lattice import builtin
from slitlogic.probability import InterferenceInputs, amplitude_interference, bridge
from slitlogic.nogo import (
    C_COLLAPSE,
    C_INT,
    C_TRUE,
    BindingAtExtreme,
    Scenario,
    ScenarioError,
    TraceStep,
    Violation,
    check_assignment,
    check_supervaluation,
    replay_trace,
    run_nogo,
    scan_grid,
)
from slitlogic.valuation import (
    UNDEFINED,
    ValueSystem,
    as_value,
    enumerate_truth_functions,
    lukasiewicz_and,
    lukasiewicz_neg,
    lukasiewicz_or,
)

F = Fraction
HALF = F(1, 2)
IN_PHASE = ((HALF, HALF), (HALF, HALF))


def default_scenario(**kwargs):
    lat = builtin("boolean", 2)
    inputs = amplitude_interference(*IN_PHASE)
    return Scenario.build(lat, {"X1": "a", "X2": "b"}, inputs, **kwargs)


def oracle_constraints(v1, v2, i12, equal_priors=True):
    """Independent reimplementation of the constraint conditions."""
    or12 = min(v1 + v2, F(1))
    and12 = max(v1 + v2 - 1, F(0))
    x12 = max(or12 + (1 - and12) - 1, F(0))
    fired = set()
    if and12 == 1:
        fired.add(C_COLLAPSE)
    if x12 == 0:
        fired.add(C_TRUE)
    forced = {F(0), F(1)}
    if (
        equal_priors
        and i12 != 0
        and or12 == 1
        and and12 == 0
        and v1 in forced
        and v2 in forced
    ):
        fired.add(C_INT)
    return fired


# --------------------------------------------------------------- scenario


def test_scenario_requires_nonzero_interference():
    lat = builtin("boolean", 2)
    flat = InterferenceInputs(HALF, HALF, HALF)
    with pytest.raises(ScenarioError):
        Scenario.build(lat, {"X1": "a", "X2": "b"}, flat)
    relaxed = Scenario.build(lat, {"X1": "a", "X2": "b"}, flat, allow_degenerate=True)
    assert relaxed.observed_interference() == 0


def test_scenario_requires_distinct_elements():
    lat = builtin("boolean", 2)
    inputs = amplitude_interference(*IN_PHASE)
    bindings = [
        {"X1": "a", "X2": "a"},
        [("X1", "a")],
        # malformed atoms and entries: each a ScenarioError, not a bare
        # ValueError or TypeError
        {"": "a", "X2": "b"},
        {1: "a", "X2": "b"},
        [("X1", "a", "z"), ("X2", "b")],
        [("X1", "a"), 2],
        None,
    ]
    for binding in bindings:
        with pytest.raises(ScenarioError) as caught:
            Scenario.build(lat, binding, inputs)
        message = str(caught.value)
        assert message and "\n" not in message


def test_scenario_observed_interference():
    scenario = default_scenario()
    assert scenario.observed_interference() == HALF
    assert scenario.atom_names == ("X1", "X2")
    assert scenario.bound_elements == ("a", "b")


# -------------------------------------------------------- check_assignment


def test_corner_one_zero_is_interference_violation():
    scenario = default_scenario()
    for pair in ((F(1), F(0)), (F(0), F(1))):
        violation = check_assignment(scenario, *pair)
        assert violation is not None
        assert violation.constraint == C_INT
        assert violation.also_violates == ()


def test_corner_one_one_is_collapse_violation():
    scenario = default_scenario()
    violation = check_assignment(scenario, F(1), F(1))
    assert violation.constraint == C_COLLAPSE
    # the compound also comes out false there, which the record keeps
    assert violation.also_violates == (C_TRUE,)


def test_corner_zero_zero_is_sharp_truth_violation():
    scenario = default_scenario()
    # oracle: the compound evaluates to 0 at (0, 0)
    assert oracle_constraints(F(0), F(0), HALF) == {C_TRUE}
    violation = check_assignment(scenario, F(0), F(0))
    assert violation.constraint == C_TRUE
    assert violation.also_violates == ()


def test_half_half_is_consistent():
    scenario = default_scenario()
    assert oracle_constraints(HALF, HALF, HALF) == set()
    assert check_assignment(scenario, HALF, HALF) is None


def test_undefined_pair_fires_nothing():
    scenario = default_scenario()
    assert check_assignment(scenario, UNDEFINED, UNDEFINED) is None
    assert check_assignment(scenario, UNDEFINED, F(1)) is None


def test_interference_needs_equal_priors():
    scenario = default_scenario(equal_priors=False)
    violation = check_assignment(scenario, F(1), F(0))
    assert violation is None  # the probability chain cannot close


def reference_check_assignment(scenario, v1, v2):
    """check_assignment as it was before it decided on the corner: every
    compound and every bridge computed in Fractions through the public
    degree functions and ``bridge``, for every pair."""
    v1, v2 = as_value(v1), as_value(v2)
    or12 = lukasiewicz_or(v1, v2)
    and12 = lukasiewicz_and(v1, v2)
    neg_and = lukasiewicz_neg(and12)
    x12 = lukasiewicz_and(or12, neg_and)

    fired = []
    if and12 == 1:
        fired.append(C_COLLAPSE)
    if x12 == 0:
        fired.append(C_TRUE)
    if (
        scenario.equal_priors
        and bridge(or12) == 1
        and bridge(and12) == 0
        and bridge(v1) is not None
        and bridge(v2) is not None
        and scenario.observed_interference() != 0
    ):
        fired.append(C_INT)
    if not fired:
        return None

    order = (C_COLLAPSE, C_TRUE, C_INT)
    primary = next(c for c in order if c in fired)
    also = tuple(c for c in order if c in fired and c != primary)
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
        p_or_b, p_and_b, pb1, pb2 = bridge(or12), bridge(and12), bridge(v1), bridge(v2)
        steps.append(TraceStep("bridge", (or12,), p_or_b, f"P[{a1} | {a2}] forced"))
        steps.append(TraceStep("bridge", (and12,), p_and_b, f"P[{a1} & {a2}] forced"))
        steps.append(TraceStep("bridge", (v1,), pb1, f"P[{a1}] forced"))
        steps.append(TraceStep("bridge", (v2,), pb2, f"P[{a2}] forced"))
        total = pb1 + pb2
        steps.append(TraceStep(
            "additivity", (p_or_b, p_and_b, pb1, pb2), total,
            f"P[{a1}] + P[{a2}] = P[or] + P[and]"))
        steps.append(TraceStep(
            "equal-priors", (total,), total / 2, "equal priors split the total evenly"))
        p1, p2 = scenario.interference.p1, scenario.interference.p2
        predicted = HALF * p1 + HALF * p2
        steps.append(TraceStep(
            "total-probability", (p1, p2), predicted,
            "two-path pattern = even mixture of one-path patterns"))
        steps.append(TraceStep(
            "interference-zero", (predicted, p1, p2), F(0),
            "the predicted pattern has no interference term"))
        steps.append(TraceStep(
            "contradiction", (scenario.interference.p_or, p1, p2), C_INT,
            f"observed interference term {scenario.observed_interference()} is nonzero"))
    return Violation(primary, ((a1, v1), (a2, v2)), tuple(steps), also)


# Values as callers pass them: exact rationals with mixed denominators, small
# and up to a million, the extremes as ints, decimal strings, and the
# undefined gap.
_unit_fractions = st.one_of(st.integers(1, 12), st.integers(13, 10**6)).flatmap(
    lambda d: st.integers(0, d).map(lambda k: F(k, d)))
_check_inputs = st.one_of(
    _unit_fractions,
    st.sampled_from([F(0), F(1), F(1, 3), F(1, 4), F(2, 3), F(3, 4)]),
    st.sampled_from([0, 1]),
    st.integers(0, 1000).map(lambda k: f"{k // 1000}.{k % 1000:03d}"),
    st.sampled_from(["0", "1", "1/3", "0.5", "1.0"]),
    st.just(UNDEFINED),
)
# Pairs summing to 1 reach the C-INT branch's bridge conditions.
_check_pairs = st.one_of(
    st.tuples(_check_inputs, _check_inputs),
    _unit_fractions.map(lambda v: (v, 1 - v)),
)
_PROPERTY_SCENARIOS = {
    (equal_priors, degenerate): Scenario.build(
        builtin("boolean", 2), {"X1": "a", "X2": "b"},
        InterferenceInputs(HALF, HALF, HALF) if degenerate
        else amplitude_interference(*IN_PHASE),
        equal_priors=equal_priors, allow_degenerate=degenerate,
    )
    for equal_priors in (True, False)
    for degenerate in (False, True)
}


@settings(max_examples=400)
@given(_check_pairs, st.booleans(), st.booleans())
def test_corner_decision_matches_the_fraction_reference(pair, equal_priors, degenerate):
    scenario = _PROPERTY_SCENARIOS[equal_priors, degenerate]
    v1, v2 = pair
    got = check_assignment(scenario, v1, v2)
    assert got == reference_check_assignment(scenario, v1, v2)
    if got is not None:
        assert replay_trace(got, scenario)


# ------------------------------------------------------------------ nogo


def test_run_nogo_holds_on_boolean_2():
    cert = run_nogo(default_scenario())
    assert cert.verdict == "no-go holds"
    assert cert.holds
    assert cert.functions_covered == 4
    corner_map = {pair: v.constraint for pair, v in cert.corner_results}
    assert corner_map == {
        (F(0), F(0)): C_TRUE,
        (F(0), F(1)): C_INT,
        (F(1), F(0)): C_INT,
        (F(1), F(1)): C_COLLAPSE,
    }
    counts = {}
    for _, v in cert.corner_results:
        counts[v.constraint] = counts.get(v.constraint, 0) + 1
    assert counts == {C_INT: 2, C_COLLAPSE: 1, C_TRUE: 1}
    # the report lists each function with its corner's violation, the same
    # sub-dict as the corner's
    payload = cli._certificate_payload(cert)
    corner_violations = {id(c["violation"]) for c in payload["corners"]}
    assert len(payload["truth_functions"]) == cert.functions_covered
    assert all(f["violation"] and id(f["violation"]) in corner_violations
               for f in payload["truth_functions"])


def test_run_nogo_fails_without_interference():
    lat = builtin("boolean", 2)
    inputs = amplitude_interference((HALF, HALF), (F(0), F(0)))
    assert inputs.p2 == 0
    scenario = Scenario.build(
        lat, {"X1": "a", "X2": "b"}, inputs, allow_degenerate=True
    )
    cert = run_nogo(scenario)
    assert cert.verdict == "no-go fails"
    outcomes = {pair: v.constraint if v else None for pair, v in cert.corner_results}
    assert outcomes[(F(1), F(0))] is None
    assert outcomes[(F(0), F(1))] is None
    assert outcomes[(F(1), F(1))] == C_COLLAPSE
    assert outcomes[(F(0), F(0))] == C_TRUE


def test_run_nogo_on_two_chain_matches_corner_logic():
    lat = builtin("chain", 1)
    inputs = amplitude_interference(*IN_PHASE)
    scenario = Scenario.build(lat, {"X1": "0", "X2": "1"}, inputs)
    cert = run_nogo(scenario)
    assert cert.holds
    corner_map = {pair: v.constraint for pair, v in cert.corner_results}
    reference = {pair: v.constraint for pair, v in run_nogo(default_scenario()).corner_results}
    assert corner_map == reference  # the corner logic is lattice independent
    # the single bivalent truth function realizes (0, 1)
    assert cert.functions_covered == 1
    [function] = cli._certificate_payload(cert)["truth_functions"]
    assert function["assignment"] == {"X1": "0", "X2": "1"}


def test_certificates_are_deterministic():
    a = run_nogo(default_scenario())
    b = run_nogo(default_scenario())
    assert a == b


# ------------------------------------------------- brute-force reference


def reference_certificate(scenario):
    """The per-function path that run_nogo factors by corner: every bivalent
    truth function, enumerated here by hand, gets its own check_assignment.

    Returns (corners, functions, verdict). The corners are ((v1, v2),
    violation) items, to compare with the engine's; each function is a plain
    tuple (values, assignment, violation), with values as (element, value)
    pairs in lattice order."""
    lat = scenario.lattice
    a1, a2 = scenario.atom_names
    e1, e2 = scenario.bound_elements
    corners = tuple(
        ((v1, v2), check_assignment(scenario, v1, v2))
        for v1 in (F(0), F(1))
        for v2 in (F(0), F(1))
    )
    free = [e for e in lat.elements if e not in (lat.bottom, lat.top)]
    functions = []
    for combo in product((F(0), F(1)), repeat=len(free)):
        tf = {lat.bottom: F(0), lat.top: F(1), **dict(zip(free, combo))}
        w1, w2 = tf[e1], tf[e2]
        functions.append((
            tuple((e, tf[e]) for e in lat.elements),
            ((a1, w1), (a2, w2)),
            check_assignment(scenario, w1, w2),
        ))
    holds = all(v for _, v in corners) and all(v for _, _, v in functions)
    return corners, tuple(functions), "no-go holds" if holds else "no-go fails"


def _ref_value(value):
    if value is UNDEFINED:
        return "undefined"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_ref_value(v) for v in value]
    return value


def _ref_result_line(assignment, v):
    text = "(" + ", ".join(f"{a}={_ref_value(x)}" for a, x in assignment) + ") -> "
    if v is None:
        return text + "consistent"
    text += f"violates {v.constraint}"
    if v.also_violates:
        text += f" (also: {', '.join(v.also_violates)})"
    return text


def _ref_result_payload(assignment, v):
    return {
        "assignment": {a: _ref_value(x) for a, x in assignment},
        "violation": None if v is None else {
            "constraint": v.constraint,
            "also_violates": list(v.also_violates),
            "assignment": {a: _ref_value(x) for a, x in v.assignment},
            "trace": [
                {"rule": s.rule, "operands": _ref_value(s.operands),
                 "result": _ref_value(s.result), "note": s.note}
                for s in v.trace
            ],
        },
    }


def reference_rendering(scenario, ref, fmt):
    """Render a reference certificate one function at a time, sharing no
    code with the CLI it is compared against."""
    corners, functions, verdict = ref
    # each corner as (assignment, violation), the assignment as (atom, value) pairs
    corners = [(tuple(zip(scenario.atom_names, pair)), v) for pair, v in corners]
    lat, inp = scenario.lattice, scenario.interference
    i12 = scenario.observed_interference()
    if fmt == "json":
        return json.dumps({
            "command": "nogo",
            "verdict": verdict,
            "scenario": {
                "lattice": {"elements": list(lat.elements), "bottom": lat.bottom, "top": lat.top},
                "binding": dict(scenario.binding),
                "interference": {k: str(x) for k, x in
                                 (("p_or", inp.p_or), ("p1", inp.p1), ("p2", inp.p2), ("i12", i12))},
                "equal_priors": scenario.equal_priors,
            },
            "enumerated": len(corners) + len(functions),
            "corners": [_ref_result_payload(assignment, v) for assignment, v in corners],
            "truth_functions": [
                {"values": {e: _ref_value(v) for e, v in values},
                 **_ref_result_payload(assignment, violation)}
                for values, assignment, violation in functions
            ],
        }, indent=2)
    lines = [
        verdict,
        f"lattice: {len(lat.elements)} elements [{', '.join(lat.elements)}]",
        "binding: " + ", ".join(f"{a}={e}" for a, e in scenario.binding),
        f"observed: P[R|both]={inp.p_or}, P[R|path1]={inp.p1}, P[R|path2]={inp.p2}, I12={i12}",
        f"equal priors: {'yes' if scenario.equal_priors else 'no'}",
    ]
    lines += ["", f"corner assignments ({len(corners)}):"]
    lines += [f"  {_ref_result_line(assignment, v)}" for assignment, v in corners]
    lines += ["", f"bivalent truth functions ({len(functions)}):"]
    for values, assignment, violation in functions:
        tf_text = "{" + ", ".join(f"{e}={_ref_value(v)}" for e, v in values) + "}"
        lines.append(f"  {tf_text} -> {_ref_result_line(assignment, violation)}")
    lines += ["", "derivation traces:"]
    for assignment, v in corners:
        lines.append(f"  {_ref_result_line(assignment, v)}")
        if v:
            lines += [f"    {step}" for step in v.trace]
    return "\n".join(lines)


@pytest.mark.parametrize(
    "family, n",
    [("boolean", n) for n in (1, 2, 3)]
    + [("chain", n) for n in (1, 2, 3, 4)]
    + [("lantern", n) for n in (1, 2, 3, 4)],
)
def test_run_nogo_matches_per_function_reference(family, n):
    lat = builtin(family, n)
    inputs = amplitude_interference(*IN_PHASE)
    # The engine checks only the corners; each function is pinned by the
    # byte comparison of the CLI rendering, which lists every function with
    # its corner's result. Past six elements the rendering, which costs more
    # than the engine comparison, is compared on three bindings: two
    # non-extremes, and each of them against an extreme, where whole classes
    # of functions are empty.
    rendered_pairs = None
    if len(lat.elements) > 6:
        a, b = lat.non_extremes()[:2]
        rendered_pairs = {(a, b), (lat.bottom, a), (b, lat.top)}
    for e1, e2 in product(lat.elements, repeat=2):
        if e1 == e2:
            continue
        for equal_priors in (True, False):
            scenario = Scenario.build(lat, {"X1": e1, "X2": e2}, inputs, equal_priors)
            cert = run_nogo(scenario)
            ref = reference_certificate(scenario)
            corners, functions, verdict = ref
            assert cert.verdict == verdict
            assert cert.corner_results == corners
            assert cert.functions_covered == len(functions) == 2 ** (len(lat.elements) - 2)
            if rendered_pairs is not None and (e1, e2) not in rendered_pairs:
                continue
            argv = [
                "nogo", f"--lattice=builtin:{family}:{n}", f"--bind=X1={e1},X2={e2}",
                "--equal-priors" if equal_priors else "--no-equal-priors",
            ]
            for fmt in ("text", "json"):
                report = cli.dispatch(argv + [f"--format={fmt}"])
                # per function: the values, the assignment and the
                # violation's constraint, also_violates and trace
                assert report.render() == reference_rendering(scenario, ref, fmt)


def test_run_nogo_checks_only_the_four_corners(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("run_nogo enumerated truth functions")

    for namespace in (slitlogic, valuation, nogo, cli):
        monkeypatch.setattr(namespace, "enumerate_truth_functions", refuse, raising=False)
    calls = []
    real = nogo.check_assignment

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return real(*args, **kwargs)

    monkeypatch.setattr(nogo, "check_assignment", counting)
    lat = builtin("boolean", 5)
    a, b = lat.non_extremes()[:2]
    inputs = amplitude_interference(*IN_PHASE)
    cert = run_nogo(Scenario.build(lat, {"X1": a, "X2": b}, inputs))
    assert len(calls) == 4
    assert cert.functions_covered == 2 ** 30
    assert cert.holds


def _nogo_row_cases():
    """Every ordered pair of distinct elements, extremes included."""
    for family, sizes in (("boolean", (1, 2, 3)), ("chain", (1, 2, 3, 4)),
                          ("lantern", (1, 2, 3, 4))):
        for n in sizes:
            lat = builtin(family, n)
            for e1, e2 in product(lat.elements, repeat=2):
                if e1 != e2:
                    yield lat, e1, e2


def test_nogo_rows_match_the_enumerated_truth_functions():
    inputs = amplitude_interference(*IN_PHASE)
    for lat, e1, e2 in _nogo_row_cases():
        cert = run_nogo(Scenario.build(lat, {"X1": e1, "X2": e2}, inputs))
        payload = cli._certificate_payload(cert)
        corners = {(c["assignment"]["X1"], c["assignment"]["X2"]): c for c in payload["corners"]}
        functions = list(enumerate_truth_functions(lat, ValueSystem.bivalent()))
        assert len(payload["truth_functions"]) == len(functions) == cert.functions_covered
        for row, tf in zip(payload["truth_functions"], functions):
            assert row["values"] == {e: str(v) for e, v in tf.values.items()}
            assert list(row["values"]) == list(lat.elements)
            corner = corners[str(tf(e1)), str(tf(e2))]
            assert row["assignment"] is corner["assignment"]
            assert row["violation"] is corner["violation"]
    # X1 at the bottom: no function has v(X1) = 1, so two corners list none
    cert = run_nogo(Scenario.build(builtin("boolean", 3), {"X1": "0", "X2": "a"}, inputs))
    rows = cli._certificate_payload(cert)["truth_functions"]
    assert {(r["assignment"]["X1"], r["assignment"]["X2"]) for r in rows} == {("0", "0"), ("0", "1")}


# ------------------------------------------------------------------ scan


def test_scan_three_valued_grid_exactly():
    scenario = default_scenario()
    report = scan_grid(scenario, ValueSystem.finite(3))
    assert len(tuple(report.items())) == 9
    # oracle: recompute every pair independently
    expected = {}
    for v1 in (F(0), HALF, F(1)):
        for v2 in (F(0), HALF, F(1)):
            fired = oracle_constraints(v1, v2, scenario.observed_interference())
            expected[(v1, v2)] = fired
    for pair, v in report.items():
        fired = expected[pair]
        if not fired:
            assert v is None, pair
        else:
            assert v is not None
            got = {v.constraint, *v.also_violates}
            assert got == fired, pair
    # headline facts, frozen from the oracle run
    consistent = set(report.consistent_pairs())
    assert consistent == {
        (F(0), HALF),
        (HALF, F(0)),
        (HALF, HALF),
        (HALF, F(1)),
        (F(1), HALF),
    }
    corner_map = {pair: v.constraint for pair, v in report.corner_results()}
    assert corner_map == {
        (F(0), F(0)): C_TRUE,
        (F(0), F(1)): C_INT,
        (F(1), F(0)): C_INT,
        (F(1), F(1)): C_COLLAPSE,
    }


def test_scan_bivalent_degenerates_to_corner_table():
    scenario = default_scenario()
    report = scan_grid(scenario, ValueSystem.bivalent())
    cert = run_nogo(scenario)
    assert tuple(report.items()) == cert.corner_results
    assert [v.constraint for _, v in cert.corner_results] == [C_TRUE, C_INT, C_INT, C_COLLAPSE]


def test_scan_denominator_10_keeps_half_half():
    scenario = default_scenario()
    report = scan_grid(scenario, ValueSystem.infinite(10))
    # one result per pair of the grid, a violation or None
    items = tuple(report.items())
    assert len(items) == len(report.value_system.values) ** 2 == 121
    assert all(v is None or type(v) is Violation for _, v in items)
    # only the four corners are kept, by their index in scan order
    assert [k for k, _ in report.violations] == [0, 10, 110, 120]
    consistent = set(report.consistent_pairs())
    assert (HALF, HALF) in consistent
    # every interior pair that forces no bridge survives; corners never do
    for _, v in report.corner_results():
        assert v is not None


def test_corner_results_of_hand_built_value_systems():
    scenario = default_scenario()
    # no value 1: the only corner is (0, 0)
    thirds = scan_grid(scenario, ValueSystem("thirds", (F(0), F(1, 3), F(2, 3))))
    assert [pair for pair, _ in thirds.corner_results()] == [(F(0), F(0))]
    # corners away from the grid ends come out in scan order
    shuffled = scan_grid(scenario, ValueSystem("shuffled", (HALF, F(1), F(1, 4), F(0))))
    corners = shuffled.corner_results()
    assert [(pair, v.constraint) for pair, v in corners] == [
        ((F(1), F(1)), C_COLLAPSE),
        ((F(1), F(0)), C_INT),
        ((F(0), F(1)), C_INT),
        ((F(0), F(0)), C_TRUE),
    ]
    assert [k for k, _ in shuffled.violations] == [5, 7, 13, 15]
    assert [v for _, v in corners] == [v for _, v in shuffled.violations]
    # each violation sits at its own pair's index
    for pair, v in shuffled.items():
        assert v is None or tuple(x for _, x in v.assignment) == pair


def dense_reference(scenario, values):
    """Every grid pair with its check_assignment result, in scan order."""
    return tuple(((v1, v2), check_assignment(scenario, v1, v2))
                 for v1, v2 in product(values, repeat=2))


# Hand-built systems: unsorted, with 0 or 1 repeated, missing or both.
_hand_built_values = st.lists(
    st.sampled_from([F(0), F(1)]) | _unit_fractions, min_size=1, max_size=8)


@settings(max_examples=300)
@given(_hand_built_values, st.booleans(), st.booleans())
def test_sparse_grid_report_matches_the_dense_reference(values, equal_priors, degenerate):
    scenario = _PROPERTY_SCENARIOS[equal_priors, degenerate]
    report = scan_grid(scenario, ValueSystem("hand-built", tuple(values)))
    dense = dense_reference(scenario, values)
    assert tuple(report.items()) == dense
    assert report.consistent_pairs() == tuple(pair for pair, v in dense if v is None)
    assert report.corner_results() == tuple(
        (pair, v) for pair, v in dense if pair[0] in (0, 1) and pair[1] in (0, 1))
    assert report.violations == tuple(
        (k, v) for k, (_, v) in enumerate(dense) if v is not None)


@pytest.mark.parametrize("values, checks", [
    (ValueSystem.infinite(100).values, 4),
    ((HALF, F(1), F(1, 4), F(0)), 4),
    ((F(0), F(0), F(1), HALF), 9),
    ((F(1, 3), F(2, 3)), 0),
])
def test_scan_checks_only_the_bivalent_cells(monkeypatch, values, checks):
    calls = []
    real = nogo.check_assignment

    def counting(scenario, v1, v2):
        calls.append((v1, v2))
        return real(scenario, v1, v2)

    monkeypatch.setattr(nogo, "check_assignment", counting)
    scan_grid(default_scenario(), ValueSystem("hand-built", values))
    assert len(calls) == checks
    assert all(v in (0, 1) for pair in calls for v in pair)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_escape_exists_in_every_finite_system(n):
    scenario = default_scenario()
    report = scan_grid(scenario, ValueSystem.finite(n))
    interior = [
        pair
        for pair in report.consistent_pairs()
        if 0 < pair[0] < 1 and 0 < pair[1] < 1
    ]
    assert interior
    if HALF in ValueSystem.finite(n).values:
        assert (HALF, HALF) in report.consistent_pairs()


def test_interference_violations_need_all_bridges_forced():
    scenario = default_scenario()
    report = scan_grid(scenario, ValueSystem.finite(5))
    for (v1, v2), v in report.items():
        if v is None:
            continue
        if C_INT in (v.constraint, *v.also_violates):
            or12 = min(v1 + v2, F(1))
            and12 = max(v1 + v2 - 1, F(0))
            assert bridge(v1) is not None
            assert bridge(v2) is not None
            assert bridge(or12) == F(1)
            assert bridge(and12) == F(0)


def test_observed_interference_computed_only_where_c_int_fires(monkeypatch):
    # the observed term depends only on the scenario: a check reads it for
    # the last term of the C-INT condition and for the C-INT trace note
    calls = []
    real = nogo.interference_term

    def counting(inputs):
        calls.append(inputs)
        return real(inputs)

    scenario = default_scenario()
    monkeypatch.setattr(nogo, "interference_term", counting)
    report = scan_grid(scenario, ValueSystem.infinite(10))
    c_int = [v for _, v in report.items() if v and C_INT in (v.constraint, *v.also_violates)]
    assert c_int
    assert len(calls) <= 2 * len(c_int) < len(tuple(report.items()))


# --------------------------------------------------------- supervaluation


def test_supervaluation_on_complementary_binding():
    report = check_supervaluation(default_scenario())
    assert dict(report.atom_values) == {"X1": UNDEFINED, "X2": UNDEFINED}
    assert report.compound_element == "1"
    assert report.compound_value == F(1)
    assert not report.bridges_fired
    assert report.consistent


def test_supervaluation_rejects_extreme_binding():
    lat = builtin("boolean", 2)
    inputs = amplitude_interference(*IN_PHASE)
    scenario = Scenario.build(lat, {"X1": "0", "X2": "b"}, inputs)
    with pytest.raises(BindingAtExtreme):
        check_supervaluation(scenario)


def test_supervaluation_reduces_each_formula_once(monkeypatch):
    calls = []
    real = valuation.formula_element

    def counting(formula, binding, lattice):
        calls.append(formula)
        return real(formula, binding, lattice)

    for module in (valuation, nogo, cli):
        monkeypatch.setattr(module, "formula_element", counting)
    cli.dispatch(["super"])
    assert len(calls) == 1  # the compound, once; the atoms are their bound elements
    calls.clear()
    cli.dispatch([
        "eval", "--formula", "X1 ^ X2", "--mode", "super",
        "--lattice", "builtin:boolean:2", "--assign", "X1=a,X2=b",
    ])
    assert len(calls) == 1


def test_supervaluation_on_lantern_distinct_pairs():
    lat = builtin("lantern", 2)
    # oracle from the tables: a1 join a2 = 1, a1 meet a2 = 0, so the
    # compound element is 1 meet ~0 = 1
    assert lat.join("a1", "a2") == "1"
    assert lat.meet("a1", "a2") == "0"
    assert lat.meet("1", lat.involute("0")) == "1"
    inputs = amplitude_interference(*IN_PHASE)
    scenario = Scenario.build(lat, {"X1": "a1", "X2": "a2"}, inputs)
    report = check_supervaluation(scenario)
    assert dict(report.atom_values) == {"X1": UNDEFINED, "X2": UNDEFINED}
    assert report.compound_element == "1"
    assert report.compound_value == F(1)


# ------------------------------------------------------------------ traces


def test_every_violation_trace_replays():
    scenario = default_scenario()
    cert = run_nogo(scenario)
    for _, v in cert.corner_results:
        assert replay_trace(v, scenario)
    report = scan_grid(scenario, ValueSystem.finite(3))
    for _, v in report.items():
        if v is not None:
            assert replay_trace(v, scenario)


def test_traces_end_at_contradiction():
    scenario = default_scenario()
    for _, v in run_nogo(scenario).corner_results:
        trace = v.trace
        assert trace
        assert trace[-1].rule == "contradiction"
        assert trace[-1].result == v.constraint


def test_interference_trace_carries_probability_chain():
    scenario = default_scenario()
    violation = check_assignment(scenario, F(1), F(0))
    rules = [s.rule for s in violation.trace]
    assert rules == [
        "degree-or",
        "degree-and",
        "degree-neg",
        "degree-and",
        "bridge",
        "bridge",
        "bridge",
        "bridge",
        "additivity",
        "equal-priors",
        "total-probability",
        "interference-zero",
        "contradiction",
    ]


def test_replay_rejects_tampered_trace():
    scenario = default_scenario()
    violation = check_assignment(scenario, F(1), F(1))
    tampered_steps = list(violation.trace)
    first = tampered_steps[0]
    tampered_steps[0] = type(first)(first.rule, first.operands, F(1, 3), first.note)
    tampered = type(violation)(
        violation.constraint,
        violation.assignment,
        tuple(tampered_steps),
        violation.also_violates,
    )
    assert not replay_trace(tampered, scenario)
