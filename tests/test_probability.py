"""Bridge, additivity, and interference arithmetic."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slitlogic.formula import And, Atom, Or
from slitlogic.probability import (
    InterferenceInputs,
    OutOfRange,
    amplitude_interference,
    bridge,
    interference_term,
)
from slitlogic.valuation import UNDEFINED, evaluate_degrees

F = Fraction
X1, X2 = Atom("X1"), Atom("X2")


def test_bridge_forces_only_extremes():
    assert bridge(F(1)) == F(1)
    assert bridge(F(0)) == F(0)
    assert bridge(F(1, 2)) is None
    assert bridge(UNDEFINED) is None


def test_bridge_respects_negation():
    for k in range(11):
        t = F(k, 10)
        if bridge(t) == F(1):
            assert bridge(1 - t) == F(0)
        if bridge(t) == F(0):
            assert bridge(1 - t) == F(1)


def test_assignment_from_bivalent_truth_is_additive():
    # {0,1}-valued probabilities from the bridge reduce additivity to the
    # boolean identity; exhaustive over the four atom assignments
    for a, b in product([0, 1], repeat=2):
        p1, p2, p_or, p_and = (
            bridge(evaluate_degrees(f, {"X1": a, "X2": b}))
            for f in (X1, X2, Or(X1, X2), And(X1, X2))
        )
        assert p1 + p2 == p_or + p_and


def test_interference_zero_when_pattern_is_mixture():
    rng = random.Random(712)
    for _ in range(100):
        p1 = F(rng.randint(0, 60), 60)
        p2 = F(rng.randint(0, 60), 60)
        mixed = p1 / 2 + p2 / 2
        assert interference_term(InterferenceInputs(mixed, p1, p2)) == 0


def test_interference_symmetric_point():
    for k in range(5):
        p = F(k, 4)
        assert interference_term(InterferenceInputs(p, p, p)) == 0


def test_interference_direct_value():
    # oracle: 1 - 1/8 - 1/8 = 3/4
    assert F(1) - F(1, 4) / 2 - F(1, 4) / 2 == F(3, 4)
    assert interference_term(InterferenceInputs(F(1), F(1, 4), F(1, 4))) == F(3, 4)


def test_interference_linear_in_each_argument():
    a = InterferenceInputs(F(1, 2), F(1, 3), F(1, 5))
    b = InterferenceInputs(F(1, 4), F(2, 3), F(3, 5))
    mid = InterferenceInputs(
        (a.p_or + b.p_or) / 2, (a.p1 + b.p1) / 2, (a.p2 + b.p2) / 2
    )
    assert interference_term(mid) == (interference_term(a) + interference_term(b)) / 2


def test_interference_inputs_validate_range():
    with pytest.raises(OutOfRange):
        InterferenceInputs(F(2), F(0), F(0))
    with pytest.raises(OutOfRange):
        InterferenceInputs(F(1, 2), F(-1, 2), F(0))


def test_amplitude_in_phase_half_half():
    inputs = amplitude_interference((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
    assert inputs.p1 == F(1, 2)
    assert inputs.p2 == F(1, 2)
    assert inputs.p_or == F(1)
    assert interference_term(inputs) == F(1, 2)


def test_amplitude_opposite_phases_cancel():
    a = (F(3, 5), F(1, 5))
    neg_a = (-F(3, 5), -F(1, 5))
    inputs = amplitude_interference(a, neg_a)
    assert inputs.p_or == F(0)
    assert interference_term(inputs) == -(F(3, 5) ** 2 + F(1, 5) ** 2)


def test_amplitude_one_path_closed():
    inputs = amplitude_interference((F(4, 5), F(0)), (F(0), F(0)))
    assert inputs.p1 == F(16, 25)
    assert inputs.p2 == F(0)
    assert inputs.p_or == F(8, 25)
    assert interference_term(inputs) == F(0)


def test_amplitude_identity_on_grid():
    # induced interference equals re1*re2 + im1*im2 (the real part of
    # a1 * conj(a2)); exact over a 9x9 grid of rational amplitudes
    grid = [(F(r, 2), F(i, 2)) for r in (-1, 0, 1) for i in (-1, 0, 1)]
    assert len(grid) == 9
    for a1 in grid:
        for a2 in grid:
            inputs = amplitude_interference(a1, a2)
            assert interference_term(inputs) == a1[0] * a2[0] + a1[1] * a2[1]


def test_amplitude_out_of_range():
    with pytest.raises(OutOfRange):
        amplitude_interference((F(2), F(0)), (F(0), F(0)))
    with pytest.raises(OutOfRange):
        amplitude_interference((F(1), F(0)), (F(1), F(0)))  # p_or would be 2


def test_amplitude_rejects_floats():
    with pytest.raises(TypeError):
        amplitude_interference((0.5, 0.5), (F(1, 2), F(1, 2)))


@given(
    st.fractions(min_value=0, max_value=1),
    st.fractions(min_value=0, max_value=1),
    st.fractions(min_value=0, max_value=1),
)
def test_interference_term_formula(p_or, p1, p2):
    assert interference_term(InterferenceInputs(p_or, p1, p2)) == p_or - p1 / 2 - p2 / 2
