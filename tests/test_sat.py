"""Verifier and decider semantics against the independent brute oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from bgslab import codec, sat


X_TWO_CLAUSE = codec.encode_cnf([[1, -2], [2]])  # 32708
X_SINGLE_POS = codec.encode_cnf([[1]])  # 11
X_CONTRADICTION = codec.encode_cnf([[1], [-1]])  # 591


def test_frozen_formula_codes():
    assert X_SINGLE_POS == 11
    assert X_TWO_CLAUSE == 32708
    assert X_CONTRADICTION == 591


# --- verifier ----------------------------------------------------------------

def test_empty_formula_accepts_only_the_empty_assignment():
    assert sat.verifier(codec.pair(0, 0)) == 1
    assert sat.verifier(0) == 1
    for y in range(1, 50):
        assert sat.verifier(codec.pair(0, y)) == 0


def test_no_positive_formula_is_satisfied_by_zero():
    assert sat.verify_pair(X_SINGLE_POS, 0) == 0
    for x in range(1, 500):
        assert sat.verify_pair(x, 0) == 0


def test_two_clause_formula_assignments():
    # variables (1, 2) read from bit string; "11" satisfies, "10" does not
    assert sat.verify_pair(X_TWO_CLAUSE, codec.from_dyadic("11")) == 1
    assert sat.verify_pair(X_TWO_CLAUSE, codec.from_dyadic("10")) == 0
    assert sat.verify_pair(X_TWO_CLAUSE, codec.from_dyadic("01")) == 0
    assert sat.verify_pair(X_TWO_CLAUSE, codec.from_dyadic("00")) == 0


def test_assignment_width_is_strict():
    # var_count(11) = 1: only one-bit assignments are even considered
    assert sat.verify_pair(X_SINGLE_POS, codec.from_dyadic("1")) == 1
    assert sat.verify_pair(X_SINGLE_POS, codec.from_dyadic("0")) == 0
    for bits in ("11", "10", "011"):
        assert sat.verify_pair(X_SINGLE_POS, codec.from_dyadic(bits)) == 0


def test_invalid_codes_verify_to_zero():
    assert codec.decode_cnf(2) is None
    for y in range(20):
        assert sat.verify_pair(2, y) == 0


def test_empty_clause_makes_formula_unsatisfiable():
    x = codec.encode_cnf([[]])
    for y in range(20):
        assert sat.verify_pair(x, y) == 0


# --- decider -----------------------------------------------------------------

def test_decider_frozen_examples():
    assert sat.decider(0) == sat.DeciderResult(witness=0, satisfiable=True)
    assert sat.decider(X_CONTRADICTION) == sat.DeciderResult(witness=0, satisfiable=False)
    assert sat.decider(X_TWO_CLAUSE) == sat.DeciderResult(witness=6, satisfiable=True)
    assert codec.assignment_bits(6) == "11"


def test_decider_witness_is_least():
    # enumerate the width-compatible assignments of the two-clause formula
    formula = codec.decode_cnf(X_TWO_CLAUSE)
    w = formula.var_count
    satisfying = [y for y in range(2 ** w - 1, 2 ** (w + 1) - 1)
                  if sat.verify_pair(X_TWO_CLAUSE, y) == 1]
    assert satisfying and sat.decider(X_TWO_CLAUSE).witness == min(satisfying)


def test_decider_on_invalid_code():
    assert sat.decider(2) == sat.DeciderResult(witness=0, satisfiable=False)


# --- brute oracle ------------------------------------------------------------

def test_brute_frozen_examples():
    assert sat.satisfiable_brute(0) is True
    assert sat.satisfiable_brute(X_CONTRADICTION) is False
    assert sat.satisfiable_brute(X_SINGLE_POS) is True
    assert sat.satisfiable_brute(2) is False


def test_brute_width_limit():
    wide = codec.encode_cnf([[21]])
    with pytest.raises(sat.WidthExceededError):
        sat.satisfiable_brute(wide)


def test_brute_agrees_with_decider_on_initial_segment():
    for x in range(600):
        expected = sat.satisfiable_brute(x)
        result = sat.decider(x)
        assert result.satisfiable == expected
        assert (result.witness != 0 or x == 0) == expected
        if expected:
            assert sat.least_witness_brute(x) == result.witness
        if result.witness:
            assert sat.verify_pair(x, result.witness) == 1


@st.composite
def formulas(draw):
    n_clauses = draw(st.integers(min_value=0, max_value=4))
    return [
        draw(st.lists(
            st.integers(min_value=1, max_value=5).flatmap(
                lambda v: st.sampled_from([v, -v])),
            max_size=4))
        for _ in range(n_clauses)
    ]


@settings(max_examples=200)
@given(formulas())
def test_decider_matches_brute_on_random_formulas(clauses):
    x = codec.encode_cnf(clauses)
    result = sat.decider(x)
    assert result.satisfiable == sat.satisfiable_brute(x)
    if result.satisfiable and x > 0:
        assert result.witness != 0
        assert sat.verify_pair(x, result.witness) == 1
        for y in range(result.witness):
            assert sat.verify_pair(x, y) == 0
