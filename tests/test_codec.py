"""Codec laws, checked against independent enumeration oracles."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from bgslab import codec

from helpers import reference_triple_decode


# --- oracles -----------------------------------------------------------------

def strings_by_length_then_lex(count):
    """All binary strings in the canonical order: by length, then lex (0 < 1)."""
    out = []
    length = 0
    while len(out) < count:
        for bits in itertools.product("01", repeat=length):
            out.append("".join(bits))
            if len(out) == count:
                return out
        length += 1
    return out


def cantor_diagonal_order(count):
    """All pairs enumerated diagonal by diagonal, ascending second component."""
    out = []
    s = 0
    while len(out) < count:
        for y in range(s + 1):
            out.append((s - y, y))
            if len(out) == count:
                return out
        s += 1
    return out


# --- dyadic ------------------------------------------------------------------

def test_dyadic_frozen_base_cases():
    assert codec.to_dyadic(0) == ""
    assert codec.to_dyadic(1) == "0"
    assert codec.to_dyadic(2) == "1"
    assert codec.from_dyadic("00") == 3


def test_dyadic_matches_enumeration_oracle():
    for n, s in enumerate(strings_by_length_then_lex(2 ** 10 - 1)):
        assert codec.to_dyadic(n) == s
        assert codec.from_dyadic(s) == n


def test_dyadic_length_law():
    for n in range(10_000):
        assert len(codec.to_dyadic(n)) == math.floor(math.log2(n + 1))


def test_dyadic_roundtrip_and_injective():
    seen = set()
    for n in range(10_000):
        s = codec.to_dyadic(n)
        assert s not in seen
        seen.add(s)
        assert codec.from_dyadic(s) == n


def test_from_dyadic_rejects_non_binary():
    with pytest.raises(ValueError):
        codec.from_dyadic("012")


@given(st.integers(min_value=0, max_value=10 ** 12))
def test_dyadic_roundtrip_property(n):
    assert codec.from_dyadic(codec.to_dyadic(n)) == n


# --- pairing -----------------------------------------------------------------

def test_pair_matches_diagonal_enumeration_oracle():
    for z, (x, y) in enumerate(cantor_diagonal_order(5050)):
        assert codec.pair(x, y) == z
        assert codec.unpair(z) == (x, y)


def test_pair_frozen_examples():
    assert codec.pair(0, 0) == 0
    assert codec.pair(1, 2) == 8
    assert codec.unpair(codec.pair(7, 11)) == (7, 11)


def test_pair_monotone_and_inverse_small():
    for x in range(80):
        for y in range(80):
            z = codec.pair(x, y)
            assert z >= max(x, y)
            assert codec.unpair(z) == (x, y)


def test_pair_surjective_initial_segment():
    for z in range(100_000):
        x, y = codec.unpair(z)
        assert codec.pair(x, y) == z


@given(st.integers(min_value=0, max_value=10 ** 9),
       st.integers(min_value=0, max_value=10 ** 9))
def test_pair_roundtrip_property(x, y):
    z = codec.pair(x, y)
    assert z >= max(x, y)
    assert codec.unpair(z) == (x, y)


# --- triples -----------------------------------------------------------------

def test_triple_frozen_examples():
    assert codec.triple_encode(0, 0, 0) == 0
    assert codec.triple_encode(3, 2, 5) == 699
    assert codec.triple_decode(codec.triple_encode(3, 2, 5)) == (3, 2, 5)


def test_triple_composition():
    assert codec.triple_encode(4, 6, 9) == codec.pair(4, codec.pair(6, 9))


def test_triple_injective_up_to_20():
    codes = {codec.triple_encode(m, a, b)
             for m in range(21) for a in range(21) for b in range(21)}
    assert len(codes) == 21 ** 3 == 9261


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_triple_decode_total_and_inverse(n):
    m, a, b = codec.triple_decode(n)
    assert codec.triple_encode(m, a, b) == n


def test_triple_decode_equals_the_two_unpairings_on_an_initial_segment():
    for n in range(10 ** 5):
        assert codec.triple_decode(n) == reference_triple_decode(n), n


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(0, 4000), st.integers(0, 2 ** 32))
def test_triple_decode_equals_the_two_unpairings_on_large_numbers(bits, seed):
    n = random.Random(seed).getrandbits(bits)
    assert codec.triple_decode(n) == reference_triple_decode(n)


def triangular(w: int) -> int:
    return w * (w + 1) // 2


def test_triple_decode_at_the_diagonal_boundaries():
    # each unpairing turns to the next diagonal at a triangular number:
    # around w(w+1)/2 as n itself, and as its second part ab
    for w in (*range(1, 40), *(2 ** k + d for k in (10, 64, 1000, 2000) for d in (-1, 0, 1))):
        for t in (triangular(w) - 1, triangular(w), triangular(w) + 1):
            for n in (t, codec.pair(w, t), codec.pair(0, t), codec.pair(t, 0)):
                assert codec.triple_decode(n) == reference_triple_decode(n), (w, t)


@pytest.mark.parametrize("n", [-1, -2, -(10 ** 30)])
def test_triple_decode_rejects_a_negative_number(n):
    with pytest.raises(ValueError, match="natural number"):
        codec.triple_decode(n)


# --- sequences ---------------------------------------------------------------

def test_seq_frozen_base_cases():
    assert codec.seq_encode([]) == 0
    assert codec.seq_decode(0) == []
    assert codec.seq_encode([0]) == 1
    assert codec.seq_encode([5]) == codec.pair(5, 0) + 1


@given(st.lists(st.integers(min_value=0, max_value=100), max_size=8))
def test_seq_roundtrip_property(items):
    assert codec.seq_decode(codec.seq_encode(items)) == items


def test_seq_decode_total():
    for n in range(5_000):
        items = codec.seq_decode(n)
        assert codec.seq_encode(items) == n


# --- CNF ---------------------------------------------------------------------

def test_cnf_frozen_single_positive_literal():
    # [[+1]]: literal 2, clause pair(2,0)+1 = 4, formula pair(4,0)+1 = 11
    assert codec.encode_cnf([[1]]) == 11
    assert codec.decode_cnf(11) == codec.CnfFormula(((1,),))


def test_cnf_frozen_two_clause_formula_by_hand_expansion():
    # [[+1, -2], [+2]] expanded by hand, independent of seq_encode:
    def p(a, b):
        return (a + b) * (a + b + 1) // 2 + b
    lit_p1, lit_n2, lit_p2 = 2, 5, 4
    clause1 = p(lit_p1, p(lit_n2, 0) + 1) + 1
    clause2 = p(lit_p2, 0) + 1
    formula = p(clause1, p(clause2, 0) + 1) + 1
    assert formula == 32708
    assert codec.encode_cnf([[1, -2], [2]]) == formula
    assert codec.decode_cnf(formula) == codec.CnfFormula(((1, -2), (2,)))


def test_cnf_empty_formula_is_zero():
    assert codec.encode_cnf([]) == 0
    assert codec.decode_cnf(0) == codec.EMPTY_FORMULA
    assert codec.EMPTY_FORMULA.var_count == 0


def test_cnf_empty_clause_encodes():
    assert codec.encode_cnf([[]]) == 1
    assert codec.decode_cnf(1) == codec.CnfFormula(((),))


def test_cnf_decode_total_first_10k():
    valid = invalid = 0
    for x in range(10_000):
        formula = codec.decode_cnf(x)
        if formula is None:
            invalid += 1
        else:
            valid += 1
            assert codec.encode_cnf(formula) == x
    assert valid and invalid  # both kinds occur


def test_cnf_known_invalid_codes():
    # x = 2 decodes to a clause whose first literal code is 1
    assert codec.decode_cnf(2) is None
    assert codec.decode_cnf(4) is None


def test_cnf_roundtrip_exhaustive_small():
    lits = [1, -1, 2, -2]
    clauses = [list(c) for r in range(3) for c in itertools.combinations(lits, r)]
    for shape in itertools.product(clauses, repeat=2):
        formula = codec.CnfFormula.from_lists(shape)
        assert codec.decode_cnf(codec.encode_cnf(formula)) == formula


def test_cnf_order_and_repetition_are_significant():
    a = codec.encode_cnf([[1, -2]])
    b = codec.encode_cnf([[-2, 1]])
    assert a != b
    for x in (a, b, codec.encode_cnf([[1], [1]])):
        formula = codec.decode_cnf(x)
        assert codec.encode_cnf(formula) == x


def test_encode_rejects_zero_variable():
    with pytest.raises(ValueError):
        codec.encode_cnf([[0]])


@st.composite
def formulas(draw):
    n_clauses = draw(st.integers(min_value=0, max_value=4))
    return [
        draw(st.lists(
            st.integers(min_value=1, max_value=4).flatmap(
                lambda v: st.sampled_from([v, -v])),
            max_size=4))
        for _ in range(n_clauses)
    ]


@given(formulas())
def test_cnf_roundtrip_property(clauses):
    formula = codec.CnfFormula.from_lists(clauses)
    assert codec.decode_cnf(codec.encode_cnf(formula)) == formula


def test_assignment_bits_matches_dyadic():
    assert codec.assignment_bits(0) == ""
    assert codec.assignment_bits(6) == "11"
    assert codec.assignment_bits(5) == "10"
