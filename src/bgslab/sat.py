"""The polynomial verifier V and the exponential truth-table decider T.

Both are trusted host-level reference functions, not transition tables:
only machines carrying an index in the clocked-pair set need to be real
Turing machines.  Conventions:

* V(pair(0, 0)) = 1: the empty formula is satisfied by the empty
  assignment, and that is the only accepted pair with x = 0.
* For x > 0 the assignment must have exactly var_count(x) bits, so no
  x > 0 is ever satisfied by y = 0.
* Invalid formula codes are unsatisfiable by definition.
* T enumerates the width-compatible assignments in increasing numeric
  order and returns the least satisfying one, else witness 0.

`least_witness_brute` (and `satisfiable_brute` on top of it) is an
independently written evaluator used as a test oracle; it deliberately
shares no evaluation code with V or T.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .codec import CnfFormula, assignment_bits, decode_cnf, from_dyadic, pair, unpair

BRUTE_WIDTH_LIMIT = 20


class WidthExceededError(ValueError):
    """Raised when a brute-force enumeration would exceed 2^20 assignments."""


def _satisfies(formula: CnfFormula, bits: str) -> bool:
    # bits[i] is the truth value of variable i + 1 ('1' = true)
    for clause in formula.clauses:
        for lit in clause:
            if bits[abs(lit) - 1] == ("1" if lit > 0 else "0"):
                break
        else:
            return False
    return True


def verifier(z: int) -> int:
    """V(z): 1 iff the assignment part of z satisfies the formula part."""
    x, y = unpair(z)
    if x == 0:
        return 1 if y == 0 else 0
    formula = decode_cnf(x)
    if formula is None:
        return 0
    bits = assignment_bits(y)
    if len(bits) != formula.var_count:
        return 0
    return 1 if _satisfies(formula, bits) else 0


def verify_pair(x: int, y: int) -> int:
    return verifier(pair(x, y))


class DeciderResult(NamedTuple):
    witness: int  # least satisfying assignment code, 0 when none
    satisfiable: bool


def decider(x: int) -> DeciderResult:
    """T(x): truth-table search for the least width-compatible witness.

    Total, but exponential in var_count(x); callers are expected to bound
    the width (the CLI enforces its configured limit).
    """
    if x == 0:
        return DeciderResult(witness=0, satisfiable=True)
    formula = decode_cnf(x)
    if formula is None:
        return DeciderResult(witness=0, satisfiable=False)
    w = formula.var_count
    # assignments of width w are exactly the codes 2^w - 1 .. 2^(w+1) - 2
    for y in range(2 ** w - 1, 2 ** (w + 1) - 1):
        if _satisfies(formula, assignment_bits(y)):
            return DeciderResult(witness=y, satisfiable=True)
    return DeciderResult(witness=0, satisfiable=False)


def least_witness_brute(x: int) -> int | None:
    """Independent tuple oracle: the least satisfying assignment code of x,
    or None when x is invalid or unsatisfiable.

    Must stay independent of `_satisfies`: it evaluates clauses directly
    over boolean tuples instead of dyadic bit strings.  For a fixed width,
    `itertools.product` order is numeric order of the assignment codes.
    """
    formula = decode_cnf(x)
    if formula is None:
        return None
    w = formula.var_count
    if w > BRUTE_WIDTH_LIMIT:
        raise WidthExceededError(f"formula has {w} variables, limit is {BRUTE_WIDTH_LIMIT}")
    for values in itertools.product((False, True), repeat=w):
        if all(any(values[abs(lit) - 1] == (lit > 0) for lit in clause)
               for clause in formula.clauses):
            return from_dyadic("".join("1" if v else "0" for v in values))
    return None


def satisfiable_brute(x: int) -> bool:
    """Independent satisfiability oracle over truth tuples."""
    return least_witness_brute(x) is not None
