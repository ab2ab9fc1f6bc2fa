"""Bijective numeric codecs shared by every other module.

Conventions, fixed once for the whole project:

* Naturals <-> binary strings via the dyadic (bijective base-2) numbering:
  "" = 0, "0" = 1, "1" = 2, "00" = 3, ...  Strings are ordered by length,
  then lexicographically with 0 < 1, and indexed from zero.
* Cantor diagonal pairing with pair(0, 0) = 0.  It is monotone in both
  arguments (pair(x, y) >= max(x, y)), which the counterexample bound in
  the quasi-trivial pipeline relies on.
* Sequence codes: seq([]) = 0, seq(h:t) = pair(h, seq(t)) + 1.
* CNF formulas: a formula is a sequence of clause codes; a clause is a
  sequence of literal codes, where 2v encodes variable v and 2v + 1 its
  negation (v >= 1).  The codes 0 and 1 never encode a literal, so any
  natural whose decoding produces one is marked invalid instead of raising.
* Assignments: the natural y assigns truth values through its dyadic
  string; bit i (character '1' = true) is the value of variable i + 1.
  An assignment fits a formula only when the string length equals the
  formula's variable count, with no padding allowed.

Every function here is pure and every value immutable, so concurrent use
needs no coordination.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from typing import Iterable, NamedTuple, Sequence

CODEC_VERSION = "dyadic-cantor-1"


def to_dyadic(n: int) -> str:
    """Map a natural to its dyadic (bijective base-2) string; 0 -> ""."""
    if n < 0:
        raise ValueError(f"expected a natural number, got {n}")
    return format(n + 1, "b")[1:]


def from_dyadic(s: str) -> int:
    """Inverse of to_dyadic; accepts any string over {0, 1}."""
    if s.strip("01"):
        raise ValueError(f"not a binary string: {s!r}")
    return int("1" + s, 2) - 1


def pair(x: int, y: int) -> int:
    """Cantor diagonal pairing; a bijection N x N -> N with pair(0,0) = 0."""
    if x < 0 or y < 0:
        raise ValueError(f"expected naturals, got ({x}, {y})")
    s = x + y
    return s * (s + 1) // 2 + y


def unpair(z: int) -> tuple[int, int]:
    """Inverse of pair; total on the naturals.

    z lies on diagonal w = (isqrt(8z + 1) - 1) // 2 at y = z - w(w+1)/2."""
    if z < 0:
        raise ValueError(f"expected a natural number, got {z}")
    w = (isqrt(8 * z + 1) - 1) // 2
    y = z - w * (w + 1) // 2
    return w - y, y


def triple_encode(m: int, a: int, b: int) -> int:
    """Index a machine-clock pair as pair(m, pair(a, b))."""
    return pair(m, pair(a, b))


def triple_decode(n: int) -> tuple[int, int, int]:
    """Inverse of triple_encode: (m, a, b) with n = pair(m, pair(a, b)).

    Both unpairings in one body, so n is checked once; ab = n - w(w+1)/2
    is a natural for every natural n, so it needs no check of its own."""
    if n < 0:
        raise ValueError(f"expected a natural number, got {n}")
    w = (isqrt(8 * n + 1) - 1) // 2
    ab = n - w * (w + 1) // 2
    v = (isqrt(8 * ab + 1) - 1) // 2
    b = ab - v * (v + 1) // 2
    return w - ab, v - b, b


def seq_encode(items: Iterable[int]) -> int:
    """seq([]) = 0, seq(h:t) = pair(h, seq(t)) + 1."""
    code = 0
    for h in reversed(list(items)):
        code = pair(h, code) + 1
    return code


def seq_decode(n: int) -> list[int]:
    """Total inverse of seq_encode; every natural is some sequence."""
    items = []
    while n > 0:
        h, n = unpair(n - 1)
        items.append(h)
    return items


class CnfFormula(NamedTuple):
    """A CNF formula as a tuple of clauses, each a tuple of signed variables.

    Literals are nonzero integers; +v asserts variable v, -v its negation,
    with v >= 1.  Clause and literal order is significant for the numeric
    code (the code is a bijection on the raw sequences, not on logical
    equivalence classes).
    """

    clauses: tuple[tuple[int, ...], ...]

    @property
    def var_count(self) -> int:
        return max((abs(l) for c in self.clauses for l in c), default=0)

    @classmethod
    def from_lists(cls, clauses: Sequence[Sequence[int]]) -> "CnfFormula":
        return cls(tuple(tuple(c) for c in clauses))


EMPTY_FORMULA = CnfFormula(())


def _encode_literal(lit: int) -> int:
    v = abs(lit)
    if v < 1:
        raise ValueError(f"literal variable index must be >= 1, got {lit}")
    return 2 * v if lit > 0 else 2 * v + 1


def encode_cnf(formula: CnfFormula | Sequence[Sequence[int]]) -> int:
    """Numeric code of a formula; encode_cnf(EMPTY_FORMULA) = 0."""
    clauses = formula.clauses if isinstance(formula, CnfFormula) else formula
    return seq_encode(seq_encode(_encode_literal(l) for l in c) for c in clauses)


@lru_cache(maxsize=65536)
def decode_cnf(x: int) -> CnfFormula | None:
    """Total decoder: every natural is a formula or None (invalid).

    A code is invalid exactly when some decoded literal code is 0 or 1.
    Invalid codes count as unsatisfiable downstream, which keeps the
    verifier and the truth-table decider total.
    """
    clauses = []
    for clause_code in seq_decode(x):
        clause = []
        for lit_code in seq_decode(clause_code):
            if lit_code < 2:
                return None
            v, parity = divmod(lit_code, 2)
            clause.append(v if parity == 0 else -v)
        clauses.append(tuple(clause))
    return CnfFormula(tuple(clauses))


def assignment_bits(y: int) -> str:
    """Truth-value string of assignment code y (bit i = variable i + 1)."""
    return to_dyadic(y)
