"""Exact division of naturals of tens of thousands of bits and more.

CPython 3.11 multiplies large ints by Karatsuba's method, but it divides
in time quadratic in their size.  `divmod` builds division on its
multiplication by Burnikel and Ziegler's recursive method (MPI-I-98-1-022,
1998): two half-size divisions and two half-size products per level.

Every result is exact.  `divmod` recurses only on a dividend below b 2^|b|,
the shape of every division of `machine._to_trits`, its only importer, for
a Goedel number of more than `machine._INT_STR_DIGITS` base-3 digits; any
other division, and any below a crossover measured where it is defined,
is the builtin's, so small numbers never pay for it.
"""

from __future__ import annotations

import builtins

# A division whose quotient or divisor has at most this many bits is left
# to the builtin.  As the least of 60 calls of each side, alternated, in
# one process, on Python 3.11.7 and a 2-vCPU x86-64 host, divmod of a
# 2n-bit number by an n-bit one took, builtin / recursive: 20 / 21 us at
# n = 3000, 34 / 33 us at 4000, 51 / 45 us at 5000, 127 / 96 us at 8000
# and 4.2 / 1.6 ms at 48 000 bits; a limit of 2000 made n = 3000 slower
# (25 us), and one of 4000 or 6000 made n = 8000 slower (104 us).
DIV_LIMIT = 3000

_divmod = builtins.divmod


def divmod(a: int, b: int) -> tuple[int, int]:
    """divmod(a, b) exactly: recursive for 0 <= a < b 2^n with n = |b|, a
    division of 2n bits by n, while more than DIV_LIMIT bits of a lie above
    the divisor's; any other division is the builtin's, quadratic in size."""
    n = b.bit_length()
    if b > 0 and 0 <= a >> n < b:
        return _div2n1n(a, b, n)
    return _divmod(a, b)


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b of exactly n bits and a < 2^n b: the top three
    halves of a by b, then the remainder and the last half by b."""
    if a.bit_length() - n <= DIV_LIMIT:
        return _divmod(a, b)
    pad = n & 1  # make n even; a and b doubled leave the quotient as it is
    if pad:
        a <<= 1
        b <<= 1
        n += 1
    half = n >> 1
    mask = (1 << half) - 1
    b1, b2 = b >> half, b & mask
    q1, r = _div3n2n(a >> n, (a >> half) & mask, b, b1, b2, half)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, half)
    return (q1 << half) | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, n: int) -> tuple[int, int]:
    """divmod(a12 2^n + a3, b) for b = b1 2^n + b2 of exactly 2n bits, a3 <
    2^n and a quotient below 2^n: estimate it from a12 and b1, then correct
    the estimate, which is at most 2 too large."""
    if a12 >> n == b1:
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n)
    r = ((r << n) | a3) - q * b2
    while r < 0:
        q -= 1
        r += b
    return q, r
