"""The big-integer arithmetic against the builtins it replaces: recursive
division against divmod and the Goedel numbering's base-3 parse by halves
against int(s, 3) and 3 ** len, on random sizes, at each crossover and
one limb either side, and on the powers of 2, 3 and 10; the Goedel
conversions that use it against their literal definitions; and the index
codec, which does not use it, against the literal formulas on numbers of
20 000 and 95 000 bits."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bgslab
from bgslab import bigint, codec, machine, quasitrivial

from helpers import reference_to_trits, reference_triple_decode, reference_unpair

SRC = str(Path(bgslab.__file__).resolve().parent.parent)

LIMB = 30  # bits in one CPython digit
LIMB_TRITS = 19  # base-3 digits in one limb, about 30 / log2(3)


def near_powers(bit_lengths):
    """p - 1, p and p + 1 for the powers p of 2, 3 and 10 nearest each bit length."""
    out = []
    for bits in bit_lengths:
        for base in (2, 3, 10):
            p = base ** max(1, round(bits / math.log2(base)))
            out += [p - 1, p, p + 1]
    return out


def around(limit, step):
    """The crossover and one limb either side."""
    return [limit - step, limit, limit + step]


def plain_base3(v: int) -> str:
    """v's base-3 digits, the literal way: one divmod per digit."""
    digits = []
    while v:
        v, d = divmod(v, 3)
        digits.append("012"[d])
    return "".join(reversed(digits))


# --- division -----------------------------------------------------------------

def check_divmod(a, b):
    assert bigint.divmod(a, b) == divmod(a, b), (a.bit_length(), b.bit_length())


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(0, 100_000), st.integers(1, 100_000), st.integers(0, 2 ** 32))
def test_divmod_equals_the_builtin_on_random_sizes(quotient_bits, divisor_bits, seed):
    rng = random.Random(seed)
    b = rng.getrandbits(divisor_bits) or 1
    check_divmod(rng.getrandbits(quotient_bits + divisor_bits), b)


@pytest.mark.parametrize("divisor_bits", [*around(bigint.DIV_LIMIT, LIMB), 3 * bigint.DIV_LIMIT])
@pytest.mark.parametrize("quotient_bits", [*around(bigint.DIV_LIMIT, LIMB), 5 * bigint.DIV_LIMIT])
def test_divmod_at_its_crossover(quotient_bits, divisor_bits):
    rng = random.Random(quotient_bits * divisor_bits)
    for _ in range(3):
        b = rng.getrandbits(divisor_bits) | 1 << (divisor_bits - 1)
        check_divmod(rng.getrandbits(quotient_bits + divisor_bits), b)
        check_divmod(b << quotient_bits, b)  # a remainder of 0
        check_divmod((b << quotient_bits) - 1, b)  # every quotient digit maximal


def test_divmod_on_the_powers_of_2_3_and_10():
    values = near_powers([bigint.DIV_LIMIT + LIMB, 10_000, 40_000, 100_000])
    for a in values:
        for b in values:
            check_divmod(a, b)
        check_divmod(a * a, a)
        check_divmod(a * a - 1, a)


def test_divmod_leaves_signs_and_zero_to_the_builtin():
    big = 3 ** 20_000
    for a, b in ((-big, big // 7), (big, -(big // 7)), (-big, -(big // 7))):
        check_divmod(a, b)
    with pytest.raises(ZeroDivisionError):
        bigint.divmod(big, 0)


# --- base-3 parse -------------------------------------------------------------

def check_parse(digits):
    assert machine._parse_base3(digits) == (int(digits or "0", 3), 3 ** len(digits)), len(digits)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 126_000), st.integers(0, 2 ** 32))
def test_parse_base3_equals_the_builtin_on_random_sizes(length, seed):
    rng = random.Random(seed)
    check_parse("".join(rng.choices("012", k=length)))


# the crossover and sizes well below and above it, each with one limb either side
@pytest.mark.parametrize("length", [0, 1, *around(2000, LIMB_TRITS),
                                    *around(machine._INT_STR_DIGITS, LIMB_TRITS),
                                    *around(12_000, LIMB_TRITS)])
def test_parse_base3_at_its_crossovers(length):
    rng = random.Random(length)
    for digits in ("0" * length, "2" * length, "".join(rng.choices("012", k=length))):
        check_parse(digits)


def test_parse_base3_on_the_powers_of_2_3_and_10():
    for v in near_powers([4000, 20_000, 40_000]):
        digits = plain_base3(v)
        check_parse(digits)
        check_parse("0" * 7 + digits)  # leading zeros


# --- the conversions that use the layer ---------------------------------------

def bijective_lengths():
    """Every length up to 200, each leaf and level boundary of the split:
    6 * 2^i and one digit either side, the crossover machine._INT_STR_DIGITS
    and one digit and one limb either side, and 12 000, well above it, and
    one digit either side."""
    levels = [6 << i for i in range(13)]
    return sorted({*range(201), *(n + d for n in levels for d in (-1, 0, 1)),
                   *around(machine._INT_STR_DIGITS, 1),
                   *around(machine._INT_STR_DIGITS, LIMB_TRITS), *around(12_000, 1)})


@pytest.mark.parametrize("length", bijective_lengths())
def test_to_trits_equals_the_literal_loop_at_every_length_and_boundary(length):
    low = (3 ** length - 1) // 2  # the least n whose string has this length
    high = (3 ** (length + 1) - 1) // 2 - 1
    for n in {low, high, random.Random(length).randint(low, high)}:
        assert machine._to_trits(n) == reference_to_trits(n), (length, n - low)


@pytest.mark.parametrize("k", [63, 64, 300, 400])
def test_the_goedel_conversion_divides_only_2n_by_n_bits_and_recurses(monkeypatch, k):
    # the only shape that bigint.divmod divides recursively: a dividend
    # below b 2^|b|; any other would fall back to the quadratic builtin
    m = quasitrivial.build_qt(k, k_max=k).m
    divide, split = bigint.divmod, bigint._div3n2n
    calls, recursed = [], []

    def counted_split(*args):
        recursed.append(True)
        return split(*args)

    def checked_divide(a, b):
        assert a >> b.bit_length() < b, (a.bit_length(), b.bit_length())
        calls.append(b)
        return divide(a, b)
    monkeypatch.setattr(bigint, "divmod", checked_divide)
    monkeypatch.setattr(bigint, "_div3n2n", counted_split)
    assert machine._to_trits(m) == reference_to_trits(m)
    assert calls and recursed, (len(calls), len(recursed))


def diagonal_points(w):
    """The z on diagonal w, z = w(w+1)/2 + y, at both ends and around the
    middle, where the root of 8z + 1 turns from 2w + 1 to 2w + 2."""
    return [w * (w + 1) // 2 + y for y in (0, 1, w // 2 - 1, w // 2, w // 2 + 1, w - 1, w)]


# sizes above every index that the command line compiles (below 2^18 000),
# up to that of the cutoff-400 index (95 244 bits)
@pytest.mark.parametrize("bits", [19_970, 20_000, 20_030, 95_000])
def test_unpair_and_triple_decode_equal_the_literal_formula_across_the_crossover(bits):
    rng = random.Random(bits)
    parities = set()
    for _ in range(3):
        w = rng.getrandbits((bits + 1) // 2) | 1 << ((bits - 1) // 2)
        for z in diagonal_points(w):
            parities.add(math.isqrt(8 * z + 1) & 1)
            assert codec.unpair(z) == reference_unpair(z)
            assert codec.triple_decode(z) == reference_triple_decode(z)
    assert parities == {0, 1}


def test_unpair_and_triple_decode_at_the_crossover_itself():
    big = 1 << 20_000
    for z in (big - 1, big, big + 1):
        assert codec.unpair(z) == reference_unpair(z)
        assert codec.triple_decode(z) == reference_triple_decode(z)
    for m in near_powers([20_000, 40_000]):
        assert codec.unpair(codec.pair(m, 7)) == (m, 7)
        assert codec.triple_decode(codec.triple_encode(m, 2, 5)) == (m, 2, 5)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no int-str conversion limit")
def test_the_cutoff_400_machine_converts_under_the_default_digit_limit(tmp_path):
    # the Goedel numbers have from 5634 base-3 digits (cutoff 63) to 30 046
    # (cutoff 400), all above the 4300 that int(s, 3) accepts by default;
    # the conversions must not need the lift
    script = "\n".join([
        "import sys",
        "import bgslab",
        "sys.set_int_max_str_digits(4300)",
        "from bgslab import codec, machine, quasitrivial",
        "for k in (63, 100, 126, 400):",
        "    q = quasitrivial.build_qt(k, k_max=k)",
        "    machine.decode_machine.cache_clear()",
        "    assert machine.decode_machine(q.m) == q.table, k",
        "    b = quasitrivial.measure_b(q)",
        "    assert codec.triple_decode(codec.triple_encode(q.m, 2, b)) == (q.m, 2, b), k",
        "assert len(machine._to_trits(q.m)) == 30046",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
