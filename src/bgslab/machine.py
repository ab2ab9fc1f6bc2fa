"""Deterministic single-tape Turing machine engine with exact step accounting.

Model, fixed once:

* Tape is singly infinite to the right.  The input natural x is written as
  its dyadic string on cells 0..|x|-1, the head starts at cell 0, and all
  other cells are blank.
* Symbols are 0, 1 and BLANK.  Moves are L and R only; an L move at cell 0
  stays in place and still counts as a step.
* A "step" is one applied transition.  A missing (state, symbol) entry
  means the machine halts in place without consuming a step; a transition
  whose target is HALT applies its write and move first.
* Output is read at halt as the maximal {0,1} block starting at cell 0 and
  stopping at the first blank, decoded from dyadic.  Interrupted and
  fuel-exhausted runs output 0.

Machines are Goedel-numbered through a flat sequence code of transition
5-tuples, so that *every* natural decodes to some machine (unparsable
numbers decode to the machine with no transitions at all).  Both
directions use CPython's builtins up to its default limit of 4300 digits
on int(s, 3), and take subquadratic time past it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import product
from math import log2
from typing import Callable, Mapping, NamedTuple

from .codec import to_dyadic

MACHINE_ENCODING_VERSION = "flat5-trit-1"

BLANK = 2
SYMBOLS = (0, 1, BLANK)
MOVE_L = "L"
MOVE_R = "R"
HALT = -1  # next-state sentinel

# A clock bound at or above this many steps is never reached by a run that
# ends, so step_limit gives no limit rather than computing it.
_UNREACHABLE_STEPS = 2 ** 64


class Transition(NamedTuple):
    next_state: int  # HALT or a state index
    write: int
    move: str


class TransitionTable:
    """A concrete deterministic machine, equal to any with the same fields.

    `step_table` is the transition map in the form the simulator reads: a
    flat list of rows of three cells (symbols 0, 1, BLANK), one row for
    state 0 (first), one for each other state that has a transition, and
    a last row of None cells shared by every state without transitions.
    The cell of (state, symbol) holds (first cell of the next state's row,
    write, +1 for R or -1 for L, next state), or None where the machine
    halts.  Rows go by transitions, not by `state_count`, so a table with
    huge state numbers stays small.

    `answer` is not part of the machine: it is the memo that
    `bgs.counterexample` keeps for every index sharing this table object.
    It holds (z, S): one search's least counterexample z and the largest
    step count S of the runs that settled it, so an index with clock
    offset b >= S is answered without a walk.  Unlike the package's other
    records, which are named tuples, a table is a plain object, so that
    `bgs` can set its memo; like its `transitions` dict, it is not
    hashable.
    """

    __hash__ = None

    def __init__(self, state_count: int, transitions: Mapping[tuple[int, int], Transition]):
        if state_count < 1:
            raise ValueError("state_count must be >= 1")
        self.state_count = state_count
        self.transitions = transitions
        rows = {0: 0}  # state -> first cell of its row
        for q, _ in transitions:
            if q not in rows:
                rows[q] = 3 * len(rows)
        halting = 3 * len(rows)  # the row of every state without transitions
        cells: list[tuple[int, int, int, int] | None] = [None] * (halting + 3)
        for (q, s), t in transitions.items():
            nxt, write, move = t.next_state, t.write, t.move
            if not (0 <= q < state_count):
                raise ValueError(f"state {q} out of range")
            if s not in SYMBOLS or write not in SYMBOLS:
                raise ValueError(f"bad symbol in transition ({q}, {s})")
            if move not in (MOVE_L, MOVE_R):
                raise ValueError(f"bad move {move!r}")
            if nxt != HALT and not (0 <= nxt < state_count):
                raise ValueError(f"next state {nxt} out of range")
            cells[rows[q] + s] = (rows.get(nxt, halting), write,
                                  1 if move == MOVE_R else -1, nxt)
        self.step_table = cells
        self.answer: tuple[int, int] | None = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.state_count, self.transitions) == (other.state_count, other.transitions)

    def __repr__(self) -> str:
        return f"TransitionTable(state_count={self.state_count}, transitions={self.transitions})"


NULL_MACHINE = TransitionTable(state_count=1, transitions={})


class ClockSpec(namedtuple("ClockSpec", "a b")):
    """Polynomial step budget |x|^a + b over the input's dyadic length."""

    __slots__ = ()

    def __new__(cls, a: int, b: int) -> "ClockSpec":
        if a < 1 or b < 1:
            raise ValueError("clock exponents and offsets must be >= 1")
        return tuple.__new__(cls, (a, b))

    @classmethod
    def _make(cls, iterable) -> "ClockSpec":
        # namedtuple's _make and _replace skip __new__; keep the check
        return cls(*iterable)


class RunResult(NamedTuple):
    output: int
    steps: int
    interrupted: bool = False  # stopped by a polynomial clock
    fuel_exhausted: bool = False  # stopped by the raw safety fuel

    @property
    def halted(self) -> bool:
        return not self.interrupted and not self.fuel_exhausted


StepObserver = Callable[[int, int, int, int], None]  # step, state, head, symbol


# dyadic digit characters to tape symbols and back
_TAPE_SYMBOLS = bytes.maketrans(b"01", b"\x00\x01")
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _read_output(tape: bytearray) -> int:
    end = tape.find(BLANK)
    block = tape if end < 0 else tape[:end]
    return int(b"1" + block.translate(_DIGITS), 2) - 1  # from_dyadic, unchecked


def _simulate(table: TransitionTable, input_value: int, limit: int | None,
              on_step: StepObserver | None = None) -> tuple[bool, int, bytearray]:
    """Run up to `limit` applied steps (no limit when None); returns
    (halted, steps, tape), the tape one symbol per byte.

    `halted` is true when the machine can make no further move, including
    the case where that happens at exactly `limit` steps.  The run is the
    one step loop, `_resume`, from state 0 on the input's tape.
    """
    tape = bytearray(to_dyadic(input_value), "ascii").translate(_TAPE_SYMBOLS)
    return _resume(table.step_table, tape, limit, on_step, 0, 0, 0)


def _resume(cells: list, tape: bytearray, limit: int | None, on_step: StepObserver | None,
            row: int, head: int, steps: int) -> tuple[bool, int, bytearray]:
    """Continue, as `_simulate` runs, a run at `row` of the step table
    `cells` after `steps <= limit` applied steps, with the head at `head
    <= len(tape)` on `tape`.  The state is known only from the transition
    into it, so only a run from row 0 (state 0) may pass `on_step`."""
    size = len(tape)
    state = 0
    while True:
        sym = tape[head] if head < size else BLANK
        cell = cells[row + sym]
        if cell is None:
            return True, steps, tape
        if steps == limit:
            return False, steps, tape
        if on_step is not None:
            on_step(steps, state, head, sym)
        row, write, move, state = cell
        # the head is never past the first cell beyond the tape's end
        if head < size:
            tape[head] = write
        else:
            tape.append(write)
            size += 1
        head += move
        if head < 0:
            head = 0
        steps += 1
        if state == HALT:
            return True, steps, tape


def run(table: TransitionTable, input_value: int, max_steps: int,
        on_step: StepObserver | None = None) -> RunResult:
    """Unclocked execution with a safety fuel bound (max_steps >= 1)."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    halted, steps, tape = _simulate(table, input_value, max_steps, on_step)
    if halted:
        return RunResult(output=_read_output(tape), steps=steps)
    return RunResult(output=0, steps=max_steps, fuel_exhausted=True)


def step_limit(clock: ClockSpec, input_value: int) -> int | None:
    """The step limit of a clocked run on input_value; None for no limit.

    A bound of 2^64 steps or more is never computed (|x|^a >= 2^a once
    |x| >= 2) and the run gets no limit: a machine that halts does so long
    before such a bound, so its result is the same, but a machine that
    loops under such a clock runs without end.
    """
    length = (input_value + 1).bit_length() - 1  # |x| = len(to_dyadic(x)), unbuilt
    if clock.a >= 64 and length >= 2:
        return None
    bound = length ** clock.a + clock.b
    return None if bound >= _UNREACHABLE_STEPS else bound


def run_clocked(table: TransitionTable, clock: ClockSpec, input_value: int,
                on_step: StepObserver | None = None) -> RunResult:
    """Execution under a polynomial clock, limited by `step_limit`.

    If the machine cannot halt within bound(x) applied steps the result is
    interrupted with output 0 and steps equal to the bound.  Halting at
    exactly the bound counts as a normal halt.
    """
    bound = step_limit(clock, input_value)
    halted, steps, tape = _simulate(table, input_value, bound, on_step)
    if halted:
        return RunResult(output=_read_output(tape), steps=steps)
    return RunResult(output=0, steps=bound, interrupted=True)


# --- Goedel numbering ------------------------------------------------------
#
# A machine is the flat field sequence [q, s, next, write, move, q, s, ...]
# of its transitions sorted by (q, s), with next = 0 meaning HALT and
# next = k + 1 meaning state k, and move 0 = L, 1 = R.  The sequence is
# numbered through a bijective base-3 digit string: each field contributes
# its dyadic string followed by a terminating 2 digit.  This keeps the
# Goedel number's size linear in the table size (a nested-pair sequence
# code doubles in bit length per field and cannot represent realistic
# tables).  Numbers that do not parse (no trailing separator, field count
# not a multiple of 5, a field out of range, or a duplicate (q, s) key)
# decode to NULL_MACHINE, so decoding is total on the naturals and every
# table has a preimage.
#
# The last digit of the bijective string of n > 0 is (n - 1) mod 3, so a
# string ending in the separator 2 has n divisible by 3: every m with
# m % 3 != 0 is unparsable, and decode_machine returns NULL_MACHINE for it
# (and for m = 0, the empty sequence) without converting any digits.
#
# The bijective string of n has the length L with
# (3^L - 1)/2 <= n < (3^(L+1) - 1)/2, and is n - (3^L - 1)/2 written as
# exactly L plain base-3 digits (encode_machine is the inverse).  Those
# digits are ceil(L / 6) leaves of 6 digits, the first of 1 to 6, each
# read from a table.  They are split off level by level: with 2^(j-1) <
# leaves <= 2^j, level i = j-1..0 divides every part below the top one by
# 3^(6 * 2^i), and the top one too while it holds more than 2^i leaves.
# So only the top split is uneven, and no digit is padded.  Each level is
# one list comprehension of divmod over its parts, so the per-digit work
# is done by C big-integer division instead of interpreted calls.  CPython
# divides by the schoolbook method, quadratic in the size, so above
# _INT_STR_DIGITS digits a level whose divisor has more than
# bigint.DIV_LIMIT bits divides by recursive division, in a few
# multiplications' time.  encode_machine reads the digits back by
# _parse_base3, which also gives 3^L for the repunit.
#
# A parsed field holds only the digits 0 and 1, so it is read as a dyadic
# string without from_dyadic's check, once per distinct field, and one
# Transition object is built per distinct (next, write, move) entry: the
# cutoff-400 machine has 7415 fields of 571 distinct values and 1483
# transitions of 572 distinct entries.  encode_machine builds each
# distinct value's digits once likewise.
#
# decode_machine memoizes its tables by size of m, because a decoded table
# holds its search memo (`answer`), and every index that gets the same
# table object shares it.  A table whose m has at most 64 bits (at most 41
# digits, so at most 8 transitions) is kept in an LRU of 4096 entries: a
# block of contiguous indices repeats few such m (190 to 460 distinct m
# divisible by 3 in 20 000 indices below 10^6), so each is parsed once
# rather than per index, and the answer its first search records answers
# every later index of that m whose offset b is at least S.  Any larger m
# keeps only the last result, in a one-entry memo: the cutoff pipeline
# decodes the same m for the no-interrupt check and for both
# counterexample searches, and a larger memo would keep alive every cutoff
# table of a long lemma_check range, each with a Goedel number of up to
# millions of bits.

_LEAF_WIDTH = 6

# Above this many base-3 digits, a Goedel number leaves CPython's builtins,
# which take time quadratic in its size: _parse_base3 splits it and
# _to_trits divides through `bigint`.  This is CPython's default limit on
# int(s, 3), so no conversion needs the lift of that limit that `import
# bgslab` makes; cutoffs 63 and 64 (5634 and 5647 digits) are the compiled
# machines past it.  Other limits gain little: as the least of 60
# alternated calls on Python 3.11.7 and a 2-vCPU x86-64 host, at cutoffs
# 63 to 400 (5634 to 30 046 digits), _to_trits with a gate at 12 000
# digits read within 2 % of this one in one session and up to 6 % faster
# at cutoffs 63 to 126 in another, and _parse_base3 with pieces of at
# most 2000 digits read within 7 %.
_INT_STR_DIGITS = 4300

# _LEAVES[w][r] is r (0 <= r < 3^w) as exactly w base-3 digits
_LEAVES = tuple(tuple("".join(t) for t in product("012", repeat=w))
                for w in range(_LEAF_WIDTH + 1))


def _to_trits(n: int) -> str:
    """The bijective base-3 digit string of n, in digits 0, 1, 2."""
    t = 2 * n + 1  # 3^L <= t < 3^(L+1)
    length = int((t.bit_length() - 1) / log2(3))
    power = 3 ** length
    while power > t:
        power //= 3
        length -= 1
    while 3 * power <= t:
        power *= 3
        length += 1
    r = n - (power - 1) // 2  # 0 <= r < 3^length
    if length <= _LEAF_WIDTH:
        return _LEAVES[length][r]
    leaves = -(-length // _LEAF_WIDTH)  # all of width 6 but the first
    levels = (leaves - 1).bit_length()  # 2^(levels-1) < leaves <= 2^levels
    powers = [3 ** _LEAF_WIDTH]  # powers[i] = 3^(6 * 2^i)
    for _ in range(levels - 1):
        powers.append(powers[-1] * powers[-1])
    big = length > _INT_STR_DIGITS
    if big:
        from . import bigint
    # head holds the first `top` leaves; at level i each part of rest holds 2^(i+1)
    head, rest, top = r, [], leaves
    for i in reversed(range(levels)):
        divide = divmod
        if big and powers[i].bit_length() > bigint.DIV_LIMIT:
            divide = bigint.divmod
        rest = [part for whole in rest for part in divide(whole, powers[i])]
        if top > 1 << i:  # the uneven split: top - 2^i leaves and 2^i
            head, low = divide(head, powers[i])
            rest.insert(0, low)
            top -= 1 << i
    first, leaf = _LEAVES[length - _LEAF_WIDTH * (leaves - 1)], _LEAVES[_LEAF_WIDTH]
    return first[head] + "".join([leaf[part] for part in rest])


def _parse_base3(digits: str) -> tuple[int, int]:
    """(int(digits, 3), 3^len(digits)) for a string of digits 0, 1 and 2,
    the empty string included: one int(s, 3) for at most _INT_STR_DIGITS
    digits, else the high and the low half parsed alone, joined by one
    multiplication by the low half's power (Brent and Zimmermann, *Modern
    Computer Arithmetic*, §1.7)."""
    powers: dict[int, int] = {}  # length -> 3^length; each level has at most two lengths

    def parse(start: int, stop: int) -> int:
        size = stop - start
        if size <= _INT_STR_DIGITS:
            if size not in powers:
                powers[size] = 3 ** size
            return int(digits[start:stop] or "0", 3)
        middle = stop - (size >> 1)
        high, low = parse(start, middle), parse(middle, stop)
        if size not in powers:
            powers[size] = powers[middle - start] * powers[stop - middle]
        return high * powers[stop - middle] + low

    value = parse(0, len(digits))
    return value, powers[len(digits)]


def encode_machine(table: TransitionTable) -> int:
    flat: list[int] = []
    for (q, s), t in sorted(table.transitions.items()):
        nxt = 0 if t.next_state == HALT else t.next_state + 1
        flat += (q, s, nxt, t.write, 0 if t.move == MOVE_L else 1)
    words = {v: to_dyadic(v) + "2" for v in set(flat)}
    # bijective base 3 with digits 1, 2, 3 is plain base 3 plus a repunit
    value, power = _parse_base3("".join(map(words.__getitem__, flat)))
    return value + (power - 1) // 2


_SMALL_GOEDEL = 1 << 64  # m below this has its table kept in the LRU
_SMALL_TABLES = 4096


def decode_machine(m: int) -> TransitionTable:
    """Total decoder: every natural is a machine, and every unparsable one
    is the NULL_MACHINE object.  The result is shared by repeated calls
    with the same m and must not be modified: the tables of m below 2^64
    stay in an LRU of 4096 entries, and a larger m keeps only the last
    one.  `decode_machine.cache_clear()` empties both memos."""
    if m <= 0 or m % 3:
        if m < 0:
            raise ValueError(f"expected a natural number, got {m}")
        return NULL_MACHINE
    if m < _SMALL_GOEDEL:
        return _decode_small(m)
    return _decode_large(m)


def _parse_machine(m: int) -> TransitionTable:
    fields = _to_trits(m).split("2")[:-1]  # each only 0s and 1s
    if len(fields) % 5 != 0:
        return NULL_MACHINE
    values = {f: int("1" + f, 2) - 1 for f in set(fields)}  # from_dyadic, unchecked
    flat = map(values.__getitem__, fields)  # one iterator, zipped five times
    transitions: dict[tuple[int, int], Transition] = {}
    shared: dict[tuple[int, int, int], Transition] = {}  # one object per distinct entry
    for q, s, nxt, write, move in zip(flat, flat, flat, flat, flat):
        if s > 2 or write > 2 or move > 1 or (q, s) in transitions:
            return NULL_MACHINE
        t = shared.get((nxt, write, move))
        if t is None:
            t = shared[nxt, write, move] = Transition(
                HALT if nxt == 0 else nxt - 1, write, MOVE_L if move == 0 else MOVE_R)
        transitions[(q, s)] = t
    # m's digits end in a separator, so a transition exists; HALT's next field is 0
    top = max(max(transitions)[0], max(shared)[0] - 1)
    return TransitionTable(state_count=top + 1, transitions=transitions)


_decode_small = lru_cache(maxsize=_SMALL_TABLES)(_parse_machine)
_decode_large = lru_cache(maxsize=1)(_parse_machine)


def _clear_decoded() -> None:
    _decode_small.cache_clear()
    _decode_large.cache_clear()


decode_machine.cache_clear = _clear_decoded


# --- Text format -----------------------------------------------------------
#
#   states N
#   q sym -> q' sym' M
#
# with sym in {0, 1, _}, M in {L, R}, N, q and q' in ASCII digits, and HALT allowed as q'.

_SYMBOL_CHARS = {"0": 0, "1": 1, "_": BLANK}
_CHAR_SYMBOLS = {v: k for k, v in _SYMBOL_CHARS.items()}


class MachineFormatError(ValueError):
    pass


def parse_natural(text: str) -> int:
    """The natural that text spells in ASCII decimal digits; ValueError for
    any other text.  int() alone would also read signs (HALT's -1),
    underscores, surrounding whitespace and other scripts' digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a natural in decimal digits: {text!r}")
    return int(text)


def parse_integer(text: str) -> int:
    """A natural as parse_natural reads it, negated after a leading '-'."""
    return -parse_natural(text[1:]) if text.startswith("-") else parse_natural(text)


def parse_machine_file(text: str) -> TransitionTable:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    try:
        keyword, count = lines[0].split()  # exactly two tokens
        if keyword != "states":
            raise ValueError(keyword)
        state_count = parse_natural(count)
    except (IndexError, ValueError):
        raise MachineFormatError("first line must be 'states N'") from None
    transitions: dict[tuple[int, int], Transition] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 6 or parts[2] != "->":
            raise MachineFormatError(f"bad transition line: {ln!r}")
        q_raw, sym_raw, _, nq_raw, wsym_raw, move = parts
        if sym_raw not in _SYMBOL_CHARS or wsym_raw not in _SYMBOL_CHARS:
            raise MachineFormatError(f"bad symbol in line: {ln!r}")
        if move not in (MOVE_L, MOVE_R):
            raise MachineFormatError(f"bad move in line: {ln!r}")
        try:
            q = parse_natural(q_raw)
            nq = HALT if nq_raw == "HALT" else parse_natural(nq_raw)
        except ValueError:
            raise MachineFormatError(f"bad state in line: {ln!r}") from None
        key = (q, _SYMBOL_CHARS[sym_raw])
        if key in transitions:
            raise MachineFormatError(f"duplicate transition for {key}")
        transitions[key] = Transition(nq, _SYMBOL_CHARS[wsym_raw], move)
    try:
        return TransitionTable(state_count=state_count, transitions=transitions)
    except ValueError as e:
        raise MachineFormatError(str(e)) from None


def format_machine_file(table: TransitionTable) -> str:
    lines = [f"states {table.state_count}"]
    for (q, s), t in sorted(table.transitions.items()):
        nq = "HALT" if t.next_state == HALT else str(t.next_state)
        lines.append(f"{q} {_CHAR_SYMBOLS[s]} -> {nq} {_CHAR_SYMBOLS[t.write]} {t.move}")
    return "\n".join(lines) + "\n"
