"""Engine semantics: step accounting, clocks, numbering, file format."""

import gc
import random
import weakref

import pytest
from hypothesis import example, given, settings, strategies as st

from bgslab import codec, machine
from bgslab.machine import (
    BLANK,
    HALT,
    MOVE_L,
    MOVE_R,
    ClockSpec,
    MachineFormatError,
    NULL_MACHINE,
    RunResult,
    Transition,
    TransitionTable,
    decode_machine,
    encode_machine,
    format_machine_file,
    parse_machine_file,
    run,
    run_clocked,
    step_limit,
)

from bgslab.quasitrivial import build_qt

from helpers import (ERASER, LOOPER, SCANNER, random_table, reference_decode_machine,
                     reference_run, reference_run_clocked, reference_simulate,
                     reference_to_trits)


# --- raw execution -----------------------------------------------------------

def test_null_machine_halts_immediately():
    result = run(NULL_MACHINE, 0, 100)
    assert result.halted and result.steps == 0 and result.output == 0


def test_null_machine_leaves_input_in_place():
    # no transitions means the tape block at the origin is the untouched
    # input, which the output convention reads back verbatim
    for x in (1, 5, 40):
        result = run(NULL_MACHINE, x, 100)
        assert result.steps == 0 and result.output == x


def test_eraser_outputs_zero_everywhere():
    for x in range(50):
        result = run(ERASER, x, 1000)
        assert result.halted
        assert result.output == 0
        assert result.steps == len(codec.to_dyadic(x))


def test_blanking_the_tape_decodes_to_zero():
    # output reads the {0,1} block from cell 0 to the first blank; a blank
    # origin cell means the empty string, i.e. 0
    result = run(ERASER, 6, 100)
    assert result.output == codec.from_dyadic("")  == 0


def test_right_scanner_hand_trace():
    # input 5 is "10": reads '1', reads '0', then the blank-halt transition
    result = run(SCANNER, 5, 100)
    assert result.steps == 3
    assert result.output == 5  # scanning writes the symbols back unchanged


def test_left_move_at_origin_stays_and_counts():
    table = TransitionTable(2, {
        (0, BLANK): Transition(1, BLANK, MOVE_L),
        (1, BLANK): Transition(HALT, 1, MOVE_R),
    })
    heads = []
    result = run(table, 0, 10, on_step=lambda step, state, head, sym: heads.append(head))
    assert heads == [0, 0]  # the L move at cell 0 stayed in place
    assert result.steps == 2
    assert result.output == 2  # wrote "1" at the origin


def test_fuel_exhaustion_is_not_interruption():
    result = run(LOOPER, 3, 25)
    assert result.fuel_exhausted and not result.interrupted and not result.halted
    assert result.steps == 25 and result.output == 0


def test_run_rejects_zero_fuel():
    with pytest.raises(ValueError):
        run(NULL_MACHINE, 0, 0)


# --- clocked execution -------------------------------------------------------

def test_clock_requires_positive_parameters():
    with pytest.raises(ValueError):
        ClockSpec(0, 1)
    with pytest.raises(ValueError):
        ClockSpec(1, 0)


def test_clock_bound_arithmetic():
    assert step_limit(ClockSpec(1, 1), 0) == 1
    assert step_limit(ClockSpec(2, 3), 2) == 4  # |"1"| = 1
    assert step_limit(ClockSpec(2, 1), 3) == 5  # |"00"| = 2


def test_two_step_machine_interrupted_by_unit_bound():
    table = TransitionTable(2, {
        (0, BLANK): Transition(1, 1, MOVE_R),
        (1, BLANK): Transition(HALT, 1, MOVE_R),
    })
    result = run_clocked(table, ClockSpec(1, 1), 0)
    assert result.interrupted and result.steps == 1 and result.output == 0


def test_halting_at_exactly_the_bound_is_not_interruption():
    table = TransitionTable(1, {(0, BLANK): Transition(HALT, 1, MOVE_R)})
    result = run_clocked(table, ClockSpec(1, 1), 0)  # bound 1, needs exactly 1
    assert result.halted and result.steps == 1 and result.output == 2


def test_null_machine_never_interrupted():
    for x in range(20):
        assert not run_clocked(NULL_MACHINE, ClockSpec(1, 1), x).interrupted


def test_looper_interrupted_at_exact_bound():
    result = run_clocked(LOOPER, ClockSpec(2, 3), 2)
    assert result.interrupted
    assert result.steps == 4  # 1^2 + 3
    assert result.output == 0


def test_clocked_agrees_with_free_run_when_it_halts():
    rng = random.Random(7)
    for _ in range(200):
        table = random_table(rng)
        clock = ClockSpec(rng.randint(1, 3), rng.randint(1, 20))
        x = rng.randint(0, 127)
        bound = step_limit(clock, x)
        clocked = run_clocked(table, clock, x)
        assert clocked.steps <= bound
        free = run(table, x, bound)
        if free.halted:
            assert clocked.halted
            assert (clocked.output, clocked.steps) == (free.output, free.steps)
        else:
            assert clocked.interrupted and clocked.output == 0 and clocked.steps == bound


@given(st.integers(min_value=0, max_value=1000), st.integers(min_value=1, max_value=3))
def test_runs_are_deterministic(x, a):
    clock = ClockSpec(a, 5)
    assert run_clocked(ERASER, clock, x) == run_clocked(ERASER, clock, x)
    assert run(LOOPER, x, 50) == run(LOOPER, x, 50)


@pytest.mark.parametrize("clock", [
    ClockSpec(98157718497, 1),  # the clock of index 10**44 - 1: |x|^a has ~10^11 bits
    # length 2 gives 2^63 + 1 < 2^64, a bound that is built; lengths 3 and 7
    # give 3^63 and 7^63 >= 2^64, so no limit is passed
    ClockSpec(63, 1),
    ClockSpec(1, 2 ** 100),
], ids=["a-huge", "a-63", "b-huge"])
def test_bounds_past_2_64_are_never_built(clock):
    # every run that ends is unchanged; building the first bound would take
    # about 12 GB
    assert run_clocked(NULL_MACHINE, clock, 3) == RunResult(3, 0)
    for x in (0, 1, 5, 7, 14, 200):
        assert run_clocked(SCANNER, clock, x) == run(SCANNER, x, 1000)
        assert run_clocked(ERASER, clock, x) == run_clocked(ERASER, ClockSpec(1, 1000), x)


def test_step_limit_equals_the_dyadic_string_rules():
    # the literal rules: |x| is the length of the dyadic string of x, no
    # limit for a >= 64 on |x| >= 2 or for a bound of 2^64 or more; an
    # offset of 2^64 - 2 puts the last rule at |x| = 1 and |x| = 2
    clocks = [ClockSpec(a, b) for a in range(1, 71) for b in (1, 2 ** 64 - 2)]
    for x in range(4096):
        length = len(codec.to_dyadic(x))
        for clock in clocks:
            bound = length ** clock.a + clock.b
            unlimited = (clock.a >= 64 and length >= 2) or bound >= 2 ** 64
            assert step_limit(clock, x) == (None if unlimited else bound)


# --- the step-table simulator against the literal one ------------------------

def traced(fn, *args):
    """fn(*args, on_step) and the list of its on_step calls."""
    trace = []
    result = fn(*args, lambda *call: trace.append(call))
    return result, trace


def assert_engines_agree(table, x, fuel, clock):
    halted, steps, tape = machine._simulate(table, x, fuel)
    assert (halted, steps, list(tape)) == reference_simulate(table, x, fuel)
    assert traced(run, table, x, fuel) == traced(reference_run, table, x, fuel)
    assert (traced(run_clocked, table, clock, x)
            == traced(reference_run_clocked, table, clock, x))


# moves left at cell 0 (and stays there) on a first 0 or on empty input,
# then walks right writing 1s, past the input's end to one cell beyond it,
# where an explicit HALT transition writes the last 1
WALK_OUT = TransitionTable(3, {
    (0, 0): Transition(1, 1, MOVE_L),
    (0, 1): Transition(1, 1, MOVE_R),
    (0, BLANK): Transition(1, 1, MOVE_L),
    (1, 0): Transition(1, 1, MOVE_R),
    (1, 1): Transition(1, 1, MOVE_R),
    (1, BLANK): Transition(2, 1, MOVE_R),
    (2, BLANK): Transition(HALT, 1, MOVE_L),
})


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 4095), st.integers(1, 300),
       st.integers(1, 3), st.integers(1, 30))
def test_simulator_equals_literal_engine_on_random_tables(seed, x, fuel, a, b):
    table = random_table(random.Random(seed))
    assert_engines_agree(table, x, fuel, ClockSpec(a, b))


@pytest.mark.parametrize("table", [NULL_MACHINE, ERASER, LOOPER, SCANNER, WALK_OUT],
                         ids=["null", "eraser", "looper", "scanner", "walk-out"])
def test_simulator_equals_literal_engine_on_handmade_tables(table):
    for x in range(70):
        for fuel in (1, 2, 5, 40):
            assert_engines_agree(table, x, fuel, ClockSpec(1 + x % 3, fuel))


def test_walk_out_moves_left_at_cell_0_and_writes_past_the_input():
    result, trace = traced(run, WALK_OUT, 1, 100)  # input "0"
    assert [head for _, _, head, _ in trace] == [0, 0, 1, 2]
    assert result == RunResult(output=codec.from_dyadic("111"), steps=4)
    assert len(machine._simulate(WALK_OUT, 1, 100)[2]) == 3


def test_a_limit_at_the_halting_step_is_a_halt():
    rng = random.Random(11)
    checked = 0
    for _ in range(400):
        table, x = random_table(rng), rng.randint(0, 255)
        free = reference_run(table, x, 500)
        if not free.halted or free.steps == 0:
            continue
        checked += 1
        s, length = free.steps, len(codec.to_dyadic(x))
        clock = ClockSpec(1, max(1, s - length))  # bound |x| + s - |x| = s when s > |x|
        assert_engines_agree(table, x, s, clock)
        assert run(table, x, s) == free
        if s > length:
            assert run_clocked(table, clock, x) == free
        if s > 1:
            assert run(table, x, s - 1).fuel_exhausted
    assert checked > 100


def test_no_step_limit_equals_literal_engine_on_halting_tables():
    rng = random.Random(12)
    unlimited = ClockSpec(64, 1)
    checked = 0
    for _ in range(300):
        table, x = random_table(rng), rng.randint(3, 255)  # |x| >= 2
        if not reference_run(table, x, 500).halted:
            continue
        checked += 1
        assert step_limit(unlimited, x) is None
        assert (traced(run_clocked, table, unlimited, x)
                == traced(reference_run_clocked, table, unlimited, x))
    assert checked > 100


def test_simulator_equals_literal_engine_on_a_decoded_cutoff_table():
    q = build_qt(400, k_max=400)
    table = decode_machine(q.m)
    for x in list(range(0, 600, 3)) + [2 ** 9 - 1, 2 ** 10 - 2, 2 ** 12]:
        assert_engines_agree(table, x, 400, ClockSpec(2, 30))


def test_the_step_table_has_rows_for_states_with_transitions_only():
    # a state number of 2^40 costs one row, not 2^40
    top = 2 ** 40
    table = TransitionTable(top + 1, {
        (0, BLANK): Transition(top, 1, MOVE_R),
        (top, BLANK): Transition(top - 1, 0, MOVE_L),
    })
    assert len(table.step_table) == 9  # states 0 and 2^40, and the halting row
    result, trace = traced(run, table, 0, 10)
    assert result == RunResult(output=codec.from_dyadic("10"), steps=2)
    assert trace == [(0, 0, 0, BLANK), (1, top, 1, BLANK)]


# --- numbering ---------------------------------------------------------------

def test_zero_decodes_to_null_machine():
    assert decode_machine(0) == NULL_MACHINE


@pytest.mark.parametrize("m", [-1, -3, -6])
def test_a_negative_number_is_no_machine(m):
    with pytest.raises(ValueError, match="natural"):
        decode_machine(m)


def test_null_machine_roundtrip():
    # every unparsable number decodes to NULL_MACHINE, so pin the number too
    assert encode_machine(NULL_MACHINE) == 0
    assert decode_machine(encode_machine(NULL_MACHINE)) == NULL_MACHINE


def test_decode_is_total_on_initial_segment():
    for m in range(100_000):
        table = decode_machine(m)
        assert table.state_count >= 1


def test_decode_encode_decode_is_stable():
    for m in range(3_000):
        table = decode_machine(m)
        assert decode_machine(encode_machine(table)) == table


def test_semantic_roundtrip_on_random_tables():
    rng = random.Random(42)
    for _ in range(50):
        table = random_table(rng)
        twin = decode_machine(encode_machine(table))
        for x in range(64):
            assert run(table, x, 400) == run(twin, x, 400)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(st.integers(0, 100_000), st.integers(0, 2 ** 32))
@example(100_000, 0)
def test_to_trits_equals_digit_loop_on_large_numbers(bits, seed):
    n = random.Random(seed).getrandbits(bits)
    assert machine._to_trits(n) == reference_to_trits(n)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(0, 4000), st.sampled_from((-1, 0, 1)))
def test_to_trits_equals_digit_loop_at_length_boundaries(length, offset):
    # (3^L - 1)/2 is the least number with an L-digit string
    n = (3 ** length - 1) // 2 + offset
    if n >= 0:
        assert machine._to_trits(n) == reference_to_trits(n)


def assert_trits_of_length(length: int, rng: random.Random) -> None:
    # the least number with `length` digits is all 0s, the largest all 2s
    low = (3 ** length - 1) // 2
    high = (3 ** (length + 1) - 1) // 2 - 1
    assert machine._to_trits(low) == "0" * length
    assert machine._to_trits(high) == "2" * length
    n = rng.randint(low, high)
    assert machine._to_trits(n) == reference_to_trits(n)


@pytest.mark.parametrize("j", range(14))
def test_to_trits_equals_digit_loop_at_leaf_count_boundaries(j):
    # 6 * 2^j digits fill 2^j leaves of 6; one more needs 2^(j+1) leaves
    rng = random.Random(j)
    for length in (6 * 2 ** j - 1, 6 * 2 ** j, 6 * 2 ** j + 1):
        assert_trits_of_length(length, rng)


def test_to_trits_equals_digit_loop_at_every_leaf_width():
    # 2^j leaves of w = ceil(L / 2^j) digits: L in (3 * 2^j, 4 * 2^j] gives
    # w = 4, then 5, then 6, each with and without padding digits
    rng = random.Random(5)
    widths = set()
    for j in range(1, 8):
        for length in range(3 * 2 ** j + 1, 6 * 2 ** j + 1, max(1, 2 ** j // 4)):
            widths.add(-(-length // 2 ** j))
            assert_trits_of_length(length, rng)
    assert widths == {4, 5, 6}


def test_to_trits_equals_digit_loop_on_small_numbers():
    # every machine the bgs scans meet is below 20 000; short strings end in
    # one leaf or split once
    for n in range(20_000):
        assert machine._to_trits(n) == reference_to_trits(n)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(st.integers(200, 1000), st.integers(0, 2 ** 32))
def test_decode_encode_roundtrips_large_tables(states, seed):
    # 600 to 3000 transitions; state fields of 200 and more take 7 or more
    # dyadic digits, wider than one 6-digit leaf of the conversion
    rng = random.Random(seed)
    table = TransitionTable(states, {
        (q, sym): Transition(rng.choice([HALT] + list(range(states))),
                             rng.choice((0, 1, BLANK)), rng.choice((MOVE_L, MOVE_R)))
        for q in range(states) for sym in (0, 1, BLANK)})
    assert decode_machine(encode_machine(table)) == table


def test_decode_keeps_one_result():
    # a repeat of a number gets the same table, and decoding another number
    # in between leaves the first equal to its machine
    m = encode_machine(SCANNER)
    assert decode_machine(m) is decode_machine(m)
    assert decode_machine(encode_machine(ERASER)) == ERASER
    assert decode_machine(m) == SCANNER


def test_a_small_number_keeps_its_table_while_others_are_decoded():
    m = encode_machine(SCANNER)
    assert m < 2 ** 64
    table = decode_machine(m)
    for other in range(3, 3000, 3):
        decode_machine(other)
    assert decode_machine(m) is table


def test_the_tables_of_small_numbers_are_bounded():
    table = weakref.ref(decode_machine(encode_machine(SCANNER)))
    for other in range(3, 3 * 5000, 3):  # more numbers than the memo keeps
        decode_machine(other)
    gc.collect()
    assert table() is None


def test_cache_clear_empties_both_memos():
    small = encode_machine(SCANNER)
    large = encode_machine(random_table(random.Random(7), 40))
    tables = decode_machine(small), decode_machine(large)
    decode_machine.cache_clear()
    assert decode_machine(small) is not tables[0]
    assert decode_machine(large) is not tables[1]


def test_a_second_large_number_releases_the_first_table():
    rng = random.Random(7)
    first, second = (encode_machine(random_table(rng, 40)) for _ in range(2))
    assert min(first, second) >= 2 ** 64 and first != second
    table = weakref.ref(decode_machine(first))
    assert decode_machine(second) is decode_machine(second)
    gc.collect()
    assert table() is None


def test_decode_equals_full_parse_on_initial_segment():
    for m in range(30_000):
        assert decode_machine(m) == reference_decode_machine(m), m


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.integers(0, 3000), st.integers(0, 2 ** 32), st.booleans())
def test_decode_equals_full_parse_on_large_numbers(bits, seed, table):
    # random numbers are mostly unparsable; encoded tables parse
    rng = random.Random(seed)
    m = encode_machine(random_table(rng, 40)) if table else rng.getrandbits(bits)
    assert decode_machine(m) == reference_decode_machine(m)


def test_unparsable_residues_decode_without_converting_digits(monkeypatch):
    # the last digit of the string of m > 0 is (m - 1) mod 3, and a
    # parsable string ends in the separator 2
    def no_conversion(n):
        raise AssertionError("digits converted")

    m = random.Random(6).getrandbits(10 ** 6) | 1 << (10 ** 6 - 1)
    m -= (m - 1) % 3  # m % 3 == 1
    monkeypatch.setattr(machine, "_to_trits", no_conversion)
    assert decode_machine(m) is NULL_MACHINE
    assert decode_machine(m + 1) is NULL_MACHINE
    assert decode_machine(0) is NULL_MACHINE


def test_every_handmade_table_has_a_preimage():
    for table in (ERASER, LOOPER, SCANNER):
        assert decode_machine(encode_machine(table)) == table


# --- text format -------------------------------------------------------------

def test_machine_file_roundtrip():
    text = format_machine_file(SCANNER)
    assert text.splitlines()[0] == "states 1"
    assert parse_machine_file(text) == SCANNER


def test_machine_file_halt_and_blank_spelling():
    text = "states 2\n0 _ -> 1 1 R\n1 _ -> HALT 0 L\n"
    table = parse_machine_file(text)
    assert table.transitions[(0, BLANK)] == Transition(1, 1, MOVE_R)
    assert table.transitions[(1, BLANK)] == Transition(HALT, 0, MOVE_L)
    assert parse_machine_file(format_machine_file(table)) == table


@pytest.mark.parametrize("text", [
    "0 0 -> 1 1 R",                      # missing header
    "states x",                          # bad count
    "states 1\n0 2 -> 0 0 R",            # bad symbol
    "states 1\n0 0 -> 0 0 X",            # bad move
    "states 1\n0 0 -> 0 0",              # short line
    "states 1\n0 0 -> 0 0 R\n0 0 -> 0 1 L",  # duplicate key
    "states 1\n1 0 -> 0 0 R",            # state out of range
    "states 1\n0 _ -> -1 1 R",           # HALT's sentinel as a state
    "states 1\n+0 0 -> 0 0 R",           # a sign
    "states 1\n0 0 -> +0 0 R",
    "states 1\n0_0 0 -> 0 0 R",          # an underscore
    "states 1\n0 0 -> 0_0 0 R",
    "states 1\n\u0660 0 -> 0 0 R",       # a digit of another script
    "states +1\n0 0 -> 0 0 R",           # the same in the header
    "states 1_0\n0 0 -> 0 0 R",
    "statesman 1\n0 _ -> HALT 1 R",     # a longer keyword
    "states 1 junk\n0 _ -> HALT 1 R",   # a third token
])
def test_machine_file_rejects_malformed(text):
    with pytest.raises(MachineFormatError):
        parse_machine_file(text)


def test_table_validation():
    with pytest.raises(ValueError):
        TransitionTable(0, {})
    with pytest.raises(ValueError):
        TransitionTable(1, {(0, 5): Transition(HALT, 0, MOVE_R)})
    with pytest.raises(ValueError):
        TransitionTable(1, {(0, 0): Transition(3, 0, MOVE_R)})
