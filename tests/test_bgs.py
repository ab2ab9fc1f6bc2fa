"""Index semantics, guess predicates, mu-search, and the result cache."""

import functools
import itertools
import json
import random
import sys
import tempfile
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bgslab import bgs, codec, machine, quasitrivial as qt, sat
from bgslab.codec import pair, triple_encode, unpair
from bgslab.machine import (BLANK, HALT, MOVE_R, NULL_MACHINE, ClockSpec, Transition,
                            TransitionTable, decode_machine, encode_machine, step_limit)

from helpers import (ERASER, LOOPER, WRITE_11_THEN_ERASE, WRITE_ONE_AT_ORIGIN, g_star,
                     not_g, random_table, reference_cache_bytes, reference_counterexample,
                     reference_load, reference_triple_decode)


def index_for(table, a=1, b=2) -> bgs.BgsIndex:
    return bgs.BgsIndex.from_natural(triple_encode(encode_machine(table), a, b))


# --- oracle ------------------------------------------------------------------

def least_failing_pair_for_constant_zero(x_floor=1, x_cap=400, y_cap=400):
    """Independent double loop: minimize pair(x, y) over satisfiable (x, y)
    with x >= x_floor, using the brute evaluator only."""
    best = None
    for x in range(x_floor, x_cap):
        formula = codec.decode_cnf(x)
        if formula is None or formula.var_count > 8:
            continue
        for values in itertools.product((False, True), repeat=formula.var_count):
            if not all(any(values[abs(l) - 1] == (l > 0) for l in clause)
                       for clause in formula.clauses):
                continue
            y = codec.from_dyadic("".join("1" if v else "0" for v in values))
            if y < y_cap:
                z = pair(x, y)
                if best is None or z < best:
                    best = z
            break  # tuples enumerate in ascending y order; first hit is least
    return best


def test_oracle_value_is_frozen():
    assert least_failing_pair_for_constant_zero() == 93
    # and its decomposition is the least satisfiable formula with its witness
    assert unpair(93) == (11, 2)


# --- indices -----------------------------------------------------------------

def test_index_decodes_through_triple():
    ix = bgs.BgsIndex.from_natural(699)
    assert (ix.m, ix.a, ix.b) == (3, 2, 5)


def test_zero_clock_fields_are_lifted_to_one():
    n = triple_encode(7, 0, 0)
    ix = bgs.BgsIndex.from_natural(n)
    assert (ix.a, ix.b) == (1, 1)
    assert ix.clock == ClockSpec(1, 1)


def lifted_triple(n: int) -> tuple[int, int, int, int]:
    """The literal index of n: its triple with zero clock fields lifted to 1."""
    m, a, b = reference_triple_decode(n)
    return n, m, max(a, 1), max(b, 1)


def index_fields(ix: bgs.BgsIndex) -> tuple[int, int, int, int]:
    return ix.n, ix.m, ix.a, ix.b


def test_from_natural_equals_the_lifted_triple_on_an_initial_segment():
    for n in range(10 ** 5):
        assert index_fields(bgs.BgsIndex.from_natural(n)) == lifted_triple(n), n


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.integers(0, 4000), st.integers(0, 2 ** 32), st.integers(0, 2), st.integers(0, 2))
def test_from_natural_equals_the_lifted_triple_on_large_numbers(bits, seed, a, b):
    # a random n rarely decodes a zero clock field, so encode some that do
    rng = random.Random(seed)
    for n in (rng.getrandbits(bits), triple_encode(rng.getrandbits(bits // 2), a, b)):
        assert index_fields(bgs.BgsIndex.from_natural(n)) == lifted_triple(n)


@pytest.mark.parametrize("a, b", [(0, 1), (1, 0), (0, 0), (-1, 2)])
def test_a_hand_built_index_needs_a_positive_clock(a, b):
    with pytest.raises(ValueError):
        bgs.BgsIndex(n=triple_encode(3, max(a, 0), b), m=3, a=a, b=b)


@pytest.mark.parametrize("build", [
    lambda: bgs.BgsIndex(n=-5, m=3, a=1, b=1),
    lambda: bgs.BgsIndex(n=17, m=-3, a=1, b=1),
    lambda: bgs.BgsIndex._make((-5, 3, 1, 1)),
    lambda: bgs.BgsIndex.from_natural(17)._replace(n=-5),
    lambda: bgs.BgsIndex.from_natural(17)._replace(m=-6),
], ids=["n", "m", "_make", "_replace-n", "_replace-m"])
def test_a_hand_built_index_needs_natural_fields(build):
    with pytest.raises(ValueError):
        build()


def test_a_rejected_index_leaves_the_cache_file_loadable(tmp_path):
    path = tmp_path / "cache.json"
    cache = bgs.ResultCache()
    bgs.counterexample(bgs.BgsIndex.from_natural(17), 200, cache)
    with pytest.raises(ValueError):
        bgs.counterexample(bgs.BgsIndex(n=-5, m=3, a=1, b=1), 200, cache)
    cache.save(path)
    assert bgs.ResultCache.load(path).lookup(17, 200).z == 93


def test_an_index_repr_names_its_fields():
    assert repr(bgs.BgsIndex.from_natural(699)) == "BgsIndex(n=699, m=3, a=2, b=5)"


@pytest.mark.parametrize("field", ["n", "m", "a", "b"])
def test_an_index_field_cannot_be_assigned(field):
    ix = bgs.BgsIndex.from_natural(699)
    with pytest.raises(AttributeError):
        setattr(ix, field, 7)
    with pytest.raises(AttributeError):
        ix.extra = 7  # no instance dict either
    assert ix == bgs.BgsIndex.from_natural(699)


def test_an_index_is_built_by_keyword_and_equal_and_hashed_by_its_fields():
    by_keyword = bgs.BgsIndex(n=699, m=3, a=2, b=5)
    decoded = bgs.BgsIndex.from_natural(699)
    assert by_keyword == decoded and hash(by_keyword) == hash(decoded)
    assert by_keyword is not decoded
    assert len({by_keyword, decoded, bgs.BgsIndex(3, 3, 2, 5)}) == 2
    assert by_keyword != bgs.BgsIndex(n=699, m=3, a=2, b=6)


def test_an_index_equals_and_unpacks_as_its_plain_tuple():
    ix = bgs.BgsIndex.from_natural(699)
    assert ix == (699, 3, 2, 5) and hash(ix) == hash((699, 3, 2, 5))
    n, m, a, b = ix
    assert (n, m, a, b) == (ix.n, ix.m, ix.a, ix.b)


def test_replacing_a_field_keeps_the_positive_clock_check():
    ix = bgs.BgsIndex.from_natural(699)
    assert ix._replace(b=9) == (699, 3, 2, 9)
    with pytest.raises(ValueError):
        ix._replace(a=0)


# --- runs and predicates -----------------------------------------------------

def test_eraser_index_outputs_zero():
    ix = index_for(ERASER)
    for x in range(30):
        assert bgs.bgs_run(ix, x).output == 0


def test_run_steps_respect_clock_bound():
    for n in range(120):
        ix = bgs.BgsIndex.from_natural(n)
        for x in (0, 3, 17, 90):
            result = bgs.bgs_run(ix, x)
            assert result.steps <= machine.step_limit(ix.clock, x)


def test_looper_interrupted_at_quadratic_bound():
    ix = index_for(LOOPER, a=2, b=1)
    result = bgs.bgs_run(ix, 3)  # |"00"| = 2, bound 2^2 + 1 = 5
    assert result.interrupted and result.steps == 5 and result.output == 0


def test_huge_clock_index_is_searched_without_building_its_bound():
    # index 10**44 - 1 has a = 98157718497: |x|^a would be a ~12 GB integer.
    # Its machine halts in 0 steps, so a small clock gives the same answer.
    ix = bgs.BgsIndex.from_natural(10 ** 44 - 1)
    assert ix.a == 98157718497 and decode_machine(ix.m) == NULL_MACHINE
    small = bgs.BgsIndex(n=ix.n, m=ix.m, a=1, b=1)
    assert bgs.counterexample(ix, 1000) == reference_counterexample(small, 1000)


def test_g_star_on_empty_formula():
    assert g_star(index_for(ERASER), 0)  # output 0 satisfies x = 0


def test_g_star_fails_on_satisfiable_inputs_for_constant_zero():
    ix = index_for(ERASER)
    assert not g_star(ix, 11)
    assert not g_star(ix, 32708)


def test_g_star_holds_for_a_hardcoded_witness_writer():
    # writes the satisfying bits "11" of the fixed two-clause formula
    ix = index_for(WRITE_11_THEN_ERASE, a=1, b=5)
    assert g_star(ix, 32708)
    assert not_g(ix, pair(32708, 6)) is False


def test_not_g_requires_the_pair_to_verify():
    ix = index_for(ERASER)
    assert not not_g(ix, pair(11, 1))  # "0" does not satisfy [[+1]]
    assert not_g(ix, pair(11, 2))


# --- counterexample search ---------------------------------------------------

def test_constant_zero_counterexample_matches_oracle():
    result = bgs.counterexample(index_for(ERASER), 200)
    assert result.found
    assert result.z == least_failing_pair_for_constant_zero() == 93
    assert result.scanned == 94 and result.budget == 200


def test_found_witness_is_minimal():
    ix = index_for(ERASER)
    result = bgs.counterexample(ix, 200)
    for z in range(result.z):
        assert not not_g(ix, z)


def test_budget_one_examines_only_zero():
    # a machine correct on x = 0 exhausts; one wrong at x = 0 is caught
    assert not bgs.counterexample(index_for(ERASER), 1).found
    result = bgs.counterexample(index_for(WRITE_ONE_AT_ORIGIN), 1)
    assert result.found and result.z == 0 and result.scanned == 1


def test_counterexample_rejects_zero_budget():
    with pytest.raises(ValueError):
        bgs.counterexample(index_for(ERASER), 0)


def test_counterexample_is_deterministic():
    ix = index_for(ERASER)
    assert bgs.counterexample(ix, 150) == bgs.counterexample(ix, 150)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(-2, 2))
def test_a_known_least_counterexample_equals_the_literal_result(z, d):
    # the budget is within 2 of z, on both sides of z < budget
    budget = max(1, z + d)
    if z < budget:
        literal = bgs.CounterexampleResult(bgs.CounterexampleStatus.FOUND, z, z + 1, budget)
    else:
        literal = bgs.CounterexampleResult(bgs.CounterexampleStatus.EXHAUSTED, None,
                                           budget, budget)
    got = bgs._least_is(z, budget)
    assert got == literal
    assert bgs._least_is(z, budget) is got  # one shared value per (z, budget)


def test_scan_empty_range_is_empty():
    assert [bgs.counterexample(ix, 100) for ix in []] == []


def test_scan_reports_per_index():
    indices = [index_for(ERASER, a=1, b=b) for b in (1, 2, 3)]
    rows = [bgs.counterexample(ix, 120) for ix in indices]
    assert [r.z for r in rows] == [93, 93, 93]
    assert all(r.found for r in rows)


def test_null_machine_indices_found_at_the_constant_zero_witness():
    # every index below 20 decodes to the transitionless machine; its echoed
    # output never has the exact assignment width at the least failing pair
    indices = [bgs.BgsIndex.from_natural(n) for n in range(10, 20)]
    rows = [bgs.counterexample(ix, 120) for ix in indices]
    assert [r.z for r in rows] == [93] * 10


def least_failure_double_loop(index, x_cap=150, budget=300):
    """Independent oracle: loop over formulas x and least witnesses y found
    by tuple enumeration, keep pairs failing the machine, minimize pair."""
    best = None
    for x in range(x_cap):
        formula = codec.decode_cnf(x)
        if formula is None:
            continue
        w = formula.var_count
        out = bgs.bgs_run(index, x).output
        out_bits = codec.to_dyadic(out)
        if x == 0:
            machine_ok = out == 0
        else:
            machine_ok = len(out_bits) == w and all(
                any(out_bits[abs(l) - 1] == ("1" if l > 0 else "0") for l in clause)
                for clause in formula.clauses)
        if machine_ok:
            continue
        for values in itertools.product((False, True), repeat=w):
            if all(any(values[abs(l) - 1] == (l > 0) for l in clause)
                   for clause in formula.clauses):
                y = codec.from_dyadic("".join("1" if v else "0" for v in values))
                z = pair(x, y)
                if best is None or z < best:
                    best = z
                break
    return best if best is not None and best < budget else None


def test_five_machines_agree_with_double_loop_oracle():
    machines = {
        "eraser": index_for(ERASER),
        "null": bgs.BgsIndex.from_natural(17),
        "write-one": index_for(WRITE_ONE_AT_ORIGIN),
        "write-11": index_for(WRITE_11_THEN_ERASE, a=1, b=5),
        "looper": index_for(LOOPER, a=2, b=1),
    }
    for name, ix in machines.items():
        expected = least_failure_double_loop(ix)
        result = bgs.counterexample(ix, 300)
        found_z = result.z if result.found else None
        assert found_z == expected, name


# --- the table walk against the literal search --------------------------------

@functools.lru_cache(maxsize=None)
def embedded(k: int) -> bgs.BgsIndex:
    """The cutoff-k machine at its index; its answer lies beyond k (k = 32: 2560)."""
    return bgs.BgsIndex.from_natural(qt.embed(qt.build_qt(k, k_max=40)).n)


def random_index(seed: int, a: int, b: int) -> bgs.BgsIndex:
    return index_for(random_table(random.Random(seed)), a, b)


random_indices = st.builds(random_index, st.integers(0, 2 ** 32 - 1),
                           st.integers(1, 3), st.integers(1, 40))
budgets = st.one_of(st.sampled_from([1, 93, 94, 466, 467, 2560, 2561]),
                    st.integers(1, 4000))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(random_indices, budgets)
def test_counterexample_equals_literal_search_on_random_tables(ix, budget):
    assert bgs.counterexample(ix, budget) == reference_counterexample(ix, budget)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 40), budgets)
def test_counterexample_equals_literal_search_on_cutoff_machines(k, budget):
    ix = embedded(k)
    assert bgs.counterexample(ix, budget) == reference_counterexample(ix, budget)


def test_witness_table_lists_every_satisfiable_code_in_z_order():
    # x = 704 comes before x = 715 in code order but after it in z order
    limit = 260_000
    expected = []
    for x in range(isqrt(2 * limit) + 1):  # pair(x, 0) = x(x + 1)/2 < limit
        decided = sat.decider(x)
        if decided.satisfiable and pair(x, decided.witness) < limit:
            expected.append((pair(x, decided.witness), x))
    assert list(bgs._WitnessTable().walk(0, limit)) == sorted(expected)


def test_search_decides_only_formulas_below_its_answer(monkeypatch):
    decided = []
    decider = sat.decider

    def counting(x):
        decided.append(x)
        return decider(x)

    monkeypatch.setattr(sat, "decider", counting)
    monkeypatch.setattr(bgs, "_TABLE", bgs._WitnessTable())
    ix = bgs.BgsIndex.from_natural(17)
    fresh_memos(ix.table())  # an answer holds for any witness table, so it would skip the walk
    result = bgs.counterexample(ix, 10 ** 12)
    assert result.found and result.z == 93
    # the valid codes whose entries could lie below 93, and nothing beyond
    assert decided == [0, 1, 3, 10, 11]
    # the table is shared: another index and budget decide nothing new
    decided.clear()
    assert bgs.counterexample(index_for(ERASER), 200).z == 93
    assert decided == []

    monkeypatch.setattr(bgs, "_TABLE", bgs._WitnessTable())
    fresh_memos(ix.table())
    assert not bgs.counterexample(ix, 1).found
    assert decided == [0]


# --- shared tables against the literal search ----------------------------------

DELAY = 6

# writes 1 at cell 0, erases the rest of the input, then walks DELAY blank
# cells and halts: output 2 ("1", which satisfies x = 11) after |x| + DELAY
# steps for x > 0, so clock (1, b) interrupts it, with output 0, exactly
# when b < DELAY
LATE_ONE = TransitionTable(DELAY + 2, {
    (0, 0): Transition(1, 1, MOVE_R),
    (0, 1): Transition(1, 1, MOVE_R),
    (0, BLANK): Transition(1, 1, MOVE_R),
    (1, 0): Transition(1, BLANK, MOVE_R),
    (1, 1): Transition(1, BLANK, MOVE_R),
    **{(q, BLANK): Transition(q + 1, BLANK, MOVE_R) for q in range(1, DELAY)},
    (DELAY, BLANK): Transition(HALT, BLANK, MOVE_R),
})


def shared_table(choice: int | TransitionTable):
    """The number m and the one table object every index of m shares;
    an int draws a random table."""
    if isinstance(choice, int):
        choice = random_table(random.Random(choice))
    m = 1 if choice is NULL_MACHINE else encode_machine(choice)  # 1 % 3 != 0
    return m, decode_machine(m)


def search_both(m, table, a, b, budget):
    ix = bgs.BgsIndex(n=triple_encode(m, a, b), m=m, a=a, b=b)
    got = bgs.counterexample(ix, budget)
    assert ix.table() is table  # the memo was shared
    assert got == reference_counterexample(ix, budget)
    return got


clocks = st.tuples(st.integers(1, 3), st.integers(1, 2 * DELAY))


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.one_of(st.sampled_from([LATE_ONE, LOOPER, ERASER, NULL_MACHINE]),
                 st.integers(0, 2 ** 32 - 1)),
       st.lists(st.tuples(clocks, budgets), min_size=1, max_size=8))
def test_memoized_searches_equal_literal_search_over_clock_sequences(choice, searches):
    m, table = shared_table(choice)
    for (a, b), budget in searches:
        search_both(m, table, a, b, budget)


@pytest.mark.parametrize("clocks", [[(1, 1), (1, DELAY)], [(1, DELAY), (1, 1)],
                                    [(1, DELAY - 1), (1, DELAY)],  # halts at the new limit
                                    [(1, DELAY), (1, DELAY - 1)],
                                    [(1, 1), (1, 2), (2, 1), (1, 1)]])
def test_one_input_interrupted_under_one_clock_halts_under_another(clocks):
    # x = 11, the entry at z = 93: interrupted (output 0) it fails V, halted
    # (output "1") it does not
    m, table = shared_table(LATE_ONE)
    steps = len(codec.to_dyadic(11)) + DELAY
    interrupted = []
    for a, b in clocks:
        got = search_both(m, table, a, b, 94)
        interrupted.append(got.found)
        assert got.found == (step_limit(ClockSpec(a, b), 11) < steps)
    assert True in interrupted and False in interrupted


def test_null_machine_indices_share_their_runs(monkeypatch):
    calls = {"run": 0, "verify": 0}
    run_clocked, verify_pair = bgs.run_clocked, sat.verify_pair

    def counting_run(*args):
        calls["run"] += 1
        return run_clocked(*args)

    def counting_verify(*args):
        calls["verify"] += 1
        return verify_pair(*args)

    indices = (bgs.BgsIndex.from_natural(n) for n in itertools.count(10 ** 5))
    null = list(itertools.islice((ix for ix in indices if ix.table() is NULL_MACHINE), 2000))
    assert null[-1].n - null[0].n < 3000  # consecutive but for the parsable m
    NULL_MACHINE.answer = None
    monkeypatch.setattr(bgs, "run_clocked", counting_run)
    monkeypatch.setattr(sat, "verify_pair", counting_verify)
    assert all(bgs.counterexample(ix, 10 ** 5).z == 93 for ix in null)
    assert calls["run"] <= 2 and calls["verify"] <= 2


def test_a_second_pass_over_a_block_converts_no_digits_and_runs_no_machine(monkeypatch):
    # every m of the block is below 2^64, so its table stays decoded with
    # its memo, and the second pass is answered from it
    calls = {"trits": 0, "run": 0}
    to_trits, run_clocked = machine._to_trits, bgs.run_clocked

    def counting_trits(n):
        calls["trits"] += 1
        return to_trits(n)

    def counting_run(*args):
        calls["run"] += 1
        return run_clocked(*args)

    monkeypatch.setattr(machine, "_to_trits", counting_trits)
    monkeypatch.setattr(bgs, "run_clocked", counting_run)
    block = range(140_891, 142_891)  # about 530 distinct m
    decode_machine.cache_clear()
    first = [bgs.counterexample(bgs.BgsIndex.from_natural(n), 10 ** 5) for n in block]
    assert calls["trits"] > 0 and calls["run"] > 0
    calls.update(trits=0, run=0)
    second = [bgs.counterexample(bgs.BgsIndex.from_natural(n), 10 ** 5) for n in block]
    assert second == first
    assert calls == {"trits": 0, "run": 0}


small_goedel_numbers = st.one_of(
    st.integers(0, 2 ** 32 - 1).map(
        lambda seed: encode_machine(random_table(random.Random(seed), 2))),
    st.integers(0, 2 ** 64 - 1)).filter(lambda m: m < 2 ** 64)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(small_goedel_numbers, min_size=1, max_size=3),
       st.lists(st.tuples(clocks, budgets), min_size=1, max_size=3))
def test_memoized_searches_over_small_goedel_numbers_equal_literal_search(ms, searches):
    # the tables of these m stay decoded between the searches, so every
    # search after the first of an m starts from its table's memo
    for (a, b), budget in searches:
        for m in ms:
            ix = bgs.BgsIndex(triple_encode(m, a, b), m, a, b)
            assert bgs.counterexample(ix, budget) == reference_counterexample(ix, budget)


# --- the answer memo against the literal search --------------------------------

def fresh_memos(table: TransitionTable) -> None:
    object.__setattr__(table, "answer", None)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(st.one_of(st.sampled_from([LATE_ONE, ERASER, NULL_MACHINE]),
                 st.integers(0, 2 ** 32 - 1)),
       st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2 * DELAY), budgets,
                          st.integers(-3, 3), st.integers(-2, 2)), min_size=1, max_size=8))
def test_answered_searches_equal_literal_search_around_the_answer(choice, searches):
    # once the table holds an answer (z, S), b is drawn within 3 of S and
    # the budget within 2 of z + 1, the least budget that finds z
    m, table = shared_table(choice)
    for a, b, budget, db, dz in searches:
        answer = table.answer
        if answer is not None:
            z, steps = answer
            b, budget = max(1, steps + db), max(1, z + 1 + dz)
        search_both(m, table, a, b, budget)


# like LATE_ONE on x = 11 ("100"), halted after |x| + DELAY steps with
# output "1", which satisfies [[+1]]; but halts at once on x = 0, with
# output 0, which satisfies the empty formula, and after 2 steps on x = 29
# ("1110") with output "1", which fails [[-1]]: its answer is z = 466 with
# S = |11| + DELAY, and clock (1, 2) interrupts x = 11, whose entry 93 fails
QUICK_AFTER_11 = TransitionTable(DELAY + 2, {
    **{key: t for key, t in LATE_ONE.transitions.items() if key != (0, BLANK)},
    (1, 1): Transition(HALT, BLANK, MOVE_R),
})


def test_a_resumed_walk_records_no_answer():
    m, table = shared_table(QUICK_AFTER_11)
    fresh_memos(table)
    cache = bgs.ResultCache()
    large = bgs.BgsIndex(n=triple_encode(m, 1, 2 * DELAY), m=m, a=1, b=2 * DELAY)
    assert not bgs.counterexample(large, 94, cache).found  # x = 11 halts and passes
    # resumed at 94, the walk runs only x = 29, in 2 steps, so its S would
    # read 2 and wrongly answer the clock (1, 2)
    assert bgs.counterexample(large, 10 ** 5, cache).z == 466
    assert table.answer is None
    assert search_both(m, table, 1, 2, 10 ** 5).z == 93
    # a walk from z = 0 records the answer with the step count of x = 11
    assert search_both(m, table, 1, 2 * DELAY, 10 ** 5).z == 466
    assert table.answer == (466, len(codec.to_dyadic(11)) + DELAY)
    assert search_both(m, table, 1, 2, 10 ** 5).z == 93


def test_answered_indices_walk_and_run_nothing(monkeypatch):
    calls = {"walk": 0, "run": 0, "verify": 0}
    walk, run_clocked, verify_pair = bgs._WitnessTable.walk, bgs.run_clocked, sat.verify_pair

    def counting_walk(*args):
        calls["walk"] += 1
        return walk(*args)

    def counting_run(*args):
        calls["run"] += 1
        return run_clocked(*args)

    def counting_verify(*args):
        calls["verify"] += 1
        return verify_pair(*args)

    indices = (bgs.BgsIndex.from_natural(n) for n in itertools.count(10 ** 5))
    first, *null = itertools.islice((ix for ix in indices if ix.table() is NULL_MACHINE), 2001)
    fresh_memos(NULL_MACHINE)
    assert bgs.counterexample(first, 10 ** 5).z == 93
    assert NULL_MACHINE.answer == (93, 0)  # every run halts in 0 steps
    monkeypatch.setattr(bgs._WitnessTable, "walk", counting_walk)
    monkeypatch.setattr(bgs, "run_clocked", counting_run)
    monkeypatch.setattr(sat, "verify_pair", counting_verify)
    assert all(bgs.counterexample(ix, 10 ** 5).z == 93 for ix in null)
    assert bgs.counterexample(null[0], 93) == bgs.CounterexampleResult(
        bgs.CounterexampleStatus.EXHAUSTED, None, 93, 93)
    assert calls == {"walk": 0, "run": 0, "verify": 0}


def test_exhausted_and_stopped_searches_record_no_answer():
    m, table = shared_table(ERASER)
    fresh_memos(table)
    assert not search_both(m, table, 1, 1, 93).found  # both entries below 93 halted
    assert table.answer is None
    # LATE_ONE under (1, 1) is stopped on x = 0 and on x = 11, whose entry 93 fails
    m, table = shared_table(LATE_ONE)
    fresh_memos(table)
    for _ in range(2):  # a stopped run leaves nothing to answer from
        assert search_both(m, table, 1, 1, 10 ** 5).z == 93
        assert table.answer is None
    # a stopped entry below a halted failing one: x = 0 loops, x = 11 halts
    # in 0 steps with its own input as output, which fails [[+1]]
    m, table = shared_table(TransitionTable(1, {(0, BLANK): Transition(0, BLANK, MOVE_R)}))
    fresh_memos(table)
    assert search_both(m, table, 2, 3, 10 ** 5).z == 93
    assert table.answer is None


# --- cache -------------------------------------------------------------------

def test_cache_round_trip(tmp_path):
    path = tmp_path / "cache.json"
    cache = bgs.ResultCache()
    ix = index_for(ERASER)
    first = bgs.counterexample(ix, 200, cache)
    cache.save(path)
    reloaded = bgs.ResultCache.load(path)
    assert reloaded.lookup(ix.n, 200) == first


def test_cache_found_answers_any_larger_budget():
    cache = bgs.ResultCache()
    ix = index_for(ERASER)
    bgs.counterexample(ix, 100, cache)
    assert cache.lookup(ix.n, 5000) == bgs.CounterexampleResult(
        bgs.CounterexampleStatus.FOUND, 93, 94, 5000)


def test_cache_found_derives_exhaustion_below_witness():
    cache = bgs.ResultCache()
    ix = index_for(ERASER)
    bgs.counterexample(ix, 200, cache)
    hit = cache.lookup(ix.n, 50)
    fresh = bgs.counterexample(ix, 50)
    assert hit == fresh
    assert not hit.found and hit.scanned == 50


def test_cache_resume_equals_fresh_run():
    cache = bgs.ResultCache()
    ix = index_for(ERASER)
    assert not bgs.counterexample(ix, 40, cache).found  # exhausts, records 40
    assert cache.resume_from(ix.n) == 40
    resumed = bgs.counterexample(ix, 200, cache)
    assert resumed == bgs.counterexample(ix, 200)


def test_cache_version_mismatch_is_discarded(tmp_path, caplog):
    path = tmp_path / "cache.json"
    cache = bgs.ResultCache()
    ix = index_for(ERASER)
    bgs.counterexample(ix, 200, cache)
    cache.save(path)
    data = json.loads(path.read_text())
    data["codec_version"] = "something-else"
    path.write_text(json.dumps(data))
    reloaded = bgs.ResultCache.load(path)
    assert reloaded.lookup(ix.n, 200) is None


def test_corrupt_cache_is_ignored_with_warning(tmp_path, caplog):
    path = tmp_path / "cache.json"
    path.write_text("{ not json")
    cache = bgs.ResultCache.load(path)
    assert cache.lookup(0, 10) is None
    assert any("corrupt" in rec.message for rec in caplog.records)


def test_crash_mid_save_keeps_previous_cache(tmp_path, monkeypatch):
    path = tmp_path / "cache.json"
    cache = bgs.ResultCache()
    ix = index_for(ERASER)
    first = bgs.counterexample(ix, 200, cache)
    cache.save(path)

    class DiskFull:
        """A file that takes half of the first write, then fails."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError("disk full")

    def crash(file, mode="r", *args, **kw):
        fh = open(file, mode, *args, **kw)
        return DiskFull(fh) if "w" in mode else fh

    bgs.counterexample(index_for(ERASER, b=3), 200, cache)
    monkeypatch.setattr(bgs, "open", crash, raising=False)
    with pytest.raises(OSError):
        cache.save(path)
    assert bgs.ResultCache.load(path).lookup(ix.n, 200) == first
    assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]


def test_two_caches_sharing_a_file_keep_each_others_entries(tmp_path):
    path = tmp_path / "cache.json"
    bgs.ResultCache().save(path)
    first, second = bgs.ResultCache.load(path), bgs.ResultCache.load(path)
    one, two = index_for(ERASER), index_for(ERASER, b=3)
    found = bgs.counterexample(one, 200, first)
    exhausted = bgs.counterexample(two, 50, second)
    first.save(path)
    second.save(path)
    merged = bgs.ResultCache.load(path)
    assert merged.lookup(one.n, 200) == found
    assert merged.lookup(two.n, 50) == exhausted
    # the stronger entry wins: the larger exhausted bound, then found
    bgs.counterexample(two, 80, first)
    bgs.counterexample(two, 200, second)
    first.save(path)  # merges the file's bound 50 for two into its own 80
    assert bgs.ResultCache.load(path).lookup(two.n, 80) is not None
    second.save(path)  # merges that bound 80 into its found entry
    entries = json.loads(path.read_text())["entries"]
    assert entries == {str(one.n): {"status": "found", "z": 93},
                       str(two.n): {"status": "found", "z": 93}}


def cache_file(entries: dict) -> str:
    return json.dumps({"codec_version": codec.CODEC_VERSION,
                       "machine_encoding_version": bgs.MACHINE_ENCODING_VERSION,
                       "entries": entries})


@pytest.mark.parametrize("bad", [
    {"2": {"status": "found"}},
    {"2": {"status": "found", "z": -3}},
    {"2": {"status": "found", "z": 93.9}},
    {"2": {"status": "found", "z": True}},
    {"2": {"status": "found", "z": "93"}},
    {"2": {"status": "exhausted", "upto": 0}},
    {"2": {"status": "exhausted", "upto": False}},
    {"2": {"status": "exhausted"}},
    {"2": {"status": "maybe", "upto": 50}},
    {"2": {"z": 93}},
    {"2": [93]},
    {"010": {"status": "found", "z": 93}},
    {"-2": {"status": "found", "z": 93}},
    {"+2": {"status": "found", "z": 93}},
    {" 2": {"status": "found", "z": 93}},
    {"\u0662": {"status": "found", "z": 93}},  # an Arabic-Indic digit two
    {"": {"status": "found", "z": 93}},
], ids=["no z", "negative z", "float z", "bool z", "string z", "upto 0", "bool upto",
        "no upto", "other status", "no status", "entry not an object", "leading zero",
        "negative key", "plus key", "space key", "non-ascii digit key", "empty key"])
def test_a_malformed_entry_discards_the_whole_file(tmp_path, caplog, bad):
    path = tmp_path / "cache.json"
    path.write_text(cache_file({"1": {"status": "found", "z": 5}, **bad}))
    cache = bgs.ResultCache.load(path)
    assert cache.lookup(1, 100) is None and cache.resume_from(1) == 0
    assert any("corrupt" in rec.message for rec in caplog.records)
    cache.save(path)  # a file that was ignored is rewritten, without the news check
    assert json.loads(path.read_text())["entries"] == {}


@pytest.mark.parametrize("text", ["[]", cache_file([]), b"\xff{}".decode("latin-1")])
def test_a_malformed_file_is_ignored(tmp_path, text):
    path = tmp_path / "cache.json"
    path.write_text(text, encoding="latin-1")
    assert bgs.ResultCache.load(path).lookup(1, 100) is None


def test_a_save_without_news_neither_parses_nor_writes(tmp_path, monkeypatch):
    path = tmp_path / "cache.json"
    cache = bgs.ResultCache()
    bgs.counterexample(index_for(ERASER), 200, cache)
    cache.save(path)
    before = path.read_bytes(), path.stat()
    loaded = bgs.ResultCache.load(path)
    monkeypatch.setattr(bgs, "_parse", None)
    cache.save(path)
    bgs.counterexample(index_for(ERASER), 200, loaded)  # answered from the cache
    loaded.save(path)
    after = path.read_bytes(), path.stat()
    assert after[0] == before[0]
    assert (after[1].st_ino, after[1].st_mtime_ns) == (before[1].st_ino, before[1].st_mtime_ns)


def test_a_save_after_a_record_writes_without_parsing(tmp_path, monkeypatch):
    path = tmp_path / "cache.json"
    bgs.ResultCache().save(path)
    cache = bgs.ResultCache.load(path)
    ix = index_for(ERASER)
    found = bgs.counterexample(ix, 200, cache)
    monkeypatch.setattr(bgs, "_parse", None)  # the file is as loaded
    cache.save(path)
    monkeypatch.undo()
    assert bgs.ResultCache.load(path).lookup(ix.n, 200) == found


def test_a_save_without_news_keeps_another_writers_entries(tmp_path):
    path = tmp_path / "cache.json"
    bgs.ResultCache().save(path)
    idle, busy = bgs.ResultCache.load(path), bgs.ResultCache.load(path)
    ix = index_for(ERASER)
    found = bgs.counterexample(ix, 200, busy)
    busy.save(path)
    idle.save(path)  # no news of its own, but the file changed since its load
    assert bgs.ResultCache.load(path).lookup(ix.n, 200) == found
    assert idle.lookup(ix.n, 200) == found


@pytest.fixture
def default_digit_limit():
    """CPython's default limit on int-str conversions, which the package
    lifts on import, for the length of one test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int-str conversion limit")
    lifted = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(lifted)


def test_a_key_above_the_default_digit_limit_survives_load_and_save(
        tmp_path, caplog, default_digit_limit):
    big = "9" + "1" * 5388  # as long as the index of the cutoff-64 machine
    path = tmp_path / "cache.json"
    path.write_text(cache_file({big: {"status": "found", "z": 93},
                                "1": {"status": "exhausted", "upto": 40}}))
    cache = bgs.ResultCache.load(path)
    assert cache.lookup(1, 40) is not None
    ix = index_for(ERASER)
    found = bgs.counterexample(ix, 200, cache)
    cache.save(path)
    assert not any("corrupt" in rec.message for rec in caplog.records)
    text = path.read_text()
    assert f'\n    "{big}": {{\n      "status": "found",\n      "z": 93\n    }}' in text
    assert json.loads(text)["entries"] == {
        big: {"status": "found", "z": 93}, "1": {"status": "exhausted", "upto": 40},
        str(ix.n): {"status": "found", "z": found.z}}
    assert path.read_bytes() == reference_cache_bytes(cache)


naturals = st.one_of(st.integers(0, 200), st.integers(0, 10 ** 7),
                     st.integers(10 ** 2999, 10 ** 3001))


@st.composite
def caches(draw):
    cache = bgs.ResultCache()
    for n in draw(st.lists(naturals, max_size=40, unique=True)):
        if draw(st.booleans()):
            cache._merge(n, draw(naturals), 0)
        else:
            cache._merge(n, None, draw(naturals.map(lambda u: u + 1)))
    return cache


@settings(max_examples=150, derandomize=True, deadline=None)
@given(caches())
def test_written_bytes_equal_json_dump(cache):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.json"
        cache.save(path)
        assert path.read_bytes() == reference_cache_bytes(cache)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(caches(), st.sampled_from([None, 2]), st.randoms(use_true_random=False))
def test_loads_equal_the_entry_by_entry_merge(cache, indent, rng):
    entries = json.loads(reference_cache_bytes(cache))["entries"]
    items = list(entries.items())
    rng.shuffle(items)  # any entry order, any layout
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.json"
        path.write_text(json.dumps({"codec_version": codec.CODEC_VERSION,
                                    "machine_encoding_version": bgs.MACHINE_ENCODING_VERSION,
                                    "entries": dict(items)}, indent=indent))
        loaded, reference = bgs.ResultCache.load(path), reference_load(path)
    assert (loaded._found, loaded._exhausted) == (reference._found, reference._exhausted)
    assert (loaded._found, loaded._exhausted) == (cache._found, cache._exhausted)


def test_cold_and_warm_results_are_identical(tmp_path):
    path = tmp_path / "cache.json"
    ix = index_for(ERASER)
    cold = bgs.counterexample(ix, 200)
    cache = bgs.ResultCache()
    bgs.counterexample(ix, 200, cache)
    cache.save(path)
    warm = bgs.counterexample(ix, 200, bgs.ResultCache.load(path))
    assert cold == warm


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.one_of(random_indices, st.integers(0, 40).map(embedded)),
       st.lists(budgets, min_size=1, max_size=6),
       st.sampled_from(["up", "down", "drawn"]),
       st.integers(0, 5))
def test_warm_cache_equals_cold_over_budget_sequences(ix, budget_list, order, save_after):
    if order != "drawn":
        budget_list = sorted(budget_list, reverse=order == "down")
    cache = bgs.ResultCache()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.json"
        for i, budget in enumerate(budget_list):
            assert bgs.counterexample(ix, budget, cache) == bgs.counterexample(ix, budget)
            if i == save_after:
                cache.save(path)
                cache = bgs.ResultCache.load(path)
