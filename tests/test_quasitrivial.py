"""Cutoff-machine compiler, embedding, and the lemma's checkable content."""

import itertools
import random

import pytest

from bgslab import bgs, codec, machine, quasitrivial as qt, sat
from bgslab.codec import pair, triple_decode, unpair
from bgslab.machine import (BLANK, HALT, MOVE_L, MOVE_R, ClockSpec, Transition, TransitionTable,
                            decode_machine, encode_machine, run, run_clocked)

from helpers import (LOOPER, random_table, reference_build_qt, reference_measure_b,
                     reference_no_interrupt)

KS = range(11)


@pytest.fixture(scope="module")
def machines():
    return {k: qt.build_qt(k) for k in KS}


@pytest.fixture(scope="module")
def records(machines):
    return {k: qt.embed(machines[k]) for k in KS}


# --- compiler ----------------------------------------------------------------

def test_cutoff_spec_agrees_with_decider():
    table = qt.build_qt(12).table
    for x in range(13):
        assert run(table, x, 10_000).output == sat.decider(x).witness


def test_cutoff_zero_is_behaviorally_constant_zero(machines):
    table = machines[0].table
    for x in range(101):
        result = run(table, x, 10_000)
        assert result.halted and result.output == 0


def test_outputs_match_decider_below_cutoff(machines):
    for k in (5, 11):
        q = machines[k] if k in machines else qt.build_qt(k)
        for x in range(k + 1):
            assert run(q.table, x, 10_000).output == sat.decider(x).witness


def test_outputs_zero_above_cutoff(machines):
    for k in (0, 5, 10):
        table = machines[k].table
        for x in range(k + 1, k + 201):
            result = run(table, x, 10_000)
            assert result.halted and result.output == 0


def test_halts_on_window_with_recorded_steps(machines):
    table = machines[5].table
    for x in range(201):
        result = run(table, x, 10_000)
        assert result.halted and result.steps >= 0


def test_nontrivial_witness_is_written_back():
    # 11 is the least satisfiable formula code; its witness is 2 ("1")
    q = qt.build_qt(11)
    assert run(q.table, 11, 10_000).output == sat.decider(11).witness == 2


def test_reject_path_runs_in_input_length(machines):
    table = machines[3].table
    for x in range(4, 120):
        assert run(table, x, 10_000).steps == len(codec.to_dyadic(x))


def test_cutoff_too_large():
    with pytest.raises(qt.CutoffTooLargeError):
        qt.build_qt(33)
    qt.build_qt(33, k_max=64)  # explicit limit admits it


def test_build_qt_refuses_an_input_wider_than_the_brute_force_limit(monkeypatch):
    # no input below the command line's cutoffs is that wide (the first
    # code of more than 20 variables is x = 409 061), so lower the limit
    monkeypatch.setattr(sat, "BRUTE_WIDTH_LIMIT", 0)
    with pytest.raises(sat.WidthExceededError):
        qt.build_qt(11)


def test_goedel_number_roundtrips(machines):
    q = machines[4]
    assert decode_machine(q.m) == q.table
    assert encode_machine(q.table) == q.m


def test_distinct_cutoffs_give_distinct_machines():
    ms = [qt.build_qt(k).m for k in (1, 2, 3)]
    assert len(set(ms)) == 3


# --- clock offset and embedding ------------------------------------------------

def test_measure_b_is_positive_and_reproducible(machines):
    for k in (0, 3, 7):
        q = machines[k]
        b1, b2 = qt.measure_b(q), qt.measure_b(q)
        assert b1 == b2 >= 1


def test_measure_b_monotone_in_cutoff(machines):
    assert qt.measure_b(machines[5]) >= qt.measure_b(machines[3])


def test_embedding_decodes_back(records):
    for k, record in records.items():
        assert triple_decode(record.n) == (record.m, 2, record.b_m)


def test_embedding_clock_exponent_is_always_two(records):
    assert {triple_decode(r.n)[1] for r in records.values()} == {2}


def test_distinct_cutoffs_give_distinct_indices(records):
    assert len({r.n for r in records.values()}) == len(KS)


# --- no interruption -----------------------------------------------------------

def reference_window(record: qt.EmbeddingRecord) -> int:
    """W = 2^(|k| + 3) - 2: every x of length at most |k| + 2."""
    return (8 << len(codec.to_dyadic(record.k))) - 2


def certify(record: qt.EmbeddingRecord) -> qt.NoInterruptReport:
    """The certificate, checked against the windowed reference over W: it
    passes only where the reference passes, fails no later than the
    reference fails, and on the walked inputs x <= 2^(|k| + 1) - 2 fails
    exactly where the reference does."""
    report = qt.verify_no_interrupt(record)
    reference = reference_no_interrupt(record, reference_window(record))
    walked = (2 << len(codec.to_dyadic(record.k))) - 2
    assert reference.ok or not report.ok and report.failed_at <= reference.failed_at
    failures = [x for x in (report.failed_at, reference.failed_at) if x is not None]
    if failures and min(failures) <= walked:
        assert report == reference
    return report


def test_clock_never_interrupts_below_and_above_cutoff(records):
    for k in (0, 5, 10):
        assert certify(records[k]) == qt.NoInterruptReport(ok=True, failed_at=None)


def test_clocked_runs_agree_bit_for_bit(machines, records):
    q, record = machines[6], records[6]
    clock = ClockSpec(2, record.b_m)
    for x in range(100):
        free = run(q.table, x, 10_000)
        clocked = run_clocked(q.table, clock, x)
        assert (clocked.output, clocked.steps, clocked.interrupted) == \
            (free.output, free.steps, False)


def test_unit_offset_still_never_interrupts(records):
    # this compiler's runtimes stay below |x|^2 + 1 on every feasible input
    # (no satisfiable formula code has dyadic length < 3), so even the
    # degenerate offset cannot bite; the honest negative control follows
    crippled = qt.EmbeddingRecord(m=records[3].m, k=3, b_m=1,
                                  n=codec.triple_encode(records[3].m, 2, 1))
    assert certify(crippled).ok


def test_no_interrupt_detects_a_slow_machine():
    m = encode_machine(LOOPER)
    fake = qt.EmbeddingRecord(m=m, k=0, b_m=1, n=codec.triple_encode(m, 2, 1))
    report = certify(fake)
    assert not report.ok and report.failed_at == 0


def fake_record(table: TransitionTable, b_m: int, k: int = 0) -> qt.EmbeddingRecord:
    m = encode_machine(table)
    return qt.EmbeddingRecord(m=m, k=k, b_m=b_m, n=codec.triple_encode(m, 2, b_m))


def test_no_interrupt_equals_the_two_run_form_on_compiled_records():
    for k in range(65):
        record = qt.embed(qt.build_qt(k, k_max=64))
        assert (qt.verify_no_interrupt(record)
                == reference_no_interrupt(record, reference_window(record))
                == qt.NoInterruptReport(ok=True, failed_at=None)), k


def test_no_interrupt_equals_the_two_run_form_on_fakes(records):
    crippled = qt.EmbeddingRecord(m=records[3].m, k=3, b_m=1,
                                  n=codec.triple_encode(records[3].m, 2, 1))
    looper = fake_record(LOOPER, 1)
    for record in (crippled, looper):
        assert (qt.verify_no_interrupt(record)
                == reference_no_interrupt(record, reference_window(record)))


def test_no_interrupt_equals_the_two_run_form_on_random_tables():
    rng = random.Random(3)
    verdicts = set()
    for b_m in range(1, 31):
        for _ in range(3):
            table = rng.choice((random_table, random_eraser_table))(rng)
            report = certify(fake_record(table, b_m, k=rng.randint(0, 40)))
            verdicts.add(report.ok)
    assert verdicts == {True, False}


def chain(length: int) -> TransitionTable:
    """Moves right `length` times whatever it reads, the last time into HALT."""
    return TransitionTable(length, {
        (q, sym): Transition(q + 1 if q + 1 < length else HALT, sym, MOVE_R)
        for q in range(length) for sym in (0, 1, BLANK)})


@pytest.mark.parametrize("form", [reference_no_interrupt], ids=["two-run"])
def test_a_run_past_the_measuring_fuel_fails(monkeypatch, form):
    monkeypatch.setattr(qt, "_MEASURE_FUEL", 12)
    # a clock of 1000 steps and more never interrupts a 13-step run
    assert form(fake_record(chain(12), 1000), 20) == qt.NoInterruptReport(True, None)
    assert form(fake_record(chain(13), 1000), 20) == qt.NoInterruptReport(False, 0)


def test_the_certificate_takes_no_fuel(monkeypatch):
    # x = 0 runs 13 steps on blanks, within its clock of 1001 steps, and
    # every longer x is read into the eraser 13
    monkeypatch.setattr(qt, "_MEASURE_FUEL", 12)
    table = TransitionTable(14, {
        **{(q, BLANK): Transition(q + 1 if q < 12 else HALT, BLANK, MOVE_R) for q in range(13)},
        **{(q, s): Transition(13, BLANK, MOVE_R) for q in (0, 13) for s in (0, 1)}})
    assert qt.verify_no_interrupt(fake_record(table, 1000)) == qt.NoInterruptReport(True, None)


def erase_into(q: int) -> Transition:
    return Transition(q, BLANK, MOVE_R)


@pytest.mark.parametrize("k,transitions,failed_at", [
    # "00" (3) is read into the eraser 2, "01" (4) into state 3, which halts
    # on blank by a transition
    (1, {(0, 0): erase_into(1), (0, 1): erase_into(2), (1, 0): erase_into(2),
         (1, 1): erase_into(3), (2, 0): erase_into(2), (2, 1): erase_into(2),
         (3, 0): erase_into(3), (3, 1): erase_into(3), (3, BLANK): Transition(HALT, BLANK, MOVE_L)},
     4),
    # "1" (2) is read by a transition that writes 1, so no string below it
    # is read by erasing moves, though state 0 erases "0" into the eraser
    (1, {(0, 0): erase_into(1), (0, 1): Transition(1, 1, MOVE_R),
         (1, 0): erase_into(1), (1, 1): erase_into(1)}, 5),
    # "0" (1) is read into state 1, which halts on blank but moves on 0 to
    # state 2, which loops on blank: "00" (3) is interrupted
    (0, {(0, 0): erase_into(1), (0, 1): erase_into(1), (1, 0): erase_into(2),
         (1, 1): erase_into(1), (2, BLANK): erase_into(2)}, 1),
], ids=["a-child-misses-the-eraser", "a-node-read-in-part", "a-non-looping-row"])
def test_the_least_string_without_the_eraser_shape_fails(k, transitions, failed_at):
    # every run on an x of length at most |k| halts within its clock
    table = TransitionTable(1 + max(q for q, _ in transitions), transitions)
    assert certify(fake_record(table, 1, k)) == qt.NoInterruptReport(False, failed_at)


# --- the trie walk against the per-input loops -------------------------------

WALK_KS = [*range(131), 200, 255, 256, 300, 400]


def outcome(f, *args):
    """f's result, or the type and text of the exception it raised."""
    try:
        return f(*args)
    except RuntimeError as e:
        return type(e), str(e)


def test_measure_b_equals_the_per_input_loop_on_compiled_tables():
    for k in WALK_KS:
        q = qt.build_qt(k, k_max=400)
        assert qt.measure_b(q) == reference_measure_b(q), k


def test_every_compiled_table_certifies():
    for k in WALK_KS:
        record = qt.embed(qt.build_qt(k, k_max=400))
        assert qt.verify_no_interrupt(record) == qt.NoInterruptReport(ok=True, failed_at=None), k
    for k in (127, 128, 400):  # the first cutoffs of |k| = 7 and 8, and the largest
        assert certify(qt.embed(qt.build_qt(k, k_max=400))).ok, k


def test_the_walk_resumes_no_run_with_unread_input_on_compiled_tables(monkeypatch):
    # every input string of a compiled table is read by transitions that
    # erase and move right, so each run resumes on a tape of blanks
    resume = machine._resume
    resumes = []

    def resumed(cells, tape, limit, on_step, row, head, steps):
        assert set(tape) <= {BLANK}, "a run resumed with unread input"
        assert on_step is None and head == steps == len(tape)
        resumes.append(head)
        return resume(cells, tape, limit, on_step, row, head, steps)
    monkeypatch.setattr(machine, "_resume", resumed)
    for k in (0, 1, 11, 64, 300):
        q = qt.build_qt(k, k_max=300)
        assert qt.measure_b(q) >= 1
        assert qt.verify_no_interrupt(qt.embed(q)).ok
    assert resumes


def mutations(table: TransitionTable):
    """Every table that differs from `table` in one field of one transition
    (its next state, its write or its move), or in one transition on blank
    where it had none, such as the eraser's."""
    states = (HALT, *range(table.state_count))
    for key, t in table.transitions.items():
        changed = [t._replace(next_state=q) for q in states]
        changed += [t._replace(write=w) for w in (0, 1, BLANK)]
        changed.append(t._replace(move=MOVE_L if t.move == MOVE_R else MOVE_R))
        for u in changed:
            if u != t:
                yield TransitionTable(table.state_count, {**table.transitions, key: u})
    for q in range(table.state_count):
        if (q, BLANK) not in table.transitions:
            for u in itertools.product(states, (0, 1, BLANK), (MOVE_L, MOVE_R)):
                yield TransitionTable(table.state_count,
                                      {**table.transitions, (q, BLANK): Transition(*u)})


@pytest.mark.parametrize("k", range(7))
def test_the_walk_equals_the_per_input_loops_on_every_mutation(k):
    q = qt.build_qt(k)
    b_m = qt.measure_b(q)
    verdicts = set()
    for table in mutations(q.table):
        mutant = q._replace(table=table, m=encode_machine(table))
        assert outcome(qt.measure_b, mutant) == outcome(reference_measure_b, mutant)
        for b in (b_m, 1):
            record = qt.EmbeddingRecord(m=mutant.m, k=k, b_m=b,
                                        n=codec.triple_encode(mutant.m, 2, b))
            verdicts.add(certify(record).ok)
    assert verdicts == {True, False}


def random_eraser_table(rng: random.Random, max_states: int = 5) -> TransitionTable:
    """A random table whose transitions on 0 and 1 all write blank and move
    right, the shape the walk follows; any transition may be missing, and
    those on blank are arbitrary."""
    states = rng.randint(1, max_states)
    transitions = {}
    for q in range(states):
        for sym in (0, 1, BLANK):
            if rng.random() < 0.75:
                nxt = rng.choice([HALT] + list(range(states)))
                if sym == BLANK:
                    transitions[(q, sym)] = Transition(
                        nxt, rng.choice((0, 1, BLANK)), rng.choice((MOVE_L, MOVE_R)))
                else:
                    transitions[(q, sym)] = Transition(nxt, BLANK, MOVE_R)
    return TransitionTable(states, transitions)


@pytest.mark.parametrize("fuel", [3, 12, 1000])
def test_the_walk_equals_the_per_input_loops_on_random_tables(monkeypatch, fuel):
    # short fuels stop runs inside the input string as well as after it
    monkeypatch.setattr(qt, "_MEASURE_FUEL", fuel)
    rng = random.Random(fuel)
    for _ in range(150):
        table = rng.choice((random_table, random_eraser_table))(rng)
        k = rng.randint(0, 40)
        q = qt.QuasiTrivialMachine(table=table, m=encode_machine(table), k=k)
        assert outcome(qt.measure_b, q) == outcome(reference_measure_b, q)


def test_build_qt_numbers_its_trie_by_arithmetic():
    for k in [*range(131), 255, 256, 400, 511]:
        q, ref = qt.build_qt(k, k_max=511), reference_build_qt(k)
        assert list(q.table.transitions.items()) == list(ref.table.transitions.items()), k
        assert (q.table.state_count, q.m) == (ref.table.state_count, ref.m), k


# --- crucial step ---------------------------------------------------------------

def test_oracle_prediction_is_frozen():
    for k in KS:
        assert qt.predicted_least_counterexample(k) == 93


def least_counterexample_reference(k: int) -> int:
    """The embedded cutoff machine's least counterexample by definition: it
    outputs 0 beyond the cutoff, so the least z whose formula lies beyond k
    and whose pair verifies."""
    z = 0
    while unpair(z)[0] <= k or sat.verifier(z) != 1:
        z += 1
    return z


def test_oracle_matches_literal_reference():
    for k in [*range(65), 100, 200, 1000]:
        assert qt.predicted_least_counterexample(k) == least_counterexample_reference(k), k


def test_oracle_prediction_exceeds_cutoff():
    for k in KS:
        z = qt.predicted_least_counterexample(k)
        x, _ = unpair(z)
        assert x >= k + 1  # the failing formula lies beyond the cutoff
        assert z >= x  # pairing monotonicity
        assert z >= k + 1  # hence the full inequality


def test_crucial_step_rows_pass(records):
    for k in KS:
        result, z_pred = qt.verify_crucial_step(records[k])
        assert result.found
        assert result.budget == z_pred + 1  # the default budget
        assert result.z == z_pred == 93
        assert result.z >= k + 1


@pytest.mark.parametrize("k", [*range(65), 127, 400])
def test_the_searched_index_is_the_decoded_embedding(k):
    # verify_crucial_step builds the index from the record's fields; it must
    # be the index that decoding n gives
    r = qt.embed(qt.build_qt(k, k_max=k))
    assert bgs.BgsIndex.from_natural(r.n) == bgs.BgsIndex(r.n, r.m, 2, r.b_m)


def test_crucial_step_budget_too_small(records):
    with pytest.raises(qt.BudgetTooSmallError):
        qt.verify_crucial_step(records[0], budget=50)


def test_crucial_step_explicit_budget(records):
    result, z_pred = qt.verify_crucial_step(records[2], budget=500)
    assert result.found and result.budget == 500
    assert result.z == z_pred == 93


# --- restriction identity --------------------------------------------------------

def test_restriction_table_empty():
    assert qt.lemma_check([]) == []


def test_restriction_table_rows_agree(records):
    rows = qt.lemma_check(range(7))
    assert len(rows) == 7
    for row in rows:
        assert row.passed
        assert row.restriction_equal and row.z == row.z_pred
        assert row.n == records[row.k].n


def test_restriction_z_matches_oracle_pointwise():
    rows = qt.lemma_check(range(5))
    predictions = [qt.predicted_least_counterexample(k) for k in range(5)]
    assert [row.z for row in rows] == predictions
    # strictness in k is not assumed: these cutoffs share one prediction
    assert len(set(predictions)) == 1


def test_star_side_equals_index_side(machines, records):
    star = qt.star_counterexample(machines[4], 200)
    direct = bgs.counterexample(bgs.BgsIndex.from_natural(records[4].n), 200)
    assert star == direct


def test_a_machine_side_run_out_of_fuel_is_no_answer(machines):
    # LOOPER outputs 0 if stopped, which fails V at x = 11; a stop must not
    # be read as that verdict
    assert qt.star_counterexample(machines[4]._replace(table=LOOPER), 200) is None


def test_the_machine_side_runs_the_compiled_table(monkeypatch):
    # the index-side search runs the decoded table; the machine side must
    # run the table build_qt returned, or the identity compares a search
    # with its own memo
    compiled, runs = [], []
    build_qt, simulate = qt.build_qt, machine._simulate
    monkeypatch.setattr(qt, "build_qt",
                        lambda *args, **kw: compiled.append(build_qt(*args, **kw)) or compiled[-1])
    monkeypatch.setattr(machine, "_simulate",
                        lambda table, *args: runs.append(table) or simulate(table, *args))
    for k in (0, 1, 2, 11, 64):
        runs.clear()
        (row,) = qt.lemma_check([k], k_max=64)
        assert row.passed
        assert any(table is compiled[-1].table for table in runs), k


def test_restriction_check_ignores_a_wrong_cached_answer(records):
    # a wrong FOUND entry answers the index side; the machine side must not
    # read it back, or the restriction identity could never fail
    record = records[5]
    cache = bgs.ResultCache()
    cache.record(record.n, bgs.CounterexampleResult(
        bgs.CounterexampleStatus.FOUND, 92, 93, 94))
    (row,) = qt.lemma_check([5], cache=cache)
    assert row.z == 92 and row.z_pred == 93
    assert not row.restriction_equal and not row.passed


def test_clock_offset_increase_preserves_found_value(machines, records):
    # a larger offset can only loosen a clock that never fired
    record = records[2]
    loose = bgs.BgsIndex.from_natural(codec.triple_encode(record.m, 2, record.b_m + 10))
    tight = bgs.BgsIndex.from_natural(record.n)
    assert bgs.counterexample(loose, 200).z == bgs.counterexample(tight, 200).z


def test_clocked_steps_stay_strictly_under_bound(machines, records):
    q, record = machines[8], records[8]
    clock = ClockSpec(2, record.b_m)
    for x in range(150):
        assert run_clocked(q.table, clock, x).steps < machine.step_limit(clock, x)


# --- largest supported cutoff ----------------------------------------------------

def test_cutoff_32_writes_both_witness_shapes_and_passes():
    # below 32 both a "1" witness (x = 11) and a "0" witness (x = 29) occur
    q = qt.build_qt(32)
    assert run(q.table, 11, 10_000).output == 2
    assert run(q.table, 29, 10_000).output == 1
    record = qt.embed(q)
    result, z_pred = qt.verify_crucial_step(record)
    assert result.found
    assert result.z == z_pred == 2560  # pair(67, 4): the least satisfiable code beyond 32
    assert pair(*codec.unpair(result.z)) == result.z and codec.unpair(result.z) == (67, 4)
    assert qt.verify_no_interrupt(record).ok
    # while it plays the decider's role the scan finds nothing: a budget
    # ending exactly at the predicted witness exhausts
    index = bgs.BgsIndex.from_natural(record.n)
    assert not bgs.counterexample(index, 2560).found
    assert bgs.counterexample(index, 2561).z == 2560


# --- composite check --------------------------------------------------------------

def test_lemma_check_all_green():
    rows = qt.lemma_check(range(4))
    assert all(row.passed and row.no_interrupt and row.restriction_equal
               for row in rows)
    assert [row.k for row in rows] == [0, 1, 2, 3]


# --- negative controls: each mutation makes exactly one check false ----------

def failing_checks(row: qt.LemmaCheckRow) -> list[str]:
    checks = {"z == z_pred": row.z == row.z_pred, "no_interrupt": row.no_interrupt,
              "restriction_equal": row.restriction_equal}
    return [name for name, ok in checks.items() if not ok]


def test_a_wrong_prediction_fails_only_the_crucial_step(monkeypatch):
    oracle = qt.predicted_least_counterexample
    monkeypatch.setattr(qt, "predicted_least_counterexample", lambda k: oracle(k) + 1)
    (row,) = qt.lemma_check([3])
    assert (row.z, row.z_pred) == (93, 94)
    assert failing_checks(row) == ["z == z_pred"] and not row.passed


def test_a_slow_embedded_machine_fails_only_the_no_interrupt_check(monkeypatch):
    # the embedded machine loops on x = 6, a depth-limit node beyond the
    # cutoff 5 that no search runs; b_m is measured on the compiled table
    build_qt = qt.build_qt

    def slow(k, k_max=qt.DEFAULT_K_MAX):
        q = build_qt(k, k_max)
        looping = TransitionTable(q.table.state_count, {
            **q.table.transitions, (6, BLANK): Transition(6, BLANK, MOVE_R)})
        return q._replace(m=encode_machine(looping))
    monkeypatch.setattr(qt, "build_qt", slow)
    (row,) = qt.lemma_check([5])
    assert failing_checks(row) == ["no_interrupt"] and not row.passed


@pytest.mark.parametrize("k", [127, 200])
def test_an_eraser_looping_on_blank_fails_only_the_no_interrupt_check(monkeypatch, k):
    # the eraser's first input is 2^(|k| + 1) - 1 = 255, beyond the cutoff
    # and beyond the old default window of 200; b_m is measured on the
    # compiled table, and no search runs an input that long
    build_qt = qt.build_qt
    eraser = (2 << len(codec.to_dyadic(k))) - 1

    def looping(k, k_max=qt.DEFAULT_K_MAX):
        q = build_qt(k, k_max)
        table = TransitionTable(q.table.state_count, {
            **q.table.transitions, (eraser, BLANK): Transition(eraser, BLANK, MOVE_R)})
        return q._replace(m=encode_machine(table))
    monkeypatch.setattr(qt, "build_qt", looping)
    (row,) = qt.lemma_check([k], k_max=k)
    assert failing_checks(row) == ["no_interrupt"] and not row.passed
    assert qt.verify_no_interrupt(qt.embed(qt.build_qt(k, k))).failed_at == eraser == 255


def test_a_compiled_table_unlike_its_goedel_number_fails_only_the_restriction(monkeypatch):
    # after m is computed, the tail for x = 11 writes witness 1 ("0"), which
    # fails [[+1]], instead of 2 ("1"); the index side decodes m and keeps 2
    build_qt = qt.build_qt
    changed = []

    def miswritten(k, k_max=qt.DEFAULT_K_MAX):
        q = build_qt(k, k_max)
        transitions = dict(q.table.transitions)
        for key, t in transitions.items():
            if t.next_state == HALT and t.write == 1:
                transitions[key] = t._replace(write=0)
                changed.append(key)
        return q._replace(table=TransitionTable(q.table.state_count, transitions))
    monkeypatch.setattr(qt, "build_qt", miswritten)
    (row,) = qt.lemma_check([11])
    assert len(changed) == 1
    assert row.z == row.z_pred > 93
    assert failing_checks(row) == ["restriction_equal"] and not row.passed


def test_lemma_check_decodes_the_machine_once(monkeypatch):
    # the no-interrupt check and the index-side search share one decode; the
    # machine-side search runs the compiled table, which is never decoded
    calls = []
    to_trits = machine._to_trits
    monkeypatch.setattr(machine, "_to_trits", lambda n: calls.append(n) or to_trits(n))
    decode_machine.cache_clear()
    (row,) = qt.lemma_check([40], k_max=40)
    assert row.passed
    assert calls == [row.m]


def test_lemma_check_far_above_the_cli_ceiling():
    (row,) = qt.lemma_check([703], k_max=703)
    assert row.passed and row.z == row.z_pred == 257405
