"""Cutoff machines: compile, clock, embed, and check the key inequality.

A cutoff machine with parameter k reproduces the truth-table decider's
least witness on every input x <= k and outputs 0 on every input beyond
the cutoff.  It is compiled as a prefix trie over the dyadic strings of
0..k that erases the tape while reading, so that

* on x <= k the full input is identified and the stored witness string is
  written back at the tape origin (2|x| + 1 steps when the witness is
  nonempty, |x| + 1 steps when it is 0), and
* on x > k the run erases and halts in exactly |x| steps, a bound that is
  linear by construction, not by measurement.

The trie is numbered by arithmetic: state x has read the dyadic string of
x, and its children are 2x + 1 and 2x + 2.

The clock offset b_m is measured from the compiled machine's own worst
runtime below the cutoff plus an analytic slack for the dispatch depth,
so the quadratic clock C_(2, b_m) can never interrupt it.  Both that
measurement and the no-interrupt certificate, which covers every input,
take their runtimes from one walk over the trie of input strings.  Every
input's run resumes where its erasing read stopped, in the simulator's
one step loop: from the state reached once the leading symbols read by
transitions that write blank and move right are gone, with the unread
rest on the tape, as one simulated run per input would.

Embedding the machine at index <m, 2, b_m> then forces the least
counterexample of the embedded pair to land beyond the cutoff;
`lemma_check` checks that against an independent oracle: one enumeration
of formula codes x > k and, per satisfiable candidate, one enumeration of
truth tuples.  The oracle stops at the first x with pair(x, 0) >= the
best candidate so far, since pair(x, y) >= pair(x, 0) = x(x + 1)/2.  Its
restriction identity compares that index-side search with the compiled
table's own value, each x run free on the table `build_qt` returned.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import bgs, machine, sat
from .codec import decode_cnf, pair, to_dyadic, triple_encode
from .machine import (
    BLANK,
    HALT,
    MOVE_L,
    MOVE_R,
    ClockSpec,
    Transition,
    TransitionTable,
    decode_machine,
    encode_machine,
)

DEFAULT_K_MAX = 32
_MEASURE_FUEL = 100_000


class CutoffTooLargeError(ValueError):
    pass


class BudgetTooSmallError(RuntimeError):
    pass


class QuasiTrivialMachine(NamedTuple):
    table: TransitionTable
    m: int  # Goedel number of the table
    k: int


class EmbeddingRecord(NamedTuple):
    m: int
    k: int
    b_m: int
    n: int  # the index <m, 2, b_m>


def build_qt(k: int, k_max: int = DEFAULT_K_MAX) -> QuasiTrivialMachine:
    """Compile the cutoff-k machine as a tape-erasing prefix trie.

    States 0 .. 2^(|k| + 1) - 2 are the trie's nodes, state x the one that
    has read the dyadic string of x; it moves to 2x + 1 on 0 and to 2x + 2
    on 1, and the nodes of depth |k| move to the eraser 2^(|k| + 1) - 1.
    The states of the witness tails follow, in the order of x."""
    if k < 0:
        raise ValueError("cutoff must be a natural number")
    if k > k_max:
        raise CutoffTooLargeError(f"cutoff {k} exceeds the limit {k_max}")
    depth = len(to_dyadic(k))  # every accepted string has length <= depth

    leaves = (1 << depth) - 1  # the first node of depth `depth`
    eraser = 2 * leaves + 1
    next_free = eraser + 1
    to_eraser = Transition(eraser, BLANK, MOVE_R)
    transitions: dict[tuple[int, int], Transition] = {
        (eraser, 0): to_eraser,
        (eraser, 1): to_eraser,
        # (eraser, BLANK) missing: halt with the whole input block erased
    }

    for x in range(eraser):
        if x < leaves:
            transitions[(x, 0)] = Transition(2 * x + 1, BLANK, MOVE_R)
            transitions[(x, 1)] = Transition(2 * x + 2, BLANK, MOVE_R)
        else:
            transitions[(x, 0)] = to_eraser
            transitions[(x, 1)] = to_eraser
        if x > k:
            continue  # unaccepted depth-limit node: blank already halts in place
        formula = decode_cnf(x)
        if formula is not None and formula.var_count > sat.BRUTE_WIDTH_LIMIT:
            raise sat.WidthExceededError(
                f"input {x} below cutoff has {formula.var_count} variables")
        witness_bits = to_dyadic(sat.decider(x).witness)
        if not witness_bits:
            # witness 0: explicit halt, so tables for distinct cutoffs differ
            # even when no stored witness distinguishes them
            transitions[(x, BLANK)] = Transition(HALT, BLANK, MOVE_L)
            continue
        # straight-line tail: walk from cell |x| to the witness's last
        # cell, then write it right to left; every cell on the way is blank
        ops: list[tuple[int, str]] = []
        position = (x + 1).bit_length() - 1  # |x|
        target = len(witness_bits) - 1
        ops.extend([(BLANK, MOVE_L)] * (position - target))
        ops.extend([(BLANK, MOVE_R)] * (target - position))
        for j in range(target, -1, -1):
            ops.append((int(witness_bits[j]), MOVE_L))
        state = x
        for i, (write, move) in enumerate(ops):
            nxt = HALT if i == len(ops) - 1 else next_free
            transitions[(state, BLANK)] = Transition(nxt, write, move)
            state = next_free
            if nxt != HALT:
                next_free += 1
    table = TransitionTable(state_count=next_free, transitions=transitions)
    return QuasiTrivialMachine(table=table, m=encode_machine(table), k=k)


def dispatch_slack(k: int) -> int:
    """Analytic bound on reject-path overhead: the trie depth."""
    return len(to_dyadic(k))


def _run_steps(table: TransitionTable, upper: int, limit_at: Callable[[int], int]):
    """For x = 0, 1, ..., upper in turn: (steps, row, read), with steps the
    step count of the table's run on x, or None where the run does not halt
    within limit_at(|x|) steps, and row and read those of x's node (below).

    One walk over the trie of input strings, in x order: the string of
    2x + 1 is x's followed by 0, that of 2x + 2 x's followed by 1.  Each
    node keeps the row reached and how many leading symbols j of its
    string were read by transitions that write blank and move right; a
    node reads one symbol past its parent only when the parent read its
    whole string.  After those j steps the cells left of the head at j
    are blank and the rest hold the unread input.  So a node is either
    past its limit within those j steps, or else the simulator's step loop
    (`machine._resume`) resumes x's run from that row at step j, on j blank
    cells and the unread suffix, if any.  That loop also settles a fully
    read node whose row has no blank transition (it halts after |x| steps)
    and a read that stops in HALT (the step table's row of None cells).
    """
    cells = table.step_table
    limits = [limit_at(depth) for depth in range((upper + 1).bit_length())]
    rows: list[int] = []  # per node: the row reached
    reads: list[int] = []  # per node: the symbols read by erasing moves right
    for x in range(upper + 1):
        depth = (x + 1).bit_length() - 1
        limit = limits[depth]
        row = read = 0
        if x:
            parent = (x - 1) >> 1
            row = rows[parent]
            read = reads[parent]
            if read == depth - 1:
                cell = cells[row + ((x - 1) & 1)]
                if cell is not None and cell[1] == BLANK and cell[2] == 1:
                    row = cell[0]
                    read = depth
        rows.append(row)
        reads.append(read)
        if read > limit:
            yield None, row, read
        else:
            tape = bytearray((BLANK,)) * read
            if read < depth:
                tape.extend(map(int, to_dyadic(x)[read:]))  # the unread suffix
            halted, steps, _ = machine._resume(cells, tape, limit, None, row, read, read)
            yield steps if halted else None, row, read


def measure_b(q: QuasiTrivialMachine) -> int:
    """Clock offset: worst measured runtime below the cutoff, plus one,
    plus the dispatch slack.  Deterministic and always >= 1.

    The runtimes on x = 0..k come from one walk over the machine's trie
    (`_run_steps`), where every x resumes in the step loop where its erasing
    read stopped; they equal one run of up to _MEASURE_FUEL steps per x."""
    worst = 0
    for x, (steps, _, _) in enumerate(_run_steps(q.table, q.k, lambda depth: _MEASURE_FUEL)):
        if steps is None:
            raise RuntimeError(f"compiled machine failed to halt on {x}")
        worst = max(worst, steps)
    return worst + 1 + dispatch_slack(q.k)


def embed(q: QuasiTrivialMachine) -> EmbeddingRecord:
    """Place the machine in the clocked-pair set at index <m, 2, b_m>."""
    b_m = measure_b(q)
    return EmbeddingRecord(m=q.m, k=q.k, b_m=b_m, n=triple_encode(q.m, 2, b_m))


class NoInterruptReport(NamedTuple):
    ok: bool
    failed_at: int | None


def _enters_eraser(cells: list, cell) -> bool:
    """Whether the cell writes blank and moves right into an eraser row: one
    whose cells on 0 and 1 are that cell, and with no transition on blank."""
    return (cell is not None and cell[1:3] == (BLANK, 1) and cells[cell[0]] == cell
            and cells[cell[0] + 1] == cell and cells[cell[0] + BLANK] is None)


def verify_no_interrupt(record: EmbeddingRecord) -> NoInterruptReport:
    """Certify that C_(2, b_m) interrupts the machine on no x, so that every
    clocked run is the free run.  With d = |k|, one walk over the trie
    (`_run_steps`) runs every x of length <= d under the limit |x|^2 + b_m.
    Each string of length d + 1, read off the walk's depth-d nodes, must be
    read by transitions that write blank and move right into an eraser row,
    so every longer x halts after exactly |x| steps.  failed_at is the least
    x this cannot vouch for: the first interrupted run, or else the first
    string of length d + 1 without that shape."""
    table = decode_machine(record.m)
    cells = table.step_table
    clock = ClockSpec(2, record.b_m)
    depth = len(to_dyadic(record.k))
    leaves = (1 << depth) - 1  # the first x of length d
    unvouched = None
    erasing: dict = {}  # cell -> _enters_eraser(cells, cell), decided once per distinct cell
    walk = _run_steps(table, 2 * leaves, lambda length: length ** clock.a + clock.b)
    for x, (steps, row, read) in enumerate(walk):
        if steps is None:
            return NoInterruptReport(ok=False, failed_at=x)
        if x >= leaves and unvouched is None:
            if read < depth:
                unvouched = 2 * x + 1
                continue
            for symbol in (0, 1):
                cell = cells[row + symbol]
                if cell not in erasing:
                    erasing[cell] = _enters_eraser(cells, cell)
                if not erasing[cell]:
                    unvouched = 2 * x + 1 + symbol
                    break
    return NoInterruptReport(ok=unvouched is None, failed_at=unvouched)


# --- independent oracle ------------------------------------------------------

def predicted_least_counterexample(k: int) -> int:
    """Oracle for the embedded machine's least failing pair.

    Walk the formula codes x > k; for each, find the least witness y by
    enumerating truth tuples, and minimize pair(x, y).  Since
    pair(x, y) >= pair(x, 0) = x(x + 1)/2, which grows with x, the walk
    stops at the first x with pair(x, 0) >= best.  It terminates because
    [[+v]] is satisfiable for every v and its codes grow with v, so some
    satisfiable code lies beyond every cutoff.
    """
    best = None
    x = k + 1
    while best is None or pair(x, 0) < best:
        y = sat.least_witness_brute(x)
        if y is not None:
            best = pair(x, y) if best is None else min(best, pair(x, y))
        x += 1
    return best


# --- lemma checks ------------------------------------------------------------

def verify_crucial_step(record: EmbeddingRecord, budget: int | None = None,
                        cache: bgs.ResultCache | None = None
                        ) -> tuple[bgs.CounterexampleResult, int]:
    """Run the counterexample search on the embedded index, with the budget
    defaulting to one past the oracle's prediction; return the search
    result and the prediction z_pred.

    The record must hold n = triple_encode(m, 2, b_m), as `embed` makes it:
    the index is built from those fields, not decoded from n."""
    z_pred = predicted_least_counterexample(record.k)
    if budget is None:
        budget = z_pred + 1
    index = bgs.BgsIndex(record.n, record.m, 2, record.b_m)
    result = bgs.counterexample(index, budget, cache)
    if not result.found and budget <= z_pred:
        raise BudgetTooSmallError(
            f"budget {budget} exhausted before the predicted witness {z_pred}")
    return result, z_pred


def star_counterexample(q: QuasiTrivialMachine,
                        budget: int) -> bgs.CounterexampleResult | None:
    """The cutoff machine's own counterexample value: the first entry of
    the shared witness table below budget whose output fails V, each x run
    free for up to _MEASURE_FUEL steps on the table `build_qt` compiled,
    which is never decoded and keeps no memo; None when a run uses up its
    fuel.  Never cached, so the index-side value cannot answer it."""
    for z, x in bgs._TABLE.walk(0, budget):
        result = machine.run(q.table, x, _MEASURE_FUEL)
        if not result.halted:
            return None
        if sat.verify_pair(x, result.output) == 0:
            return bgs.CounterexampleResult(bgs.CounterexampleStatus.FOUND, z, z + 1, budget)
    return bgs.CounterexampleResult(bgs.CounterexampleStatus.EXHAUSTED, None, budget, budget)


class LemmaCheckRow(NamedTuple):
    k: int
    m: int
    b_m: int
    n: int
    status: str
    z: int | None
    z_pred: int
    no_interrupt: bool
    restriction_equal: bool
    passed: bool


def lemma_check(ks, budget: int | None = None, cache: bgs.ResultCache | None = None,
                k_max: int = DEFAULT_K_MAX) -> list[LemmaCheckRow]:
    """Full pipeline per cutoff: build, embed, no-interrupt certificate, crucial
    step against the oracle (z == z_pred >= k + 1), and the restriction
    identity."""
    rows = []
    for k in ks:
        q = build_qt(k, k_max=k_max)
        record = embed(q)
        ni = verify_no_interrupt(record)
        crucial, z_pred = verify_crucial_step(record, budget, cache)
        star = star_counterexample(q, crucial.budget)
        equal = star is not None and star.found and star.z == crucial.z
        rows.append(LemmaCheckRow(k=k, m=record.m, b_m=record.b_m, n=record.n,
                                  status=crucial.status.value, z=crucial.z,
                                  z_pred=z_pred, no_interrupt=ni.ok,
                                  restriction_equal=equal,
                                  passed=crucial.z == z_pred >= k + 1 and ni.ok and equal))
    return rows
