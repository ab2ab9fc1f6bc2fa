"""Hand-built machines shared across test modules, and the literal
definitions that the program's fast paths replace."""

import io
import itertools
import json
import random
from math import isqrt

from bgslab import quasitrivial, sat
from bgslab.bgs import BgsIndex, CounterexampleResult, CounterexampleStatus, ResultCache
from bgslab.codec import CODEC_VERSION, from_dyadic, to_dyadic, unpair
from bgslab.machine import (BLANK, HALT, MACHINE_ENCODING_VERSION, MOVE_L, MOVE_R,
                            NULL_MACHINE, ClockSpec, RunResult, Transition, TransitionTable,
                            decode_machine, encode_machine, run_clocked, step_limit)

# scans right erasing the input block, halts at the first blank: output 0
ERASER = TransitionTable(1, {
    (0, 0): Transition(0, BLANK, MOVE_R),
    (0, 1): Transition(0, BLANK, MOVE_R),
})

# moves right forever, never halts
LOOPER = TransitionTable(1, {
    (0, 0): Transition(0, 0, MOVE_R),
    (0, 1): Transition(0, 1, MOVE_R),
    (0, BLANK): Transition(0, BLANK, MOVE_R),
})

# scans right over the input, applies an explicit HALT transition on the
# first blank (so blank-hitting costs one counted step)
SCANNER = TransitionTable(1, {
    (0, 0): Transition(0, 0, MOVE_R),
    (0, 1): Transition(0, 1, MOVE_R),
    (0, BLANK): Transition(HALT, BLANK, MOVE_R),
})

# writes the two-bit block "11" over the input's first cells, erases the
# rest: outputs 6 on any input of dyadic length >= 2
WRITE_11_THEN_ERASE = TransitionTable(3, {
    (0, 0): Transition(1, 1, MOVE_R),
    (0, 1): Transition(1, 1, MOVE_R),
    (1, 0): Transition(2, 1, MOVE_R),
    (1, 1): Transition(2, 1, MOVE_R),
    (2, 0): Transition(2, BLANK, MOVE_R),
    (2, 1): Transition(2, BLANK, MOVE_R),
})

# on empty input writes a single 1 at the origin: outputs 2 on input 0
WRITE_ONE_AT_ORIGIN = TransitionTable(1, {
    (0, BLANK): Transition(HALT, 1, MOVE_R),
})


def random_table(rng: random.Random, max_states: int = 4) -> TransitionTable:
    """A random deterministic table; entries are present with probability 3/4."""
    states = rng.randint(1, max_states)
    transitions = {}
    for q in range(states):
        for sym in (0, 1, BLANK):
            if rng.random() < 0.75:
                nxt = rng.choice([HALT] + list(range(states)))
                transitions[(q, sym)] = Transition(
                    nxt, rng.choice((0, 1, BLANK)), rng.choice((MOVE_L, MOVE_R)))
    return TransitionTable(states, transitions)


def _reference_read_output(tape: list[int]) -> int:
    block = []
    for sym in tape:
        if sym == BLANK:
            break
        block.append("01"[sym])
    return from_dyadic("".join(block))


def reference_simulate(table: TransitionTable, input_value: int, limit: int | None,
                       on_step=None) -> tuple[bool, int, list[int]]:
    """The literal simulator that `machine._simulate` replaces: a list
    tape and one `transitions` lookup per step; returns
    (halted, steps, tape)."""
    tape = [int(c) for c in to_dyadic(input_value)]
    trans = table.transitions
    state = 0
    head = 0
    steps = 0
    while True:
        sym = tape[head] if head < len(tape) else BLANK
        t = trans.get((state, sym))
        if t is None:
            return True, steps, tape
        if steps == limit:
            return False, steps, tape
        if on_step is not None:
            on_step(steps, state, head, sym)
        while head >= len(tape):
            tape.append(BLANK)
        tape[head] = t.write
        if t.move == MOVE_R:
            head += 1
        elif head > 0:
            head -= 1
        steps += 1
        state = t.next_state
        if state == HALT:
            return True, steps, tape


def reference_run(table: TransitionTable, input_value: int, max_steps: int,
                  on_step=None) -> RunResult:
    """`machine.run` on the literal simulator."""
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
    halted, steps, tape = reference_simulate(table, input_value, max_steps, on_step)
    if halted:
        return RunResult(output=_reference_read_output(tape), steps=steps)
    return RunResult(output=0, steps=max_steps, fuel_exhausted=True)


def reference_run_clocked(table: TransitionTable, clock: ClockSpec, input_value: int,
                          on_step=None) -> RunResult:
    """`machine.run_clocked` on the literal simulator."""
    bound = step_limit(clock, input_value)
    halted, steps, tape = reference_simulate(table, input_value, bound, on_step)
    if halted:
        return RunResult(output=_reference_read_output(tape), steps=steps)
    return RunResult(output=0, steps=bound, interrupted=True)


def reference_no_interrupt(record, test_window: int):
    """The windowed two-run form that `quasitrivial.verify_no_interrupt`
    certifies for every x: per x <= max(k, test_window), a free run under
    `quasitrivial._MEASURE_FUEL` steps and a clocked run, which must agree
    in output and steps with neither stopped."""
    table = decode_machine(record.m)
    clock = ClockSpec(2, record.b_m)
    for x in range(max(record.k, test_window) + 1):
        free = reference_run(table, x, quasitrivial._MEASURE_FUEL)
        clocked = reference_run_clocked(table, clock, x)
        if (clocked.interrupted or not free.halted
                or clocked.output != free.output or clocked.steps != free.steps):
            return quasitrivial.NoInterruptReport(ok=False, failed_at=x)
    return quasitrivial.NoInterruptReport(ok=True, failed_at=None)


def reference_measure_b(q) -> int:
    """The per-input loop that `quasitrivial.measure_b` replaces: one free
    run of up to `quasitrivial._MEASURE_FUEL` steps per x <= k, on the
    literal simulator."""
    worst = 0
    for x in range(q.k + 1):
        result = reference_run(q.table, x, quasitrivial._MEASURE_FUEL)
        if not result.halted:
            raise RuntimeError(f"compiled machine failed to halt on {x}")
        worst = max(worst, result.steps)
    return worst + 1 + quasitrivial.dispatch_slack(q.k)


def reference_build_qt(k: int):
    """The string-keyed trie that `quasitrivial.build_qt` numbers by
    arithmetic: one state per dyadic string of length <= |k|, numbered in
    `itertools.product` order and looked up by string, with x read back
    by `from_dyadic`.  Returns a QuasiTrivialMachine."""
    answers = tuple(sat.decider(x).witness for x in range(k + 1))
    depth = len(to_dyadic(k))

    transitions: dict[tuple[int, int], Transition] = {}
    state_ids: dict[str, int] = {}
    for length in range(depth + 1):
        for bits in itertools.product("01", repeat=length):
            state_ids["".join(bits)] = len(state_ids)
    eraser = len(state_ids)
    next_free = eraser + 1

    transitions[(eraser, 0)] = Transition(eraser, BLANK, MOVE_R)
    transitions[(eraser, 1)] = Transition(eraser, BLANK, MOVE_R)

    for s, sid in state_ids.items():
        if len(s) < depth:
            transitions[(sid, 0)] = Transition(state_ids[s + "0"], BLANK, MOVE_R)
            transitions[(sid, 1)] = Transition(state_ids[s + "1"], BLANK, MOVE_R)
        else:
            transitions[(sid, 0)] = Transition(eraser, BLANK, MOVE_R)
            transitions[(sid, 1)] = Transition(eraser, BLANK, MOVE_R)
        x = from_dyadic(s)
        if x > k:
            continue
        witness_bits = to_dyadic(answers[x])
        if not witness_bits:
            transitions[(sid, BLANK)] = Transition(HALT, BLANK, MOVE_L)
            continue
        ops: list[tuple[int, str]] = []
        position = len(s)
        target = len(witness_bits) - 1
        ops.extend([(BLANK, MOVE_L)] * (position - target))
        ops.extend([(BLANK, MOVE_R)] * (target - position))
        for j in range(target, -1, -1):
            ops.append((int(witness_bits[j]), MOVE_L))
        state = sid
        for i, (write, move) in enumerate(ops):
            nxt = HALT if i == len(ops) - 1 else next_free
            transitions[(state, BLANK)] = Transition(nxt, write, move)
            state = next_free
            if nxt != HALT:
                next_free += 1
    table = TransitionTable(state_count=next_free, transitions=transitions)
    return quasitrivial.QuasiTrivialMachine(table=table, m=encode_machine(table), k=k)


def reference_to_trits(n: int) -> str:
    """The literal bijective base-3 digit loop that `machine._to_trits`
    replaces for large numbers: one divmod per digit, digits 0, 1, 2."""
    digits = []
    while n > 0:
        n, r = divmod(n - 1, 3)
        digits.append("012"[r])
    return "".join(reversed(digits))


def reference_decode_machine(m: int) -> TransitionTable:
    """The full parse that `machine.decode_machine` shortcuts for m = 0 and
    m % 3 != 0: split the digit string of m at every separator 2 and read
    the fields as transitions, on every m.  Returns a fresh table."""
    digits = reference_to_trits(m)
    if not digits:
        flat: list[int] = []
    else:
        fields = digits.split("2")
        if fields[-1] != "":
            return NULL_MACHINE
        flat = [from_dyadic(f) for f in fields[:-1]]
    if len(flat) % 5 != 0:
        return NULL_MACHINE
    transitions: dict[tuple[int, int], Transition] = {}
    max_state = 0
    for i in range(0, len(flat), 5):
        q, s, nxt, write, move = flat[i:i + 5]
        if s > 2 or write > 2 or move > 1 or (q, s) in transitions:
            return NULL_MACHINE
        next_state = HALT if nxt == 0 else nxt - 1
        transitions[(q, s)] = Transition(next_state, write, MOVE_L if move == 0 else MOVE_R)
        max_state = max(max_state, q, next_state)
    return TransitionTable(state_count=max_state + 1, transitions=transitions)


def reference_unpair(z: int) -> tuple[int, int]:
    """The literal inverse of Cantor pairing, kept apart from `codec.unpair`
    so that a change there is checked against it: the diagonal w from
    math.isqrt, then z - w(w+1)/2."""
    w = (isqrt(8 * z + 1) - 1) // 2
    y = z - w * (w + 1) // 2
    return w - y, y


def reference_triple_decode(n: int) -> tuple[int, int, int]:
    """The literal inverse of triple_encode that `codec.triple_decode`
    replaces: unpair n as (m, ab), then unpair ab as (a, b)."""
    m, ab = reference_unpair(n)
    a, b = reference_unpair(ab)
    return m, a, b


def g_star(index: BgsIndex, x: int) -> bool:
    """The guess predicate: true when the indexed pair's output on x
    satisfies x."""
    return sat.verify_pair(x, run_clocked(index.table(), index.clock, x).output) == 1


def not_g(index: BgsIndex, z: int) -> bool:
    """True when z = (x, y) proves the pair wrong: y satisfies x, its output does not."""
    if sat.verifier(z) != 1:
        return False
    x, _ = unpair(z)
    return not g_star(index, x)


def reference_counterexample(index: BgsIndex, budget: int) -> CounterexampleResult:
    """The literal z-order mu-search that `bgs.counterexample` replaces: the
    least z < budget with not_g(index, z).  No memo, no table, no cache."""
    for z in range(budget):
        if not_g(index, z):
            return CounterexampleResult(CounterexampleStatus.FOUND, z, z + 1, budget)
    return CounterexampleResult(CounterexampleStatus.EXHAUSTED, None, budget, budget)


def reference_cache_bytes(cache: ResultCache) -> bytes:
    """The cache file content that `ResultCache.save` writes for cache, as
    json.dump with indent 2 and sorted keys, plus a newline."""
    entries: dict[str, dict] = {}
    for n, z in sorted(cache._found.items()):
        entries[str(n)] = {"status": "found", "z": z}
    for n, upto in sorted(cache._exhausted.items()):
        entries.setdefault(str(n), {"status": "exhausted", "upto": upto})
    data = {
        "codec_version": CODEC_VERSION,
        "machine_encoding_version": MACHINE_ENCODING_VERSION,
        "entries": entries,
    }
    fh = io.StringIO()
    json.dump(data, fh, indent=2, sort_keys=True)
    fh.write("\n")
    return fh.getvalue().encode("utf-8")


def reference_load(path) -> ResultCache:
    """The entry-by-entry read that `ResultCache.load` replaces for valid
    files of the current versions: every entry through `_merge`."""
    cache = ResultCache()
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    for key, entry in data.get("entries", {}).items():
        if entry["status"] == "found":
            cache._merge(int(key), int(entry["z"]), 0)
        else:
            cache._merge(int(key), None, int(entry["upto"]))
    return cache
