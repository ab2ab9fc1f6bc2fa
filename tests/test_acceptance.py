"""Acceptance criteria, one test per criterion.

Each test prints one `ACCEPTANCE <id>: PASS/FAIL (<elapsed>)` line (visible
under `pytest -s` or in captured output) and enforces its stated runtime
budget.  Run the whole gate with:

    pytest tests/test_acceptance.py -s
"""

import contextlib
import itertools
import random
import subprocess
import sys
import time

from bgslab import bgs, codec, quasitrivial as qt, sat
from bgslab.machine import ClockSpec, NULL_MACHINE, decode_machine, run, run_clocked, step_limit

from helpers import ERASER, LOOPER, SCANNER, random_table


@contextlib.contextmanager
def criterion(name, time_limit_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    within = elapsed < time_limit_s
    print(f"ACCEPTANCE {name}: {'PASS' if within else 'FAIL (over time budget)'} "
          f"({elapsed:.1f}s, limit {time_limit_s}s)")
    assert within, f"{name} exceeded its {time_limit_s}s budget: {elapsed:.1f}s"


def test_criterion_1_codec_laws():
    with criterion("1 codec-laws", 30):
        # dyadic round-trip, exact, injective
        seen = set()
        for n in range(100_000):
            s = codec.to_dyadic(n)
            assert codec.from_dyadic(s) == n
            assert s not in seen
            seen.add(s)

        # pairing: bijective on the grid, monotone, inverse
        codes = set()
        for x in range(500):
            for y in range(500):
                z = codec.pair(x, y)
                assert z >= max(x, y)
                assert codec.unpair(z) == (x, y)
                codes.add(z)
        assert len(codes) == 500 * 500

        # CNF round-trip, exhaustive in two slices:
        # (a) every formula of up to 3 canonical clauses (ascending literal
        #     order, up to 3 distinct literals, variables up to 3)
        literals = [1, -1, 2, -2, 3, -3]
        canonical = [c for r in range(4) for c in itertools.combinations(literals, r)]
        assert len(canonical) == 42
        count = 0
        for size in range(4):
            for clauses in itertools.product(canonical, repeat=size):
                formula = codec.CnfFormula(clauses)
                assert codec.decode_cnf(codec.encode_cnf(formula)) == formula
                count += 1
        assert count == 1 + 42 + 42 ** 2 + 42 ** 3

        # (b) every ordered clause arrangement with repetition at a smaller
        #     scale, so literal and clause order are exhaustively covered
        ordered = [c for r in range(3) for c in itertools.product(literals, repeat=r)]
        for size in range(3):
            for clauses in itertools.product(ordered, repeat=size):
                formula = codec.CnfFormula(clauses)
                assert codec.decode_cnf(codec.encode_cnf(formula)) == formula


def test_criterion_2_clock_semantics():
    with criterion("2 clock-semantics", 60):
        rng = random.Random(20260810)
        special = [NULL_MACHINE, ERASER, LOOPER, SCANNER]
        for i in range(1000):
            if i % 5 == 4:
                table = decode_machine(rng.randint(0, 10 ** 9))
            elif i % 17 == 0:
                table = special[(i // 17) % len(special)]
            else:
                table = random_table(rng)
            clock = ClockSpec(rng.randint(1, 3), rng.randint(1, 50))
            x = rng.randint(0, 511)
            bound = step_limit(clock, x)
            clocked = run_clocked(table, clock, x)
            assert clocked.steps <= bound
            free = run(table, x, bound)
            if free.halted:
                assert clocked.halted
                assert (clocked.output, clocked.steps) == (free.output, free.steps)


def test_criterion_3_sat_oracle_equivalence():
    with criterion("3 sat-oracle-equivalence", 300):
        for x in range(5000):
            expected = sat.satisfiable_brute(x)
            result = sat.decider(x)
            assert result.satisfiable == expected
            assert (result.witness != 0 or x == 0) == expected
            if expected:
                assert sat.verify_pair(x, result.witness) == 1
                for y in range(result.witness):
                    assert sat.verify_pair(x, y) == 0


def test_criterion_4_verifier_conventions():
    with criterion("4 verifier-conventions", 60):
        assert sat.verifier(codec.pair(0, 0)) == 1
        for x in range(1, 2001):
            assert sat.verifier(codec.pair(x, 0)) == 0


def test_criterion_5_crucial_step():
    with criterion("5 crucial-step", 600):
        for k in range(11):
            machine = qt.build_qt(k)
            record = qt.embed(machine)
            z_pred = qt.predicted_least_counterexample(k)
            index = bgs.BgsIndex.from_natural(record.n)
            result = bgs.counterexample(index, z_pred + 1)  # budget from the oracle
            assert result.found
            assert result.z >= k + 1
            assert result.z == z_pred


def test_criterion_6_no_interruption():
    with criterion("6 no-interruption", 600):
        for k in range(11):
            record = qt.embed(qt.build_qt(k))
            table = decode_machine(record.m)
            clock = ClockSpec(2, record.b_m)
            for x in range(k + 201):
                free = run(table, x, 100_000)
                clocked = run_clocked(table, clock, x)
                assert free.halted and not clocked.interrupted
                assert (clocked.output, clocked.steps) == (free.output, free.steps)


def test_criterion_7_restriction_identity():
    with criterion("7 restriction-identity", 600):
        rows = qt.lemma_check(range(7))
        assert len(rows) == 7
        for row in rows:
            assert row.status == "found"
            assert row.restriction_equal
            assert row.passed


def test_criterion_8_deterministic_reports(tmp_path):
    with criterion("8 deterministic-reports", 600):
        outputs = []
        for name in ("first", "second"):
            out = tmp_path / f"{name}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "bgslab", "qt", "verify",
                 "--cutoffs", "0..6", "--out", str(out)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
