"""The benchmark's workloads.

Each workload is a closed loop driven by one process: one operation at a
time, and at most one child process at a time.  `setup` makes every input
from the seed; `pass_ops` gives the operations of one pass, the same ones
in the same order every pass; `run_op` performs one and returns its
output; `check` compares the first output of each operation with a
reference after the timed window and returns how many are wrong.
Operations call bgslab through module attributes, so that installed spans
see them.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 60


def run_child(cmd: list[str], timeout: float = CHILD_TIMEOUT_S,
              **kwargs) -> subprocess.CompletedProcess:
    """`subprocess.run` with output captured, minus its polling wait, whose
    backoff sleeps (up to 50 ms) would round the timings; a timer kills a
    child that overruns, and the call waits until the child has ended."""
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          **kwargs) as proc:
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            out, err = proc.communicate()
        finally:
            timer.cancel()
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


class Workload:
    name = ""
    in_process = True  # False: operations are child processes

    def setup(self, seed: int, workdir: Path):
        raise NotImplementedError

    def pass_ops(self, state) -> list:
        raise NotImplementedError

    def run_op(self, state, op, tracer):
        raise NotImplementedError

    def check(self, state, ops: list, outputs: dict) -> int:
        """Wrong outputs among `outputs[i]`, the output of `ops[i]`."""
        raise NotImplementedError

    def layer_counts(self, state) -> dict:
        """Per-layer counts read from outputs after a traced pass."""
        return {}

    def teardown(self, state) -> None:
        pass


class BlockScan(Workload):
    """`bgs scan` traffic in process: every index of one contiguous block.

    Blocks start below 10^6, where every index decodes to a machine that
    halts quickly; beyond about 5 * 10^6 decoded machines loop under large
    clocks and the search has no step bound on them.
    """

    name = "block-scan"
    SIZE = 20_000
    BUDGET = 10 ** 5
    START_BELOW = 10 ** 6
    REFERENCE_SAMPLE = 200

    def setup(self, seed, workdir):
        from bgslab import bgs
        rng = random.Random(seed)
        start = rng.randrange(self.START_BELOW)
        block = range(start, start + self.SIZE)
        return {"bgs": bgs, "block": list(block),
                "sample": sorted(rng.sample(block, self.REFERENCE_SAMPLE))}

    def pass_ops(self, state):
        return state["block"]

    def run_op(self, state, n, tracer):
        bgs = state["bgs"]
        return bgs.counterexample(bgs.BgsIndex.from_natural(n), self.BUDGET)

    def check(self, state, ops, outputs):
        from reference import least_counterexample
        position = {n: i for i, n in enumerate(ops)}
        failed = 0
        for n in state["sample"]:
            z = least_counterexample(n, self.BUDGET)
            want = (True, z, z + 1) if z is not None else (False, None, self.BUDGET)
            result = outputs.get(position[n])
            if result is not None and (result.found, result.z, result.scanned) != want:
                failed += 1
        return failed


class CutoffPipeline(Workload):
    """`lemma_check` far above the CLI's cutoff ceiling, through the library."""

    name = "cutoff-pipeline"
    CUTOFFS = (100, 200, 300, 400)

    def setup(self, seed, workdir):
        from bgslab import quasitrivial
        order = list(self.CUTOFFS)
        random.Random(seed).shuffle(order)
        return {"qt": quasitrivial, "order": order}

    def pass_ops(self, state):
        return state["order"]

    def run_op(self, state, k, tracer):
        (row,) = state["qt"].lemma_check([k], k_max=max(self.CUTOFFS))
        return row

    def check(self, state, ops, outputs):
        return sum(1 for i, row in outputs.items()
                   if not (row.k == ops[i] and row.passed and row.status == "found"
                           and row.z is not None and row.z == row.z_pred >= row.k + 1
                           and row.no_interrupt and row.restriction_equal))


class CliSession(Workload):
    """One scripted session of `python -m bgslab` commands sharing a config
    file and a cache file: `qt verify`, a `bgs scan` over a block, then
    counterexample probes.  Half of the probes hit indices inside the
    scanned block (cache reads), half hit indices outside it (cache
    writes); each outside index is probed at budget 50, leaving an
    exhausted entry, and later at budget 2000, resuming from it."""

    name = "cli-session"
    in_process = False
    MAX_CUTOFF = 64
    SCAN_SIZE = 5000
    START_BELOW = 10 ** 6
    INSIDE_PROBES = 10
    OUTSIDE_INDICES = 5
    SHORT_BUDGET, LONG_BUDGET = 50, 2000
    SCAN_SAMPLE = 50

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        start = rng.randrange(self.START_BELOW)
        block = range(start, start + self.SCAN_SIZE)
        outside: list[int] = []
        while len(outside) < self.OUTSIDE_INDICES:
            n = rng.randrange(self.START_BELOW)
            if n not in block and n not in outside:
                outside.append(n)
        probes = [[n, rng.choice((self.SHORT_BUDGET, self.LONG_BUDGET))]
                  for n in rng.sample(block, self.INSIDE_PROBES)]
        probes += [[n, None] for n in outside for _ in range(2)]
        rng.shuffle(probes)
        seen: set[int] = set()
        for probe in probes:
            if probe[1] is None:
                probe[1] = self.LONG_BUDGET if probe[0] in seen else self.SHORT_BUDGET
                seen.add(probe[0])
        root = Path(tempfile.mkdtemp(prefix="cli-session-", dir=workdir))
        config = root / "bgslab.conf"
        config.write_text(f"k_max={self.MAX_CUTOFF}\n", encoding="utf-8")
        src = HERE.parent / "src"
        return {
            "root": root,
            "config": str(config),
            "env": dict(os.environ, PYTHONPATH=str(src)),
            "scan": (start, start + self.SCAN_SIZE - 1),
            "scan_sample": rng.sample(block, self.SCAN_SAMPLE),
            "probes": [tuple(p) for p in probes],
            "sessions": 0,
        }

    def pass_ops(self, state):
        state["sessions"] += 1
        session = state["root"] / f"session-{state['sessions']}"
        session.mkdir()
        cache = str(session / "cache.json")
        state["cache"] = cache
        head = ["--config", state["config"]]
        lo, hi = state["scan"]
        ops = [("qt", None, head + ["qt", "verify", "--cutoffs", f"0..{self.MAX_CUTOFF}",
                                     "--cache", cache]),
               ("scan", None, head + ["bgs", "scan", "--from", str(lo), "--to", str(hi),
                                       "--cache", cache, "--format", "csv"])]
        for n, budget in state["probes"]:
            ops.append(("probe", (n, budget),
                        head + ["bgs", "counterexample", "--index", str(n),
                                "--budget", str(budget), "--cache", cache]))
        return ops

    def run_op(self, state, op, tracer):
        _, _, argv = op
        if tracer is None:
            cmd = [sys.executable, "-m", "bgslab", *argv]
        else:
            dump = state["root"] / "spans.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(dump), *argv]
        proc = run_child(cmd, env=state["env"], cwd=state["root"])
        if proc.returncode != 0:
            raise RuntimeError(f"exit code {proc.returncode}: {' '.join(argv)}\n"
                               + proc.stderr.decode(errors="replace"))
        if tracer is not None:
            tracer.merge(json.loads(dump.read_text(encoding="utf-8")), tracer.op)
            tracer.counts["cli.report_bytes"] += len(proc.stdout)
        return proc.stdout.decode()

    def layer_counts(self, state):
        with open(state["cache"], encoding="utf-8") as fh:
            return {"bgs.cache.entries": len(json.load(fh)["entries"])}

    def check(self, state, ops, outputs):
        from bgslab import bgs, quasitrivial
        from bgslab.codec import unpair
        from bgslab.config import Config
        lemma = [{"k": r.k, "m": r.m, "b_m": r.b_m, "N": r.n, "status": r.status,
                  "z": r.z, "zPred": r.z_pred, "pass": r.passed}
                 for r in quasitrivial.lemma_check(range(self.MAX_CUTOFF + 1),
                                                   k_max=self.MAX_CUTOFF)]
        searched: dict = {}

        def search(n, budget):
            if (n, budget) not in searched:
                ix = bgs.BgsIndex.from_natural(n)
                result = bgs.counterexample(ix, budget)
                searched[n, budget] = {
                    "n": n, "m": ix.m, "a": ix.a, "b": ix.b,
                    "status": result.status.value, "z": result.z,
                    "x": None if result.z is None else unpair(result.z)[0],
                    "scanned": result.scanned}
            return searched[n, budget]

        def qt_ok(out):
            rows = json.loads(out)["rows"]
            return (all(r["pass"] for r in lemma)
                    and [{key: r[key] for key in lemma[0]} for r in rows] == lemma)

        def scan_ok(out):
            rows = {int(r["n"]): r for r in csv.DictReader(io.StringIO(out))}
            lo, hi = state["scan"]
            if sorted(rows) != list(range(lo, hi + 1)):
                return False
            budget = Config().budget_default
            for n in state["scan_sample"]:
                want = search(n, budget)
                row = rows[n]
                if (row["status"] != want["status"] or row["scanned"] != str(want["scanned"])
                        or row["z"] != ("" if want["z"] is None else str(want["z"]))):
                    return False
            return True

        def probe_ok(out, n, budget):
            got = json.loads(out)
            want = dict(search(n, budget), budget=budget)
            return {key: got[key] for key in want} == want

        failed = 0
        for i, out in outputs.items():
            kind, params, _ = ops[i]
            if kind == "qt":
                ok = qt_ok(out)
            elif kind == "scan":
                ok = scan_ok(out)
            else:
                ok = probe_ok(out, *params)
            failed += not ok
        return failed

    def teardown(self, state):
        shutil.rmtree(state["root"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (BlockScan(), CutoffPipeline(), CliSession())}
