"""bgslab benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Runs from a source checkout: the program is imported from `src/` beside
this directory and nothing is installed.  With `--trace 0` it repeats
whole passes over the workload's operations until S seconds have gone by
(at least one pass) and reports the end-to-end metrics of BENCHMARK.json.
Timings there are scaled to the host's reference speed (see `Speed`), and
an operation's latency is the mean of its two fastest scaled repeats, one
repeat per pass.
With `--trace 1` it runs a warm-up pass, then
alternates an untraced and a traced pass until S seconds have gone by,
and reports the per-layer metrics of the first traced pass, which is the
same work for a seed, so its counts repeat exactly, plus the tracing
overhead.  Outputs are checked after the timed window.  The last line of
standard output is the result as one JSON object.

Writes only under `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CHILD_REPEATS = 5  # fresh processes timed for setup_s and cli.import_s
KERNEL_REF_S = 0.0011  # the calibration kernel's time on this host in its fast state
SAMPLE_EVERY_S = 0.05


def load_program():
    """Import bgslab from this checkout's src/, and nowhere else."""
    if not (SRC / "bgslab" / "__init__.py").is_file():
        raise ImportError(f"no bgslab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bgslab
    if SRC not in Path(bgslab.__file__).resolve().parents:
        raise ImportError(f"bgslab was imported from {bgslab.__file__}, not from {SRC}")
    return bgslab


def _kernel() -> int:
    """Fixed interpreter work: integer arithmetic, formatting, dict stores."""
    table = {}
    total = 0
    for i in range(4000):
        bits = format(i + 1, "b")
        total += len(bits) + (i * i) % 7
        table[i & 255] = bits
    return total


class Speed:
    """The host's speed through a run, from a fixed kernel timed between
    operations.

    This host's CPU switches between speed states up to about 2x apart,
    in spells from milliseconds to longer than a run, so raw timings of the
    same work vary by a third between runs.  A latency measured in interval
    j (between kernel samples j and j + 1) is scaled by KERNEL_REF_S over
    the mean of those two samples: roughly the time the operation would
    take on the reference host at full speed.
    """

    def __init__(self):
        self.kernel_s: list[float] = []
        self._last = -1.0

    @property
    def interval(self) -> int:
        return len(self.kernel_s) - 1

    def sample(self) -> None:
        t0 = time.perf_counter()
        _kernel()
        self._last = time.perf_counter()
        self.kernel_s.append(self._last - t0)

    def sample_due(self) -> None:
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def scales(self) -> list[float]:
        """Scale factor of every interval so far."""
        k = self.kernel_s
        return [KERNEL_REF_S / statistics.fmean(k[j:j + 2]) for j in range(len(k))]


class Log:
    """What the passes of one mode did.

    `outputs[i]` is the first output of the pass's i-th operation; later
    passes must repeat it, and each mismatch counts as a failure.  Each
    attempt is kept as (operation, speed interval, latency).
    """

    def __init__(self):
        self.ops: list = []  # the operations of the first pass
        self.op_ids = array("l")
        self.intervals = array("l")
        self.latencies = array("d")
        self.passes: list[float] = []  # wall time of each whole pass
        self.outputs: dict = {}
        self.failed = 0
        self.first_pass_rss_mb = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def scaled_op_latencies(self, speed: Speed) -> list[float]:
        """Mean of the two fastest scaled repeats of each operation.

        Fast repeats rather than the median, as timeit takes the fastest:
        the scale tracks the host's speed only roughly (in the fast state
        the kernel gains about 2x, the pipeline about 1.35x), and repeats
        disturbed by a change of state in mid-operation run slow.  Two
        rather than one, so that a single mis-scaled repeat does not set
        the value.  On recorded runs of six seeds this spread least.
        """
        scales = speed.scales()
        repeats: list[list[float]] = [[] for _ in self.ops]
        for i, j, t in zip(self.op_ids, self.intervals, self.latencies):
            repeats[i].append(t * scales[j])
        return [statistics.fmean(sorted(r)[:2]) for r in repeats]


def run_pass(workload, state, log: Log, speed: Speed | None = None, tracer=None,
             deadline=None) -> None:
    """One pass; stops early, without recording a pass time, at `deadline`."""
    ops = workload.pass_ops(state)
    if not log.ops:
        log.ops = ops
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = log.attempted
        if speed is not None:
            speed.sample_due()
        t0 = time.perf_counter()
        try:
            output = workload.run_op(state, op, tracer)
        except Exception:
            traceback.print_exc()
            failed = True
        else:
            failed = log.outputs.setdefault(i, output) != output
        t1 = time.perf_counter()
        log.op_ids.append(i)
        log.intervals.append(speed.interval if speed is not None else 0)
        log.latencies.append(t1 - t0)
        log.failed += failed
        if deadline is not None and t1 >= deadline and i + 1 < len(ops):
            return
    log.passes.append(time.perf_counter() - start)


def timed_run(workload, state, seconds: float, in_process: bool) -> tuple[Log, Speed]:
    log, speed = Log(), Speed()
    deadline = time.perf_counter() + seconds
    while True:
        run_pass(workload, state, log, speed, deadline=deadline if log.passes else None)
        if len(log.passes) == 1 and not log.first_pass_rss_mb:
            # before the run's own bookkeeping grows with the number of passes
            log.first_pass_rss_mb = peak_rss_mb(in_process)
        if time.perf_counter() >= deadline:
            speed.sample()  # so that the last interval has samples on both sides
            return log, speed


def traced_run(workload, state, seconds: float):
    """Returns the untraced and traced logs and the first traced pass's tracer."""
    from spans import Tracer
    untraced, traced = Log(), Log()
    first = None
    deadline = time.perf_counter() + seconds
    run_pass(workload, state, Log())  # warm-up, so that no timed pass starts cold
    while True:
        run_pass(workload, state, untraced)
        tracer = Tracer()
        if workload.in_process:
            tracer.install()
        try:
            run_pass(workload, state, traced, tracer=tracer)
        finally:
            if workload.in_process:
                tracer.uninstall()
        if first is None:
            first = tracer
            first.counts.update(workload.layer_counts(state))
        if time.perf_counter() >= deadline:
            return untraced, traced, first


def median_child_seconds(cmd: list[str], env=None, speed: Speed | None = None) -> float:
    """Median wall time of CHILD_REPEATS runs of a child, scaled by `speed` if given."""
    from workloads import run_child
    times = []
    for _ in range(CHILD_REPEATS):
        if speed is not None:
            speed.sample()
        t0 = time.perf_counter()
        proc = run_child(cmd, env=env)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"{cmd} exited with {proc.returncode}: {proc.stderr!r}")
    if speed is not None:
        speed.sample()
        times = [t * scale for t, scale in zip(times, speed.scales())]
    return statistics.median(times)


def cli_import_seconds() -> float:
    """A fresh interpreter's `import bgslab.cli`, minus a bare interpreter start."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    bare = median_child_seconds([sys.executable, "-c", "pass"], env)
    loaded = median_child_seconds([sys.executable, "-c", "import bgslab.cli"], env)
    return loaded - bare


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def end_to_end(log: Log, speed: Speed, setup_s: float) -> dict:
    latencies = log.scaled_op_latencies(speed)
    pass_s = sum(latencies)
    pct = statistics.quantiles([t * 1000 for t in latencies], n=100, method="inclusive")
    return {
        "setup_s": setup_s,
        "peak_rss_mb": log.first_pass_rss_mb,
        "pass_s": pass_s,
        "ops_per_s": len(latencies) / pass_s,
        "op_p50_ms": pct[49],
        "op_p75_ms": pct[74],
        "op_p99_ms": pct[98],
    }


def spec_metrics(key: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[key]


def run_one(args) -> int:
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        workload.teardown(workload.setup(args.seed, OUT))
        return 0
    if not args.trace:
        setup_s = median_child_seconds(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"], speed=Speed())
    state = workload.setup(args.seed, OUT)
    context = {"workload": args.workload, "seed": args.seed,
               "python": platform.python_version(), "nproc": os.cpu_count(),
               "seconds": args.seconds, "trace": args.trace}
    try:
        if args.trace:
            untraced, traced, tracer = traced_run(workload, state, args.seconds)
            logs = [untraced, traced]
            values = tracer.layer_metrics()
            values["cli.import_s"] = cli_import_seconds()
            values["trace.overhead_s"] = (statistics.median(traced.passes)
                                          - statistics.median(untraced.passes))
            spec = spec_metrics("per_layer")
            context.update(untraced_pass_s=untraced.passes, traced_pass_s=traced.passes,
                           spans=len(tracer.spans))
            context["work"] = {name: values[name] for name in (
                "bgs.z_scanned", "sat.verifier.calls", "machine.steps",
                "quasitrivial.oracle_candidates")}
            tracer.write_spans(OUT / f"spans-{args.workload}.jsonl.gz")
        else:
            log, speed = timed_run(workload, state, args.seconds, workload.in_process)
            logs = [log]
            values = end_to_end(log, speed, setup_s)
            spec = spec_metrics("end_to_end")
            context.update(wall_pass_s=log.passes, ops_per_pass=len(log.ops),
                           kernel_median_s=statistics.median(speed.kernel_s))
        attempted = sum(log.attempted for log in logs)
        failed = sum(log.failed + workload.check(state, log.ops, log.outputs)
                     for log in logs)
    finally:
        workload.teardown(state)
    context["failed_ratio"] = failed / attempted
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"python={context['python']} nproc={context['nproc']}")
    for m in spec:
        print(f"  {m['name']:<52} {values[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'failed_ratio':<52} {context['failed_ratio']:>14.6g} ({failed}/{attempted})")
    print(json.dumps(context))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    from workloads import WORKLOADS, run_child
    status = 0
    for name in WORKLOADS:
        proc = run_child([sys.executable, str(HERE / "run.py"), "--workload", name,
                          "--seed", str(args.seed), "--seconds", str(args.seconds),
                          "--trace", str(args.trace)], timeout=600)
        out = proc.stdout.decode()
        sys.stdout.write(out)
        sys.stderr.write(proc.stderr.decode())
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up and exit (times setup_s)")
    args = parser.parse_args(argv)
    try:
        load_program()
    except ImportError as e:
        print(f"perfbench: cannot load the program: {e}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
