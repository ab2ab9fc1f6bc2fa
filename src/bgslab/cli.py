"""Command-line front end.

Exit codes: 0 success, 1 a verification reported failure (or could not be
completed within the given budget), 2 usage or input errors.  All report
output is deterministic for a fixed configuration; wall-clock timings are
opt-in (`bgs scan --timings`) so that reports stay byte-identical across
runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import TYPE_CHECKING

from .codec import (
    CODEC_VERSION,
    decode_cnf,
    encode_cnf,
    pair,
    triple_decode,
    triple_encode,
    unpair,
)
from .config import OUTPUT_FORMATS, Config, load_config
from .machine import (
    MACHINE_ENCODING_VERSION,
    ClockSpec,
    MachineFormatError,
    format_machine_file,
    parse_machine_file,
    run,
    run_clocked,
)

if TYPE_CHECKING:  # for annotations; the handlers import it, so codec commands never load it
    from . import bgs

VERSION_TAGS = {
    "codecVersion": CODEC_VERSION,
    "machineEncodingVersion": MACHINE_ENCODING_VERSION,
}


class UsageError(Exception):
    pass


def _natural(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a natural number: {text}")
    return value


def _positive(text: str) -> int:
    value = _natural(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive number: {text}")
    return value


def _parse_clock(text: str) -> ClockSpec:
    try:
        a, b = (int(part) for part in text.split(","))
        return ClockSpec(a, b)
    except ValueError as e:
        raise argparse.ArgumentTypeError(
            f"bad clock spec {text!r} (expected A,B with A,B >= 1): {e}") from None


def _parse_range(text: str, limit: int) -> list[int]:
    """`A..B` inclusive, single values, and comma-separated unions; every
    value must be at most `limit`, checked before a range is expanded."""
    values: list[int] = []
    for part in text.split(","):
        part = part.strip()
        lo_raw, dots, hi_raw = part.partition("..")
        try:
            lo = int(lo_raw)
            hi = int(hi_raw) if dots else lo
        except ValueError:
            raise UsageError(f"bad range {part!r}") from None
        if lo < 0 or hi < lo:
            raise UsageError(f"bad range {part!r}")
        if hi > limit:
            raise UsageError(f"cutoff {hi} exceeds the limit {limit}")
        values.extend(range(lo, hi + 1))
    return values


def parse_dimacs(text: str) -> list[list[int]]:
    """Subset of DIMACS cnf: one `p cnf V C` header, one 0-terminated clause per line."""
    header: tuple[int, int] | None = None
    clauses: list[list[int]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if header is not None or len(parts) != 4 or parts[1] != "cnf":
                raise UsageError(f"bad DIMACS header: {line!r}")
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise UsageError(f"bad DIMACS header: {line!r}") from None
            if min(header) < 0:
                raise UsageError(f"bad DIMACS header: {line!r}")
            continue
        if header is None:
            raise UsageError("DIMACS clause before 'p cnf' header")
        try:
            tokens = [int(t) for t in line.split()]
        except ValueError:
            raise UsageError(f"bad DIMACS clause line: {line!r}") from None
        if not tokens or tokens[-1] != 0 or 0 in tokens[:-1]:
            raise UsageError(f"DIMACS clause must be terminated by a single 0: {line!r}")
        lits = tokens[:-1]
        clauses.append(lits)
    if header is None:
        raise UsageError("missing DIMACS header")
    var_limit, clause_count = header
    if len(clauses) != clause_count:
        raise UsageError(f"header promises {clause_count} clauses, found {len(clauses)}")
    for clause in clauses:
        for lit in clause:
            if abs(lit) > var_limit:
                raise UsageError(f"literal {lit} exceeds declared variable count {var_limit}")
    return clauses


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise UsageError(str(e)) from None


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _emit_report(report: dict, rows: list[dict], fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        import csv
        import io
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        if rows:
            keys = sorted(rows[0])
            writer.writerow(keys)
            for row in rows:
                writer.writerow([row[k] for k in keys])
        text = buf.getvalue()
    else:  # table
        lines = []
        if rows:
            keys = sorted(rows[0])
            widths = [max(len(k), *(len(str(r[k])) for r in rows)) for k in keys]
            lines.append("  ".join(k.ljust(w) for k, w in zip(keys, widths)))
            for row in rows:
                lines.append("  ".join(str(row[k]).ljust(w) for k, w in zip(keys, widths)))
        text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_cache(args, cfg: Config) -> tuple[bgs.ResultCache | None, str | None]:
    path = getattr(args, "cache", None) or cfg.cache_path
    if path is None:
        return None, None
    from . import bgs
    return bgs.ResultCache.load(path), path


# --- subcommands -------------------------------------------------------------

def cmd_pair(args, cfg):
    print(pair(args.x, args.y))
    return 0


def cmd_unpair(args, cfg):
    x, y = unpair(args.z)
    print(x, y)
    return 0


def cmd_triple(args, cfg):
    if args.decode is not None:
        if args.values:
            raise UsageError("got both --decode and positional values")
        m, a, b = triple_decode(args.decode)
        print(m, a, b)
    else:
        if len(args.values) != 3:
            raise UsageError("triple expects M A B (or --decode N)")
        print(triple_encode(*args.values))
    return 0


def cmd_cnf_encode(args, cfg):
    clauses = parse_dimacs(_read_text(args.dimacs))
    try:
        print(encode_cnf(clauses))
    except ValueError as e:
        raise UsageError(str(e)) from None
    return 0


def cmd_cnf_decode(args, cfg):
    formula = decode_cnf(args.x)
    if formula is None:
        _print_json({"x": args.x, "valid": False})
    else:
        _print_json({
            "x": args.x,
            "valid": True,
            "clauses": [list(c) for c in formula.clauses],
            "varCount": formula.var_count,
        })
    return 0


def cmd_run(args, cfg):
    try:
        table = parse_machine_file(_read_text(args.machine))
    except MachineFormatError as e:
        raise UsageError(f"bad machine file: {e}") from None
    on_step = None
    if args.trace:
        def on_step(step, state, head, symbol):
            print(f"step={step} state={state} head={head} read={'01_'[symbol]}",
                  file=sys.stderr)
    if args.clock is not None:
        result = run_clocked(table, args.clock, args.input, on_step)
    else:
        result = run(table, args.input, args.fuel, on_step)
    _print_json({
        "input": args.input,
        "output": result.output,
        "steps": result.steps,
        "interrupted": result.interrupted,
        "fuelExhausted": result.fuel_exhausted,
    })
    return 0


def cmd_sat_verify(args, cfg):
    from . import sat
    if args.z is not None:
        if args.x is not None or args.y is not None:
            raise UsageError("give either --z or both --x and --y")
        z = args.z
        x, y = unpair(z)
    else:
        if args.x is None or args.y is None:
            raise UsageError("give either --z or both --x and --y")
        x, y = args.x, args.y
        z = pair(x, y)
    _print_json({"z": z, "x": x, "y": y, "result": sat.verifier(z)})
    return 0


def cmd_sat_decide(args, cfg):
    from . import sat
    if (args.x is None) == (args.dimacs is None):
        raise UsageError("give exactly one of --x or --dimacs")
    if args.dimacs is not None:
        try:
            x = encode_cnf(parse_dimacs(_read_text(args.dimacs)))
        except ValueError as e:
            raise UsageError(str(e)) from None
    else:
        x = args.x
    formula = decode_cnf(x)
    var_count = formula.var_count if formula is not None else 0
    if var_count > cfg.var_count_max:
        raise UsageError(f"formula has {var_count} variables, configured limit is "
                         f"{cfg.var_count_max}")
    result = sat.decider(x)
    _print_json({
        "x": x,
        "varCount": var_count,
        "satisfiable": result.satisfiable,
        "witness": result.witness,
    })
    return 0


def cmd_bgs_run(args, cfg):
    from . import bgs
    index = bgs.BgsIndex.from_natural(args.index)
    result = bgs.bgs_run(index, args.input)
    _print_json({
        "n": index.n, "m": index.m, "a": index.a, "b": index.b,
        "input": args.input,
        "output": result.output,
        "steps": result.steps,
        "interrupted": result.interrupted,
    })
    return 0


def _counterexample_row(index: bgs.BgsIndex, result: bgs.CounterexampleResult) -> dict:
    row = {
        "n": index.n, "m": index.m, "a": index.a, "b": index.b,
        "status": result.status.value,
        "z": result.z,
        "x": unpair(result.z)[0] if result.z is not None else None,
        "scanned": result.scanned,
    }
    row.update(VERSION_TAGS)
    return row


def cmd_bgs_counterexample(args, cfg):
    from . import bgs
    cache, cache_path = _load_cache(args, cfg)
    budget = args.budget if args.budget is not None else cfg.budget_default
    index = bgs.BgsIndex.from_natural(args.index)
    result = bgs.counterexample(index, budget, cache)
    if cache is not None:
        cache.save(cache_path)
    row = _counterexample_row(index, result)
    row["budget"] = budget
    _print_json(row)
    return 0


def cmd_bgs_scan(args, cfg):
    from . import bgs
    if args.to < args.start:
        raise UsageError("--to must be >= --from")
    cache, cache_path = _load_cache(args, cfg)
    budget = args.budget if args.budget is not None else cfg.budget_default
    rows = []
    found = 0
    for n in range(args.start, args.to + 1):
        index = bgs.BgsIndex.from_natural(n)
        begin = time.monotonic() if args.timings else 0.0
        result = bgs.counterexample(index, budget, cache)
        row = _counterexample_row(index, result)
        if args.timings:
            row["millis"] = int((time.monotonic() - begin) * 1000)
        rows.append(row)
        found += 1 if result.found else 0
    if cache is not None:
        cache.save(cache_path)
    report = {
        "budget": budget,
        "rows": rows,
        "summary": {"found": found, "exhausted": len(rows) - found},
    }
    report.update(VERSION_TAGS)
    _emit_report(report, rows, args.format or cfg.output_format, args.out)
    return 0


def cmd_qt_build(args, cfg):
    from . import quasitrivial
    q = quasitrivial.build_qt(args.cutoff, k_max=cfg.k_max)
    text = format_machine_file(q.table)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        summary = {
            "k": q.k,
            "m": q.m,
            "stateCount": q.table.state_count,
            "transitionCount": len(q.table.transitions),
            "out": args.out,
        }
        summary.update(VERSION_TAGS)
        _print_json(summary)
    return 0


def cmd_qt_embed(args, cfg):
    from . import quasitrivial
    q = quasitrivial.build_qt(args.cutoff, k_max=cfg.k_max)
    record = quasitrivial.embed(q)
    row = {"k": record.k, "m": record.m, "b_m": record.b_m, "N": record.n}
    row.update(VERSION_TAGS)
    _print_json(row)
    return 0


def cmd_qt_verify(args, cfg):
    from . import quasitrivial
    cutoffs = _parse_range(args.cutoffs, cfg.k_max)
    cache, cache_path = _load_cache(args, cfg)
    checks = quasitrivial.lemma_check(cutoffs, budget=args.budget, cache=cache,
                                      k_max=cfg.k_max)
    if cache is not None:
        cache.save(cache_path)
    rows = []
    for row in checks:
        out = {
            "k": row.k, "m": row.m, "b_m": row.b_m, "N": row.n,
            "status": row.status, "z": row.z, "zPred": row.z_pred,
            "pass": row.passed,
        }
        out.update(VERSION_TAGS)
        rows.append(out)
    failures = [r for r in checks if not r.passed]
    report = {
        "rows": rows,
        "summary": {"passed": len(checks) - len(failures), "failed": len(failures)},
    }
    report.update(VERSION_TAGS)
    _emit_report(report, rows, args.format or cfg.output_format, args.out)
    if failures:
        for row in failures:
            print(f"cutoff {row.k}: z={row.z} zPred={row.z_pred} "
                  f"no_interrupt={row.no_interrupt} restriction={row.restriction_equal}",
                  file=sys.stderr)
        return 1
    return 0


# --- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgslab",
        description="Clocked polynomial machines, SAT counterexample search, "
                    "and cutoff-machine embeddings, at desk scale.")
    parser.add_argument("--config", help="flat key=value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pair", help="Cantor-pair two naturals")
    p.add_argument("x", type=_natural)
    p.add_argument("y", type=_natural)
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("unpair", help="invert the pairing")
    p.add_argument("z", type=_natural)
    p.set_defaults(func=cmd_unpair)

    p = sub.add_parser("triple", help="encode M A B as an index, or --decode N")
    p.add_argument("values", type=_natural, nargs="*")
    p.add_argument("--decode", type=_natural, metavar="N")
    p.set_defaults(func=cmd_triple)

    p = sub.add_parser("cnf-encode", help="encode a DIMACS-subset file as a natural")
    p.add_argument("--dimacs", default="-", metavar="FILE",
                   help="input file, '-' for stdin (default)")
    p.set_defaults(func=cmd_cnf_encode)

    p = sub.add_parser("cnf-decode", help="decode a natural as a CNF formula")
    p.add_argument("x", type=_natural)
    p.set_defaults(func=cmd_cnf_decode)

    p = sub.add_parser("run", help="run a machine file on an input")
    p.add_argument("--machine", required=True, metavar="FILE")
    p.add_argument("--input", required=True, type=_natural, metavar="N")
    p.add_argument("--clock", type=_parse_clock, metavar="A,B")
    p.add_argument("--fuel", type=_positive, default=1_000_000, metavar="F")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sat", help="verifier and truth-table decider")
    satsub = p.add_subparsers(dest="sat_command", required=True)
    v = satsub.add_parser("verify", help="V(z) or V(pair(x, y))")
    v.add_argument("--z", type=_natural)
    v.add_argument("--x", type=_natural)
    v.add_argument("--y", type=_natural)
    v.set_defaults(func=cmd_sat_verify)
    d = satsub.add_parser("decide", help="least satisfying assignment of a formula")
    d.add_argument("--x", type=_natural)
    d.add_argument("--dimacs", metavar="FILE")
    d.set_defaults(func=cmd_sat_decide)

    p = sub.add_parser("bgs", help="clocked-pair set operations")
    bgssub = p.add_subparsers(dest="bgs_command", required=True)
    r = bgssub.add_parser("run", help="run the indexed machine-clock pair")
    r.add_argument("--index", required=True, type=_natural, metavar="N")
    r.add_argument("--input", required=True, type=_natural, metavar="X")
    r.set_defaults(func=cmd_bgs_run)
    c = bgssub.add_parser("counterexample", help="least failing pair, budgeted")
    c.add_argument("--index", required=True, type=_natural, metavar="N")
    c.add_argument("--budget", type=_positive, metavar="B")
    c.add_argument("--cache", metavar="FILE")
    c.set_defaults(func=cmd_bgs_counterexample)
    s = bgssub.add_parser("scan", help="counterexample search over an index range")
    s.add_argument("--from", dest="start", required=True, type=_natural, metavar="N0")
    s.add_argument("--to", required=True, type=_natural, metavar="N1")
    s.add_argument("--budget", type=_positive, metavar="B")
    s.add_argument("--cache", metavar="FILE")
    s.add_argument("--out", metavar="FILE")
    s.add_argument("--format", choices=OUTPUT_FORMATS,
                   help="report output format (default from config)")
    s.add_argument("--timings", action="store_true",
                   help="include wall-clock millis per row (breaks byte-identical reports)")
    s.set_defaults(func=cmd_bgs_scan)

    p = sub.add_parser("qt", help="cutoff machines and the lemma pipeline")
    qtsub = p.add_subparsers(dest="qt_command", required=True)
    b = qtsub.add_parser("build", help="compile a cutoff machine")
    b.add_argument("--cutoff", required=True, type=_natural, metavar="K")
    b.add_argument("--out", metavar="FILE")
    b.set_defaults(func=cmd_qt_build)
    e = qtsub.add_parser("embed", help="index the cutoff machine as <m, 2, b_m>")
    e.add_argument("--cutoff", required=True, type=_natural, metavar="K")
    e.set_defaults(func=cmd_qt_embed)
    q = qtsub.add_parser("verify", help="full pipeline checks per cutoff")
    q.add_argument("--cutoffs", required=True, metavar="A..B")
    q.add_argument("--budget", type=_positive, metavar="B",
                   help="scan budget (default: derived from the oracle)")
    q.add_argument("--cache", metavar="FILE")
    q.add_argument("--out", metavar="FILE")
    q.add_argument("--format", choices=OUTPUT_FORMATS,
                   help="report output format (default from config)")
    q.set_defaults(func=cmd_qt_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (OSError, ValueError) as e:
        print(f"bgslab: config error: {e}", file=sys.stderr)
        return 2
    try:
        return args.func(args, cfg)
    except (UsageError, OSError, *_loaded_errors("sat", "WidthExceededError"),
            *_loaded_errors("quasitrivial", "CutoffTooLargeError")) as e:
        # OSError: a cache or report file that cannot be written
        print(f"bgslab: {e}", file=sys.stderr)
        return 2
    except _loaded_errors("quasitrivial", "BudgetTooSmallError") as e:
        print(f"bgslab: {e}", file=sys.stderr)
        return 1


def _loaded_errors(module: str, *names: str) -> tuple[type[Exception], ...]:
    """The named exception classes of the submodule `module`, or none when
    no command loaded it, in which case none of them can have been raised."""
    loaded = sys.modules.get(f"{__package__}.{module}")
    return () if loaded is None else tuple(getattr(loaded, name) for name in names)


if __name__ == "__main__":
    sys.exit(main())
