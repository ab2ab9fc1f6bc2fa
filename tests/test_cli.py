"""Integration tests: every subcommand once, against golden output files."""

import json
import pathlib
import subprocess
import sys

import pytest

from bgslab import cli, quasitrivial
from bgslab.config import Config, load_config

GOLDEN = pathlib.Path(__file__).parent / "golden"

DIMACS_TWO_CLAUSE = "c fixture\np cnf 2 2\n1 -2 0\n2 0\n"


def run_cli(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.mark.parametrize("golden_name,argv", [
    ("pair_0_0.txt", ["pair", "0", "0"]),
    ("unpair_8.txt", ["unpair", "8"]),
    ("triple_3_2_5.txt", ["triple", "3", "2", "5"]),
    ("triple_decode_699.txt", ["triple", "--decode", "699"]),
    ("cnf_decode_32708.json", ["cnf-decode", "32708"]),
    ("sat_verify_z0.json", ["sat", "verify", "--z", "0"]),
    ("sat_decide_32708.json", ["sat", "decide", "--x", "32708"]),
    ("bgs_run_17_11.json", ["bgs", "run", "--index", "17", "--input", "11"]),
    ("bgs_counterexample_17.json",
     ["bgs", "counterexample", "--index", "17", "--budget", "200"]),
    ("bgs_scan_15_18.csv",
     ["bgs", "scan", "--from", "15", "--to", "18", "--budget", "120", "--format", "csv"]),
    ("bgs_scan_15_16.json",
     ["bgs", "scan", "--from", "15", "--to", "16", "--budget", "120"]),
    ("qt_build_3.tm", ["qt", "build", "--cutoff", "3"]),
    ("qt_embed_2.json", ["qt", "embed", "--cutoff", "2"]),
    ("qt_verify_0_2.json", ["qt", "verify", "--cutoffs", "0..2"]),
])
def test_subcommand_matches_golden(capsys, golden_name, argv):
    rc, out, _ = run_cli(capsys, argv)
    assert rc == 0
    assert out == (GOLDEN / golden_name).read_text(encoding="utf-8")


def test_qt_verify_at_the_config_ceiling_matches_golden(capsys, tmp_path):
    config = tmp_path / "bgslab.conf"
    config.write_text("k_max=64\n")
    rc, out, _ = run_cli(capsys, ["--config", str(config), "qt", "verify",
                                  "--cutoffs", "60..64", "--format", "csv"])
    assert rc == 0
    assert out == (GOLDEN / "qt_verify_60_64.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize("golden_name,extra", [
    ("run_trace_29.txt", []),
    ("run_trace_29_clock_1_1.txt", ["--clock", "1,1"]),  # interrupted after 5 steps
])
def test_run_trace_matches_golden(capsys, tmp_path, golden_name, extra):
    # the cutoff-29 machine writes witness 1 back for input 29, walking left
    # into cell 0
    machine = tmp_path / "m.tm"
    assert cli.main(["qt", "build", "--cutoff", "29", "--out", str(machine)]) == 0
    capsys.readouterr()
    rc, _, err = run_cli(capsys, ["run", "--machine", str(machine), "--input", "29",
                                  "--trace"] + extra)
    assert rc == 0
    assert err == (GOLDEN / golden_name).read_text(encoding="utf-8")


def test_cnf_encode_from_dimacs_file(capsys, tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text(DIMACS_TWO_CLAUSE)
    rc, out, _ = run_cli(capsys, ["cnf-encode", "--dimacs", str(path)])
    assert rc == 0 and out == "32708\n"


def test_sat_decide_from_dimacs_file(capsys, tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text(DIMACS_TWO_CLAUSE)
    rc, out, _ = run_cli(capsys, ["sat", "decide", "--dimacs", str(path)])
    assert rc == 0
    assert json.loads(out) == {"x": 32708, "varCount": 2, "satisfiable": True,
                               "witness": 6}


def test_run_subcommand_with_machine_file(capsys, tmp_path):
    machine = tmp_path / "m.tm"
    rc, out, _ = run_cli(capsys, ["qt", "build", "--cutoff", "0", "--out", str(machine)])
    assert rc == 0 and json.loads(out)["stateCount"] == 2
    rc, out, _ = run_cli(capsys, ["run", "--machine", str(machine), "--input", "5"])
    assert rc == 0
    assert json.loads(out) == {"input": 5, "output": 0, "steps": 2,
                               "interrupted": False, "fuelExhausted": False}
    rc, out, _ = run_cli(capsys, ["run", "--machine", str(machine), "--input", "5",
                                  "--clock", "2,2"])
    assert json.loads(out)["interrupted"] is False


def test_trace_goes_to_stderr(capsys, tmp_path):
    machine = tmp_path / "m.tm"
    run_cli(capsys, ["qt", "build", "--cutoff", "0", "--out", str(machine)])
    rc, out, err = run_cli(capsys, ["run", "--machine", str(machine), "--input", "3",
                                    "--trace"])
    assert rc == 0
    assert "step=0 state=0 head=0" in err
    assert "step=" not in out


# --- exit codes --------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["bgs", "counterexample", "--index"],
    ["run", "--machine", "m.tm", "--input", "0", "--clock", "0,1"],
    ["run", "--machine", "m.tm", "--input", "0", "--clock", "abc"],
    ["qt", "verify", "--cutoffs", "0..2", "--window", "200"],
])
def test_usage_error_exits_two(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["bgs", "scan", "--from", "5", "--to", "3"],
    ["qt", "verify", "--cutoffs", "5..3"],
])
def test_a_usage_error_is_reported_before_the_cache_is_read(tmp_path, argv):
    cache = tmp_path / "cache.json"
    cache.write_text("not json")
    proc = subprocess.run([sys.executable, "-m", "bgslab", *argv, "--cache", str(cache)],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert cache.read_text() == "not json"


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_dimacs_exits_two(capsys, tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text("1 -2 0\n")  # clause before header
    rc, _, err = run_cli(capsys, ["cnf-encode", "--dimacs", str(path)])
    assert rc == 2 and "header" in err


def test_dimacs_clause_count_mismatch_exits_two(capsys, tmp_path):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 2 3\n1 0\n")
    rc, _, err = run_cli(capsys, ["cnf-encode", "--dimacs", str(path)])
    assert rc == 2 and "promises" in err


@pytest.mark.parametrize("text", [
    "p cnf -1 0\n",
    "p cnf -2 1\n0\n",  # an empty clause mentions no variable to check against V
    "p cnf 1 -1\n",
])
def test_a_negative_dimacs_count_exits_two(capsys, tmp_path, text):
    path = tmp_path / "f.cnf"
    path.write_text(text)
    rc, out, err = run_cli(capsys, ["cnf-encode", "--dimacs", str(path)])
    assert rc == 2 and out == "" and "bad DIMACS header" in err


def test_a_second_dimacs_header_exits_two(capsys, tmp_path):
    # the literal 1 fits only the second header, which must not replace the first
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 0 1\n1 0\np cnf 1 1\n")
    rc, out, err = run_cli(capsys, ["cnf-encode", "--dimacs", str(path)])
    assert rc == 2 and out == "" and "bad DIMACS header: 'p cnf 1 1'" in err


def test_missing_machine_file_exits_two(capsys):
    rc, _, err = run_cli(capsys, ["run", "--machine", "/nonexistent.tm", "--input", "0"])
    assert rc == 2


def test_cutoff_range_is_bounded_before_expansion(capsys):
    rc, out, err = run_cli(capsys, ["qt", "verify", "--cutoffs", f"0..{10**30}"])
    assert rc == 2 and out == ""
    assert err == f"bgslab: cutoff {10**30} exceeds the limit 32\n"


def test_budget_too_small_exits_one(capsys):
    rc, _, err = run_cli(capsys, ["qt", "verify", "--cutoffs", "0", "--budget", "10"])
    assert rc == 1 and "exhausted" in err


def test_failed_verification_exits_one(capsys, monkeypatch):
    # force a mismatch between the scan and the oracle's prediction
    real = quasitrivial.predicted_least_counterexample
    monkeypatch.setattr(quasitrivial, "predicted_least_counterexample",
                        lambda k, **kw: real(k) + 7)
    rc, out, err = run_cli(capsys, ["qt", "verify", "--cutoffs", "0"])
    assert rc == 1
    assert json.loads(out)["summary"]["failed"] == 1
    assert "zPred" in err


def test_var_count_limit_enforced(capsys, tmp_path):
    config = tmp_path / "bgslab.conf"
    config.write_text("var_count_max=1\n")
    rc, _, err = run_cli(capsys, ["--config", str(config),
                                  "sat", "decide", "--x", "32708"])
    assert rc == 2 and "variables" in err


# --- determinism -------------------------------------------------------------

def test_qt_verify_reports_are_byte_identical(capsys, tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["qt", "verify", "--cutoffs", "0..2", "--out", str(first)]) == 0
    assert cli.main(["qt", "verify", "--cutoffs", "0..2", "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_scan_cold_and_warm_reports_are_byte_identical(capsys, tmp_path):
    cache = tmp_path / "cache.json"
    cold, warm = tmp_path / "cold.json", tmp_path / "warm.json"
    argv = ["bgs", "scan", "--from", "15", "--to", "20", "--budget", "150",
            "--cache", str(cache)]
    assert cli.main(argv + ["--out", str(cold)]) == 0
    assert cache.exists()
    assert cli.main(argv + ["--out", str(warm)]) == 0
    capsys.readouterr()
    assert cold.read_bytes() == warm.read_bytes()


def test_scan_cache_file_matches_golden(capsys, tmp_path):
    cache = tmp_path / "cache.json"
    assert cli.main(["bgs", "scan", "--from", "15", "--to", "18", "--cache", str(cache)]) == 0
    capsys.readouterr()
    assert cache.read_bytes() == (GOLDEN / "cache_scan_15_18.json").read_bytes()


def test_a_cache_hit_leaves_the_file_untouched(capsys, tmp_path):
    cache = tmp_path / "cache.json"
    argv = ["bgs", "counterexample", "--budget", "150", "--cache", str(cache), "--index"]
    assert cli.main(argv + ["17"]) == 0
    before = cache.read_bytes(), cache.stat()
    assert cli.main(argv + ["17"]) == 0  # a hit
    after = cache.read_bytes(), cache.stat()
    assert after[0] == before[0]
    assert (after[1].st_ino, after[1].st_mtime_ns) == (before[1].st_ino, before[1].st_mtime_ns)
    assert cli.main(argv + ["18"]) == 0  # a miss
    capsys.readouterr()
    assert json.loads(cache.read_text())["entries"] == {
        "17": {"status": "found", "z": 93}, "18": {"status": "found", "z": 93}}


def test_a_malformed_cache_is_searched_afresh(capsys, tmp_path):
    cache = tmp_path / "cache.json"
    cache.write_text(json.dumps({
        "codec_version": cli.CODEC_VERSION,
        "machine_encoding_version": cli.MACHINE_ENCODING_VERSION,
        "entries": {"7": {"status": "found", "z": -3}}}))
    rc, out, _ = run_cli(capsys, ["bgs", "counterexample", "--index", "7",
                                  "--cache", str(cache)])
    assert rc == 0
    _, fresh, _ = run_cli(capsys, ["bgs", "counterexample", "--index", "7"])
    assert out == fresh


@pytest.mark.parametrize("argv", [
    ["bgs", "counterexample", "--index", "17", "--cache", "nodir/c.json"],
    ["bgs", "scan", "--from", "0", "--to", "3", "--out", "nodir/o.json"],
])
def test_an_unwritable_output_file_exits_two(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    rc, _, err = run_cli(capsys, argv)
    assert rc == 2
    assert err.startswith("bgslab: ") and err.count("\n") == 1 and "nodir" in err


def test_an_unwritable_cache_is_named_as_given(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc, _, err = run_cli(capsys, ["bgs", "counterexample", "--index", "17",
                                  "--cache", "nodir/c.json"])
    assert rc == 2
    assert err == "bgslab: [Errno 2] No such file or directory: 'nodir/c.json'\n"
    assert list(tmp_path.iterdir()) == []


def test_timings_flag_adds_millis(capsys):
    rc, out, _ = run_cli(capsys, ["bgs", "scan", "--from", "15", "--to", "15",
                                  "--budget", "100", "--timings"])
    assert rc == 0
    assert all("millis" in row for row in json.loads(out)["rows"])


# --- config ------------------------------------------------------------------

def test_config_file_sets_budget_default(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("BGSLAB_CACHE", raising=False)
    config = tmp_path / "bgslab.conf"
    cache = tmp_path / "a#b.json"  # a '#' inside a token is not a comment
    config.write_text(f"# comment\nbudget_default=120  # inline\ncache_path={cache}  # c\n")
    rc, out, _ = run_cli(capsys, ["--config", str(config),
                                  "bgs", "counterexample", "--index", "17"])
    assert rc == 0 and json.loads(out)["budget"] == 120
    assert cache.exists()
    # the README's example configuration loads exactly as written
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Configuration", 1)[1].split("```\n", 2)[1]
    example = tmp_path / "readme.conf"
    example.write_text(block)
    assert load_config(str(example), env={}) == Config(
        budget_default=10000, k_max=32, var_count_max=20,
        cache_path="/tmp/bgslab-cache.json", output_format="json")


@pytest.mark.parametrize("line", ["cache_path=\n", "cache_path=  # no cache\n"])
def test_an_empty_cache_path_runs_without_a_cache(capsys, tmp_path, monkeypatch, line):
    monkeypatch.delenv("BGSLAB_CACHE", raising=False)
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "bgslab.conf"
    config.write_text(line)
    rc, out, err = run_cli(capsys, ["--config", str(config),
                                    "bgs", "counterexample", "--index", "17", "--budget", "100"])
    assert rc == 0 and err == "" and json.loads(out)["z"] == 93
    assert [p.name for p in tmp_path.iterdir()] == ["bgslab.conf"]


def test_bad_config_exits_two(capsys, tmp_path):
    config = tmp_path / "bgslab.conf"
    config.write_text("k_max=100\n")
    rc, _, err = run_cli(capsys, ["--config", str(config), "pair", "0", "0"])
    assert rc == 2 and "k_max" in err


@pytest.mark.parametrize("content,message", [
    (b"k_max=abc\n", "line 1: k_max must be an integer, not 'abc'"),
    (b"# limits\nk_max=7\nbudget_default=\n", "line 3: budget_default must be an integer, not ''"),
    (b"k_max=7\r\ncache_path=/tmp/\xff.json\n",
     "line 2: the value of cache_path is not UTF-8 text (byte 0xff)"),
    (b"k_max=7\rbudget_default=5\rcache_path=/tmp/\xff.json\r",
     "line 3: the value of cache_path is not UTF-8 text (byte 0xff)"),
    (b"k_max=7\n\xffk_max=3\n", "line 2: the line is not UTF-8 text (byte 0xff)"),
    (b"k_max=100\n", "line 1: k_max must be between 0 and 64"),
], ids=["not-a-number", "empty", "not-utf8", "not-utf8-cr", "not-utf8-key", "out-of-range"])
def test_a_bad_config_value_names_file_line_and_key(capsys, tmp_path, content, message):
    config = tmp_path / "bgslab.conf"
    config.write_bytes(content)
    rc, out, err = run_cli(capsys, ["--config", str(config), "pair", "0", "0"])
    assert rc == 2 and out == ""
    assert err == f"bgslab: config error: {config}, {message}\n"


def test_env_cache_override(capsys, tmp_path, monkeypatch):
    cache = tmp_path / "envcache.json"
    monkeypatch.setenv("BGSLAB_CACHE", str(cache))
    rc, _, _ = run_cli(capsys, ["bgs", "counterexample", "--index", "17",
                                "--budget", "150"])
    assert rc == 0 and cache.exists()
    data = json.loads(cache.read_text())
    assert data["entries"]["17"] == {"status": "found", "z": 93}


# --- installed entry point ---------------------------------------------------

def test_module_entry_point_smoke():
    proc = subprocess.run([sys.executable, "-m", "bgslab", "pair", "7", "11"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "182"
