"""A command loads only what it runs: `import bgslab` loads no submodule,
the package's names resolve lazily to the same objects as before, a
cache probe loads neither the cutoff-machine module nor `logging` or
`csv`, no command loads `dataclasses` or the modules it imports, and
only the decoding of a Goedel number past CPython's default digit limit
loads the big-integer layer."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bgslab

SRC = str(Path(bgslab.__file__).resolve().parent.parent)

# every name the package bound when it imported all of its submodules
# eagerly, by defining module; "bgslab" is the package itself
OLD_NAMES = {
    "bgslab": ["__version__", "codec", "machine", "sat", "bgs", "quasitrivial"],
    "bgslab.codec": [
        "CODEC_VERSION", "CnfFormula", "decode_cnf", "encode_cnf", "from_dyadic", "pair",
        "seq_decode", "seq_encode", "to_dyadic", "triple_decode", "triple_encode", "unpair"],
    "bgslab.machine": [
        "BLANK", "HALT", "MACHINE_ENCODING_VERSION", "ClockSpec", "RunResult", "Transition",
        "TransitionTable", "decode_machine", "encode_machine", "run", "run_clocked"],
    "bgslab.sat": ["DeciderResult", "decider", "satisfiable_brute", "verifier", "verify_pair"],
    "bgslab.bgs": ["BgsIndex", "CounterexampleResult", "CounterexampleStatus", "ResultCache",
                   "counterexample"],
    "bgslab.quasitrivial": [
        "EmbeddingRecord", "QuasiTrivialMachine", "build_qt", "embed", "lemma_check",
        "measure_b", "predicted_least_counterexample", "verify_crucial_step",
        "verify_no_interrupt"],
}

HEAVY = ("bgslab.quasitrivial", "logging", "csv")

# what `import dataclasses` loads; the package declares no dataclass
DATACLASSES = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def defined(module_name: str, name: str):
    """The object that name denotes in its defining module."""
    if module_name == "bgslab" and name != "__version__":
        return sys.modules[f"bgslab.{name}"]
    return getattr(sys.modules[module_name], name)


@pytest.mark.parametrize("module_name,name", [
    (module_name, name) for module_name, names in OLD_NAMES.items() for name in names])
def test_every_old_name_resolves_to_its_defining_object(module_name, name):
    namespace: dict = {}
    exec(f"from bgslab import {name}", namespace)
    got = getattr(bgslab, name)
    want = defined(module_name, name)
    assert got is want and namespace[name] is want
    assert name in dir(bgslab)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(bgslab, "no_such_name")


def loaded_by(code: str, cwd) -> list[str]:
    """The modules that running code loads in a fresh interpreter, beyond
    those loaded at interpreter start."""
    script = ("import sys\nbefore = set(sys.modules)\n" + code
              + "\nprint(' '.join(sorted(set(sys.modules) - before)))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout.splitlines()[-1].split()


def test_importing_the_package_loads_no_submodule(tmp_path):
    loaded = loaded_by("import bgslab", tmp_path)
    assert "bgslab" in loaded
    assert [m for m in loaded if m.startswith("bgslab.")] == []


def test_a_name_loads_only_its_defining_modules(tmp_path):
    loaded = loaded_by("import bgslab\nassert bgslab.pair(7, 11) == 182\n"
                       "from bgslab import codec\nassert codec is sys.modules['bgslab.codec']",
                       tmp_path)
    assert [m for m in loaded if m.startswith("bgslab.")] == ["bgslab.codec"]
    loaded = loaded_by("from bgslab import quasitrivial, lemma_check\n"
                       "assert lemma_check is quasitrivial.lemma_check", tmp_path)
    assert "bgslab.quasitrivial" in loaded


def cli_run(argv: list[str], exit_code: int = 0) -> str:
    return f"from bgslab import cli\nassert cli.main({argv!r}) == {exit_code}"


@pytest.mark.parametrize("commands,unloaded", [
    # a codec command needs neither the search nor the SAT layer
    ([["pair", "7", "11"]], (*HEAVY, "bgslab.bgs", "bgslab.sat", "heapq")),
    # a write, a resume from that write's exhausted bound, then a hit
    ([["bgs", "counterexample", "--index", "17", "--budget", str(budget), "--cache", "c.json"]
      for budget in (50, 200, 200)], HEAVY),
], ids=["pair", "cache probes"])
def test_a_probe_loads_no_cutoff_machines_logging_or_csv(tmp_path, commands, unloaded):
    for argv in commands:
        loaded = loaded_by(cli_run(argv), tmp_path)
        assert "bgslab.cli" in loaded
        assert [m for m in unloaded if m in loaded] == []


@pytest.mark.parametrize("commands", [
    [["pair", "7", "11"]],
    [["bgs", "counterexample", "--index", "17", "--budget", str(budget), "--cache", "c.json"]
     for budget in (50, 200, 200)],
    [["qt", "verify", "--cutoffs", "0..2"]],
], ids=["pair", "cache probes", "qt verify"])
def test_no_command_loads_dataclasses(tmp_path, commands):
    for argv in commands:
        loaded = loaded_by(cli_run(argv), tmp_path)
        assert "bgslab.cli" in loaded
        assert [m for m in DATACLASSES if m in loaded] == []


@pytest.mark.parametrize("commands", [
    [["pair", "7", "11"]],
    [["bgs", "counterexample", "--index", "17", "--budget", str(budget), "--cache", "c.json"]
     for budget in (50, 200, 200)],
    [["bgs", "scan", "--from", "0", "--to", "300", "--budget", "2000"]],
], ids=["pair", "cache probes", "bgs scan"])
def test_small_numbers_never_load_the_big_integer_layer(tmp_path, commands):
    for argv in commands:
        loaded = loaded_by(cli_run(argv), tmp_path)
        assert "bgslab.cli" in loaded and "bgslab.bigint" not in loaded


def test_a_large_index_decodes_without_the_big_integer_layer(tmp_path):
    n = bgslab.triple_encode(3 ** 20_000, 2, 5)
    loaded = loaded_by(cli_run(["triple", "--decode", str(n)]), tmp_path)
    assert "bgslab.cli" in loaded and "bgslab.bigint" not in loaded


def test_encoding_never_loads_the_big_integer_layer(tmp_path):
    # the cutoff-64 machine has 5647 base-3 digits, past the default limit
    (tmp_path / "bgslab.conf").write_text("k_max=64\n")
    argv = ["--config", "bgslab.conf", "qt", "build", "--cutoff", "64", "--out", "m.tm"]
    loaded = loaded_by(cli_run(argv), tmp_path)
    assert "bgslab.cli" in loaded and "bgslab.bigint" not in loaded


@pytest.mark.parametrize("cutoff,big", [(62, False), (63, True)])
def test_only_a_goedel_number_past_the_default_digit_limit_loads_the_big_integer_layer(
        tmp_path, cutoff, big):
    # the cutoff-62 machine has 2978 base-3 digits, the cutoff-63 one 5634;
    # qt verify decodes the machine for its search, where qt build only encodes
    (tmp_path / "bgslab.conf").write_text("k_max=64\n")
    argv = ["--config", "bgslab.conf", "qt", "verify", "--cutoffs", f"{cutoff}..{cutoff}"]
    loaded = loaded_by(cli_run(argv), tmp_path)
    assert "bgslab.cli" in loaded and ("bgslab.bigint" in loaded) == big


def test_an_unwritable_cache_exits_two_without_loading_cutoff_machines(tmp_path):
    argv = ["bgs", "counterexample", "--index", "17", "--budget", "100",
            "--cache", "nodir/c.json"]
    loaded = loaded_by(cli_run(argv, exit_code=2), tmp_path)
    assert "bgslab.quasitrivial" not in loaded
