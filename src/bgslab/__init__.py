"""Desk-scale laboratory for clocked polynomial Turing machines, SAT
counterexample search, and cutoff-machine embeddings.

The package's names are exported lazily (PEP 562): `import bgslab` loads
no submodule, and each one is imported on the first use of one of its
names, so a command pays only for the modules it runs.
"""

import sys as _sys

# Goedel numbers of compiled machines run to thousands of digits; lift
# CPython's int-to-str conversion guard so they can be printed and dumped.
if hasattr(_sys, "set_int_max_str_digits"):
    _sys.set_int_max_str_digits(2_000_000)

__version__ = "0.1.0"

# exported name -> the submodule that defines it; a submodule maps to itself
_EXPORTS = {name: module for module, names in (
    ("codec", "codec CODEC_VERSION CnfFormula decode_cnf encode_cnf from_dyadic pair "
              "seq_decode seq_encode to_dyadic triple_decode triple_encode unpair"),
    ("machine", "machine BLANK HALT MACHINE_ENCODING_VERSION ClockSpec RunResult "
                "Transition TransitionTable decode_machine encode_machine run run_clocked"),
    ("sat", "sat DeciderResult decider satisfiable_brute verifier verify_pair"),
    ("bgs", "bgs BgsIndex CounterexampleResult CounterexampleStatus ResultCache "
            "counterexample"),
    ("quasitrivial", "quasitrivial EmbeddingRecord QuasiTrivialMachine build_qt embed "
                     "lemma_check measure_b predicted_least_counterexample "
                     "verify_crucial_step verify_no_interrupt"),
) for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        # `from bgslab import <submodule>` then imports the submodule itself
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    submodule = import_module(f"{__name__}.{module}")
    return submodule if module == name else getattr(submodule, name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
