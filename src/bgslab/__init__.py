"""Desk-scale laboratory for clocked polynomial Turing machines, SAT
counterexample search, and cutoff-machine embeddings."""

import sys as _sys

# Goedel numbers of compiled machines run to thousands of digits; lift
# CPython's int-to-str conversion guard so they can be printed and dumped.
if hasattr(_sys, "set_int_max_str_digits"):
    _sys.set_int_max_str_digits(2_000_000)

from .codec import (
    CODEC_VERSION,
    CnfFormula,
    decode_cnf,
    encode_cnf,
    from_dyadic,
    pair,
    seq_decode,
    seq_encode,
    to_dyadic,
    triple_decode,
    triple_encode,
    unpair,
)
from .machine import (
    BLANK,
    HALT,
    MACHINE_ENCODING_VERSION,
    ClockSpec,
    RunResult,
    Transition,
    TransitionTable,
    decode_machine,
    encode_machine,
    run,
    run_clocked,
)
from .sat import DeciderResult, decider, satisfiable_brute, verifier, verify_pair
from .bgs import BgsIndex, CounterexampleResult, CounterexampleStatus, ResultCache, counterexample
from .quasitrivial import (
    EmbeddingRecord,
    QuasiTrivialMachine,
    build_qt,
    embed,
    lemma_check,
    measure_b,
    predicted_least_counterexample,
    verify_crucial_step,
    verify_no_interrupt,
)

__version__ = "0.1.0"
