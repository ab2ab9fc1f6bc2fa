"""The literal least-counterexample search, as defined, for output checks.

No memo, no cache and no shortcut: walk z = 0, 1, 2, ... in order and
return the first z = pair(x, y) with V(z) = 1 whose indexed machine output
o on x has V(pair(x, o)) = 0.  It shares nothing with `bgslab.bgs` beyond
the definitions of V and of the clocked run.
"""

from bgslab.codec import pair, triple_decode, unpair
from bgslab.machine import ClockSpec, decode_machine, run_clocked
from bgslab.sat import verifier


def least_counterexample(n: int, budget: int) -> int | None:
    """Least failing z below `budget` for index n, or None when there is none."""
    m, a, b = triple_decode(n)
    table = decode_machine(m)
    clock = ClockSpec(max(a, 1), max(b, 1))  # zeros are lifted, as for every index
    for z in range(budget):
        if verifier(z) != 1:
            continue
        x, _ = unpair(z)
        output = run_clocked(table, clock, x).output
        if verifier(pair(x, output)) != 1:
            return z
    return None
