"""Host-speed correction for the benchmark's timings.

The benchmark runs on shared machines whose speed per instruction moves
by 20-60% within a second and between minutes, as other tenants load the
same cores; CPU time moves with wall time, so neither hides it. To keep
runs of the same code comparable, a fixed pure-Python reference loop
(``reference``, independent of nmcg) is timed between items, and every
item time is scaled by ``REF_NOMINAL_S / local reference time``. The
reported times are therefore seconds at a fixed reference speed: a
change to nmcg moves them as it moves wall time, a change of host speed
does not. The raw wall times are printed next to them.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# The reference loop's time at the reference speed: a round figure near
# its time on a 2-core x86-64 VM under Python 3.11. Only the ratio to the
# measured time matters; the constant sets the scale.
REF_NOMINAL_S = 0.0005
REF_ROUNDS = 16  # substitution rounds per reference sample
WINDOW = 4  # latest samples whose median sets the item limit

# Images of x1..x4 under a fixed automorphism-like substitution.
_TABLE = {1: (1, 2, -1), 2: (2, 3), 3: (-4, 3, 4), 4: (4, 1)}
_TABLE.update({-k: tuple(-c for c in reversed(v)) for k, v in list(_TABLE.items())})


def reference() -> int:
    """Substitute and freely reduce a word a fixed number of times: the
    tuple, dict and stack work that nmcg's word code does."""
    word = (1, 2, 3, 4, -1, -2)
    for _ in range(REF_ROUNDS):
        out = []
        for c in word:
            for d in _TABLE[c]:
                if out and out[-1] == -d:
                    out.pop()
                else:
                    out.append(d)
        word = tuple(out[:96])
    return len(word)


def sample() -> float:
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


def factor(samples) -> float:
    """Scale from raw seconds to reference seconds, from nearby samples."""
    return REF_NOMINAL_S / statistics.median(samples)


def samples(n: int = WINDOW) -> list:
    return [sample() for _ in range(n)]
