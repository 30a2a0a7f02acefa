"""Reference kernel: a fixed amount of pure-Python work that tracks host speed.

On a shared host (a 2-vCPU VM, say) the speed of a Python process can
drift by a quarter within seconds and stay off for a minute at a time.
Timing this kernel right before and right after each command gives the
host's speed at that moment, and run.py scales the command's wall time by
it.

The kernel is fraction-free sparse integer elimination on a matrix drawn
from a fixed seed, the kind of arithmetic and dict traffic gradedlie's own
exact elimination does, but written here so that no change to the program
can change it.  It never depends on --seed.
"""

import gc
import random
from math import gcd
from time import perf_counter

SIZE = 85  # columns; about 0.1 s on a 2-vCPU Xeon VM with Python 3.11
NOMINAL_S = 0.1  # the kernel's time at the speed norm_wall_s is expressed in


def _matrix():
    rng = random.Random(20231003)
    return [{c: rng.randint(-9, 9) or 1 for c in rng.sample(range(SIZE), 6)}
            for _ in range(2 * SIZE)]


def kernel(rows) -> int:
    """Eliminate `rows` in place, pivoting on the shortest entry; the rank."""
    used: set[int] = set()
    for col in range(SIZE):
        cands = [r for r, row in enumerate(rows) if r not in used and col in row]
        if not cands:
            continue
        p = min(cands, key=lambda r: (abs(rows[r][col]).bit_length(), r))
        used.add(p)
        pivot, a = rows[p], rows[p][col]
        for r in cands:
            if r == p:
                continue
            target = rows[r]
            b = target.pop(col)
            for c in target:
                target[c] *= a
            for c, v in pivot.items():
                if c == col:
                    continue
                nv = target.get(c, 0) - b * v
                if nv:
                    target[c] = nv
                elif c in target:
                    del target[c]
            if target:
                g = gcd(*target.values())
                if g > 1:
                    for c in target:
                        target[c] //= g
    return len(used)


RANK = kernel(_matrix())


def seconds() -> float:
    """Time of one kernel run, with the garbage collector off so that the
    program's heap does not enter it."""
    rows = _matrix()
    gc.disable()
    try:
        start = perf_counter()
        rank = kernel(rows)
        elapsed = perf_counter() - start
    finally:
        gc.enable()
    if rank != RANK:
        raise RuntimeError(f"reference kernel rank {rank}, expected {RANK}")
    return elapsed


class Speed:
    """Scales wall times of timed steps (commands, set-up probes) to the
    speed at which the kernel takes NOMINAL_S, using the kernel timed right
    before and right after each step.  Back-to-back steps share the kernel
    time between them."""

    def __init__(self):
        self.before = None

    def start(self):
        """Call before a step: times the kernel unless the one timed after
        the previous step still stands."""
        if self.before is None:
            self.before = seconds()

    def scale(self, wall: float) -> float:
        """Call right after a step, with its wall time: the time scaled."""
        after = seconds()
        scaled = wall * NOMINAL_S / ((self.before + after) / 2)
        self.before = after
        return scaled
