"""How fast the machine runs right now, read from a fixed block of work.

On a shared virtual machine the processor's speed can change by a third
within a minute, because other machines' work runs on the same cores.  No
clock removes that: CPU time slows down with it.  So the benchmark runs a
fixed block of pure-Python work (dictionary updates, small and large integer
arithmetic, like the program's own) before and after every measured piece of
work, and reports that work's CPU time scaled to a fixed speed: the time it
would have taken had the block run in ``NOMINAL_S``.  Drift that slows the
block and the program alike cancels; a change to the program does not touch
the block.

This module imports nothing but ``time``, so a process can read its speed
before it imports anything else.
"""

import time

# CPU time of one block at the fixed speed that scaled times refer to; about
# what the block takes on a 2-vCPU Intel Xeon virtual machine (Python 3.11).
NOMINAL_S = 0.05

_MODULUS = 7**420


def reference_block() -> float:
    """Run the fixed block once; return its CPU time."""
    start = time.process_time()
    for _ in range(8):
        table: dict = {}
        total = 0
        for i in range(20000):
            key = (i * 7919) % 1009
            table[key] = table.get(key, 0) + i
            total += (i * i) % 13
        x = 3**400
        for _ in range(200):
            x = (x * 12345678901) % _MODULUS
    return time.process_time() - start


class Speedometer:
    """Scale factors for measured CPU times.

    Each reading runs the block; the first runs when the object is made.
    ``factor`` is called right after a piece of measured work; it reads the
    speed again and returns ``NOMINAL_S`` over the mean block time of that
    reading and the one before the work.
    """

    def __init__(self):
        self.last = reference_block()

    def factor(self) -> float:
        before, self.last = self.last, reference_block()
        return NOMINAL_S / ((before + self.last) / 2)
