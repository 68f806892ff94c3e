"""CPU speed meter: one fixed exact-rational loop, pinned to one CPU.

    python3 bench/meter.py CPU

Prints "ready", then loops until it is terminated or its parent exits.
On SIGUSR1 it prints "<loops done> <its own CPU seconds>".  A meter that shares a CPU with an
invocation runs at the same moments, so loops per meter CPU second is the
speed that CPU gave the invocation; see Meters in run.py.
"""

import os
import signal
import sys
import time
from fractions import Fraction

LOOP_TERMS = 200


def main() -> None:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    requested = []
    signal.signal(signal.SIGUSR1, lambda *_: requested.append(True))
    parent = os.getppid()
    print("ready", flush=True)
    loops = 0
    while os.getppid() == parent:
        acc = Fraction(0)
        for i in range(1, LOOP_TERMS):
            acc += Fraction(i, i + 1) * Fraction(3, 7)
        loops += 1
        if requested:
            requested.clear()
            print(loops, time.process_time(), flush=True)


if __name__ == "__main__":
    main()
