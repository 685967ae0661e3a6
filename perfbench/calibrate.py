"""The host-speed loop, run in a child interpreter of its own.

The benchmark scales what it times by how long this fixed pure-Python
loop takes just before and just after.  The loop runs in a separate
process that imports nothing of the program, so a change that slows the
measuring process as a whole (a thread left contending for the GIL, a
trace or profile hook left installed) slows the measured work but not
the loop, and so shows in the scaled figures instead of cancelling out.

Run as a script it reads one line per request on standard input and
answers each with the loop's seconds on standard output.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from typing import Dict, Optional

perf = time.perf_counter


class _Cell:
    __slots__ = ("value", "next")

    def __init__(self, value: int, next_: Optional["_Cell"]):
        self.value = value
        self.next = next_


def calibrate() -> float:
    """Seconds this host takes for a fixed pure-Python loop (allocation,
    dict and attribute work, like the interpreter's own), with the
    collector off."""
    gc.disable()
    try:
        started = perf()
        table: Dict[int, int] = {}
        head = None
        for i in range(30_000):
            head = _Cell(i, head)
            table[i & 1023] = table.get(i & 1023, 0) + i
        while head is not None:
            head = head.next
        return perf() - started
    finally:
        gc.enable()


class Calibrator:
    """A child interpreter that runs ``calibrate()`` each time it is
    called and returns its seconds."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True)

    def __call__(self) -> float:
        self.process.stdin.write("\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError("calibration process ended")
        return float(line)

    def close(self) -> None:
        if self.process.stdin and not self.process.stdin.closed:
            self.process.stdin.close()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


def main() -> None:
    for _ in sys.stdin:
        print(calibrate(), flush=True)


if __name__ == "__main__":
    main()
