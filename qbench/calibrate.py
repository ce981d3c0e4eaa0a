"""Machine-speed calibration for the end-to-end times.

The host this benchmark runs on is shared, and its speed for one thread
drifts by tens of percent, within seconds and from minute to minute.  Raw
wall times of runs made minutes apart then differ by more than any useful
bound.  So every run times a fixed calibration chunk before each of its
operations, and scales each operation's time by ``REF_S[kind]`` over the
mean of the chunks timed nearest it: a scaled time reads as seconds on this
host at the speed at which one chunk takes ``REF_S[kind]``.  The host
switches between a fast and a slow speed within seconds, so the estimate is
local to each operation, and a mean, like an operation's own time, counts
the share of time spent at each speed.  The raw times are printed beside the
scaled ones and kept in the run record.

A chunk runs a small fixed input through ``refqrds``, a frozen copy of the
qrds sources taken when this benchmark was defined.  It does the same kind
of work as the workload it calibrates, so a change in the host's speed moves
both alike, and no change to ``src/qrds`` moves it.  ``refqrds`` is never
edited: its speed is the yardstick.
"""

from __future__ import annotations

from statistics import fmean
from time import perf_counter

import refqrds
import workloads

# the chunk of each kind, and about its time on a 2-vCPU Xeon host at the
# faster of the host's speeds
SERIES_ORDER = 40  # verify_all: series kernel, catalog sums, Bailey pipeline
ARITH_LEGS = ((5, 2000), (6, 2000), (9, 2000))  # (theorem, N): hecke and ideals
REF_S = {"series": 0.024, "arith": 0.0165}
# chunks behind each operation's speed estimate
WINDOW = 4


def kind(ops: list[dict]) -> str:
    """Calibration kind of a pass: arithmetic legs, or the series layers."""
    return "arith" if ops and all(op["op"] == "arith_leg" for op in ops) else "series"


def chunk(kind: str) -> None:
    """One chunk of fixed work of the given kind, in the frozen copy."""
    if kind == "series":
        refqrds.verify_all(order=SERIES_ORDER)
    else:
        for theorem, n in ARITH_LEGS:
            workloads.arith_leg(refqrds, theorem, n)


def sample(kind: str, chunks: int) -> list[float]:
    """Time ``chunks`` chunks of a kind, one sample each."""
    times = []
    for _ in range(chunks):
        t0 = perf_counter()
        chunk(kind)
        times.append(perf_counter() - t0)
    return times


def local_scales(blocks: list[list[float]], kind: str) -> list[float]:
    """Factors that turn raw seconds of each operation into reference seconds.

    ``blocks[j]`` holds the chunk times of the block timed just before
    operation ``j``, and the last block follows the last operation.  The
    factor of an operation is ``REF_S[kind]`` over the mean of the blocks
    nearest it, as many before as after, at least ``WINDOW`` chunks in all.
    """
    per = max(1, min(len(b) for b in blocks))
    half = max(1, -(-WINDOW // (2 * per)))
    return [
        REF_S[kind] / fmean(c for b in blocks[max(0, j - half + 1): j + half + 1] for c in b)
        for j in range(len(blocks) - 1)
    ]
