"""The machine-speed probe, and times scaled to a reference machine speed.

See README.md, "Reference speed": the sandbox's neighbours slow memory-bound
code by up to 2x for minutes at a time, so every round and every set-up is
bracketed by this probe and its times are reported as what the clock would
have read with the probe at ``CALIB_REFERENCE_MS``.  The probe uses nothing
from ``src/``: no change to the program can move it.
"""

from __future__ import annotations

import functools
import random
from time import perf_counter

#: What the probe reads on the reference sandbox in a quiet phase, bracketing
#: a round (so with its working set evicted by the round's own traffic).
CALIB_REFERENCE_MS = 25.0


@functools.cache
def _probe_table() -> tuple[dict[int, list[int]], list[int]]:
    rng = random.Random(0)
    table = {number: [number] for number in range(300_000)}
    return table, [rng.randrange(len(table)) for _ in range(60_000)]


def calibrate() -> float:
    """Milliseconds a fixed pure-Python kernel takes: a probe of machine speed,
    so a slow phase of the host can be told from a slow program.

    The kernel chases pointers through a few MiB of small objects on purpose:
    on the reference sandbox a register-bound loop stayed flat through host
    phases that slowed the client stack by a quarter, while this one tracked
    them (the neighbours contend for cache, not for cycles).
    """
    table, order = _probe_table()
    start = perf_counter()
    total = 0
    for number in order:
        total += table[number][0]
    return (perf_counter() - start) * 1e3


#: How much of an open-loop latency follows the probe.  At a quarter of
#: capacity about half of a request's latency is spent asleep (the sender's
#: timer, the server thread's and the receiver's wake-ups) and does not slow
#: when the neighbours take cache: between a stretch with the probe at 30 ms
#: and one at 25.5 ms the raw open-loop p50 moved by 1 %, the closed-loop
#: latencies by 15-25 %.  Over thirty runs spanning both, an exponent of 0.5
#: gave the steadiest open-loop p50 (spread 9-12 %, against 14-17 % unscaled
#: and 8-16 % fully scaled, whose medians drifted by 21 % between stretches).
OPEN_LOOP_SHARE = 0.5


def at_reference_speed(seconds: float, calib_ms: float, share: float = 1.0) -> float:
    """A duration measured while the probe read *calib_ms*, scaled to what it
    would have been with the probe at ``CALIB_REFERENCE_MS``; *share* is the
    part of the duration (as an exponent) that follows the probe."""
    return seconds * (CALIB_REFERENCE_MS / calib_ms) ** share
