"""Server child of the e2e benchmark: one engine over one ``LSMStore``.

Started by ``stack.Child``; builds the serving engine from the repo's
public constructors because ``ServerHandle.spawn_process`` cannot set
``fsync`` or ``memtable_bytes``.  Prints ``LISTENING <host> <port>`` once
bound, then serves until stdin reaches EOF -- so an orphaned child (its
benchmark process died without cleaning up) exits by itself.

With ``--traced`` the store is wrapped in the benchmark's timed
``KeyValueStore`` wrapper and given an ``Observability`` with a journal;
each ``dump`` line on stdin is answered with one line of JSON on stdout
(registry snapshot, ``store.stats()``, the ``lsm_flush``/``lsm_compact``
events and the wrapper's per-call totals).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro.lsm.store import LSMStore  # noqa: E402
from repro.net.aio import AsyncStoreServer  # noqa: E402
from repro.net.server import StoreServer  # noqa: E402
from repro.obs import Observability  # noqa: E402
from repro.obs.events import EventLog  # noqa: E402

#: 1 MiB, not the 4 MiB default: a few seconds of writes then hold several
#: flushes and size-tiered compactions, so background work completes whole
#: cycles inside every measured run.
MEMTABLE_BYTES = 1 << 20


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--engine", choices=("threaded", "async"), required=True)
    parser.add_argument("--fsync", type=int, choices=(0, 1), required=True)
    parser.add_argument("--traced", action="store_true")
    options = parser.parse_args()

    store_obs = Observability(events=EventLog()) if options.traced else None
    lsm = LSMStore(
        options.root,
        fsync=bool(options.fsync),
        memtable_bytes=MEMTABLE_BYTES,
        obs=store_obs,
    )
    store = lsm
    if options.traced:
        from tracing import CallTotals, TimedStore

        totals = CallTotals()
        store = TimedStore(lsm, totals, "lsm.store")
    server_class = AsyncStoreServer if options.engine == "async" else StoreServer
    server = server_class(store)
    host, port = server.start()
    print(f"LISTENING {host} {port}", flush=True)
    try:
        for line in sys.stdin:
            if line.strip() == "dump" and options.traced:
                dump = {
                    "registry": store_obs.registry.snapshot(),
                    "stats": lsm.stats(),
                    "events": [
                        event
                        for event in store_obs.events.tail()
                        if event["kind"] in ("lsm_flush", "lsm_compact")
                    ],
                    "calls": totals.snapshot(),
                }
                print(json.dumps(dump), flush=True)
    finally:
        server.stop()
        lsm.close()


if __name__ == "__main__":
    main()
