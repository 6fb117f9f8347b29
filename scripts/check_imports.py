#!/usr/bin/env python
"""Import-footprint gate (``make check-imports``).

Guards the "what a process loads" contract of ``docs/architecture.md`` with
structural asserts only -- module sets, never wall-clock:

* ``import repro`` loads the package and its lazy-export helper, nothing
  else (at most :data:`ROOT_BUDGET` ``repro.*`` modules);
* the **serving closure** (``repro.lsm.store`` + ``repro.net.server``, and
  the same plus ``repro.net.aio``) stays within :data:`SERVING_BUDGET`
  ``repro.*`` modules and loads none of :data:`FORBIDDEN` -- no ``asyncio``
  (the async engine is a ``selectors`` reactor), no sqlite3, no
  ``cryptography``, no replication, cluster, UDSM, txn, delta, consistency,
  security or compression layer, and no wire client (``repro.net.client``:
  a member never dials its peers) -- nor any of :data:`START_ONLY`
  (``argparse``, ``subprocess``) or :data:`FIRST_GETVER` (``hashlib``,
  ``_hashlib``: Bloom keys hash on CPython's built-in SHA-256, so OpenSSL
  is not mapped).  A started async engine that has served a request round
  still has no ``asyncio`` loaded;
* ``python -m repro.net.server --backend lsm``, with either engine, never
  imports ``asyncio``, ``hashlib`` or a forbidden layer, from start-up
  through requests;
* a **served request imports nothing**: ``sys.modules`` is identical before
  and after a GET/SET/MGET/MSET/DEL/STATS round against a started
  ``StoreServer`` and ``AsyncStoreServer`` over an ``LSMStore`` -- laziness
  is paid at first attribute access on a package, never on a request path.
  The one documented first-use import follows: a ``GETVER`` loads
  ``hashlib`` for ``content_version``, and its reply must equal
  ``hashlib.sha1(value).hexdigest()``.

Every probe runs in a fresh interpreter.  Exit status 0 when every check
holds; 1 otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import select
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

ROOT_BUDGET = 3
SERVING_BUDGET = 40  # the eager package surfaces loaded 85

#: Top-level modules and ``repro`` layers a serving child must not load.
FORBIDDEN = (
    "asyncio",
    "sqlite3",
    "cryptography",
    "repro.kv.quorum",
    "repro.kv.resilience",
    "repro.kv.cloudsim",
    "repro.kv.sqlstore",
    "repro.kv.filesystem",
    "repro.udsm",
    "repro.cluster",
    "repro.txn",
    "repro.delta",
    "repro.consistency",
    "repro.security",
    "repro.compression",
)

#: Barred from the serving closure only, since a server never dials anyone
#: (the request-round child below imports it for its own probe client).
WIRE_CLIENT = ("repro.net.client",)

#: Loaded by what *starts* a server, never by importing one: the CLI parser
#: and the process launcher.
START_ONLY = ("argparse", "subprocess")

#: Loaded by a server only when it answers its first ``GETVER``
#: (``content_version`` imports ``hashlib``, and with it OpenSSL).
FIRST_GETVER = ("hashlib", "_hashlib")

#: Seconds the server child gets to announce ``LISTENING``.
STARTUP_TIMEOUT = 30

SERVING_IMPORTS = "from repro.lsm.store import LSMStore; from repro.net.server import StoreServer"

#: Child program: start a server over an LSMStore, connect a client, then
#: diff ``sys.modules`` around one round of every hot command.
REQUEST_ROUND = """
import json, sys, tempfile
from repro.lsm.store import LSMStore
from repro.net.client import CacheClient
from repro.net.server import build_server

with tempfile.TemporaryDirectory() as root:
    store = LSMStore(root)
    server = build_server(sys.argv[1], store)
    host, port = server.start()
    client = CacheClient(host, port)
    client.ping()
    before = set(sys.modules)
    client.set(b"k1", b"v1")
    client.mset({b"k2": b"v2", b"k3": b"v3"})
    got = [client.get(b"k1"), client.get(b"absent"), *client.mget([b"k2", b"k3"])]
    deleted = client.delete(b"k1", b"k2")
    stats = client.stats()
    imported = sorted(set(sys.modules) - before)
    client.set(b"k4", b"versioned")
    getver = client.getver(b"k4")
    getver_imported = sorted(set(sys.modules) - before - set(imported))
    client.close()
    server.stop()
    store.close()
print(json.dumps({"imported": imported, "got": [None if v is None else v.decode() for v in got],
                  "deleted": deleted, "engine": stats.get("server.engine"),
                  "asyncio": "asyncio" in sys.modules,
                  "getver": getver, "getver_imported": getver_imported}))
"""


def _environment() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _probe(code: str, *argv: str) -> str:
    """Run *code* in a fresh interpreter; return its stdout."""
    result = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=_environment(), capture_output=True, text=True, timeout=120,
    )
    if result.returncode != 0:
        raise RuntimeError(f"probe failed:\n{result.stderr}")
    return result.stdout


def _loaded_after(statement: str) -> list[str]:
    """Every module in ``sys.modules`` after running *statement*."""
    return json.loads(_probe(f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"))


def _repro_modules(modules: list[str]) -> list[str]:
    return [name for name in modules if name.split(".")[0] == "repro"]


def _forbidden_in(modules: list[str], banned: tuple[str, ...]) -> list[str]:
    return [
        name for name in modules
        if any(name == bad or name.startswith(bad + ".") for bad in banned)
    ]


def _expect(errors: list[str], condition: bool, message: str) -> None:
    if not condition:
        errors.append(message)
        print(f"  FAIL {message}")
    else:
        print(f"  ok   {message}")


def check_root(errors: list[str]) -> None:
    print("[1/4] `import repro` loads the surface, not the catalogue")
    loaded = _repro_modules(_loaded_after("import repro"))
    _expect(errors, len(loaded) <= ROOT_BUDGET,
            f"{len(loaded)} repro.* modules <= {ROOT_BUDGET} ({', '.join(loaded)})")


def check_serving_closure(errors: list[str]) -> None:
    print("[2/4] the serving closure loads only the layers it composes")
    for label, statement in (
        ("threaded", SERVING_IMPORTS),
        ("async", SERVING_IMPORTS + "; import repro.net.aio"),
    ):
        modules = _loaded_after(statement)
        count = len(_repro_modules(modules))
        _expect(errors, count <= SERVING_BUDGET,
                f"{label}: {count} repro.* modules <= {SERVING_BUDGET}")
        forbidden = _forbidden_in(modules, FORBIDDEN + WIRE_CLIENT + START_ONLY + FIRST_GETVER)
        _expect(errors, not forbidden,
                f"{label}: no forbidden layer, start-only module or hashlib loaded"
                + (f" (found {forbidden})" if forbidden else ""))


def check_server_module(errors: list[str]) -> None:
    print("[3/4] `python -m repro.net.server --backend lsm` never imports asyncio or hashlib")
    for engine in ("threaded", "async"):
        _check_server_child(errors, engine)


def _check_server_child(errors: list[str], engine: str) -> None:
    with tempfile.TemporaryDirectory() as root:
        process = subprocess.Popen(
            [sys.executable, "-X", "importtime", "-m", "repro.net.server", "--engine", engine,
             "--backend", "lsm", "--database", str(Path(root) / "kv.lsm"), "--port", "0"],
            env=_environment(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            ready = select.select([process.stdout], [], [], STARTUP_TIMEOUT)[0]
            line = process.stdout.readline() if ready else ""
            _expect(errors, line.startswith("LISTENING"), f"{engine}: server child announced LISTENING")
            if line.startswith("LISTENING"):
                _token, host, port = line.split()
                _probe(
                    "import sys\n"
                    "from repro.net.client import CacheClient\n"
                    "client = CacheClient(sys.argv[1], int(sys.argv[2]))\n"
                    "client.set(b'k', b'v')\n"
                    "assert client.get(b'k') == b'v' and client.stats()\n"
                    "client.close()\n",
                    host, port,
                )
        finally:
            process.terminate()
            _out, import_log = process.communicate(timeout=30)
    imported = [entry.rsplit("|", 1)[-1].strip() for entry in import_log.splitlines()
                if entry.startswith("import time:")]
    _expect(errors, "repro.lsm.store" in imported,
            f"{engine}: import log captured (repro.lsm.store seen)")
    forbidden = _forbidden_in(imported, FORBIDDEN + FIRST_GETVER)
    _expect(errors, not forbidden,
            f"{engine}: neither asyncio, hashlib nor a forbidden layer in the child's import log, "
            "start-up through requests" + (f" (found {forbidden})" if forbidden else ""))


def check_request_round(errors: list[str]) -> None:
    print("[4/4] a served request imports nothing")
    for engine in ("threaded", "async"):
        outcome = json.loads(_probe(REQUEST_ROUND, engine))
        _expect(errors, outcome["engine"] == engine and outcome["got"] == ["v1", None, "v2", "v3"]
                and outcome["deleted"] == 2, f"{engine}: request round answered correctly")
        _expect(errors, not outcome["imported"],
                f"{engine}: sys.modules unchanged by GET/SET/MGET/MSET/DEL/STATS"
                + (f" (imported {outcome['imported']})" if outcome["imported"] else ""))
        _expect(errors, not outcome["asyncio"],
                f"{engine}: no asyncio in sys.modules after a started engine served the round")
        _expect(errors, outcome["getver"] == hashlib.sha1(b"versioned").hexdigest(),
                f"{engine}: GETVER answers hashlib.sha1(value).hexdigest()")
        _expect(errors, "hashlib" in outcome["getver_imported"],
                f"{engine}: the first GETVER is what loads hashlib "
                f"(imported {outcome['getver_imported']})")


def main() -> int:
    errors: list[str] = []
    check_root(errors)
    check_serving_closure(errors)
    check_server_module(errors)
    check_request_round(errors)
    if errors:
        print(f"\ncheck_imports: {len(errors)} check(s) FAILED")
        return 1
    print("\ncheck_imports: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
