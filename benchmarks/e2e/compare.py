"""Compare two sets of end-to-end medians against BENCHMARK.json's bounds.

    python3 benchmarks/e2e/compare.py A.json B.json

A and B are ``out/result.json`` files of ``run.py`` (A the reference).
Prints one row per metric x workload with both medians, the relative
change in the metric's worse direction and its bound; exits non-zero when
any change exceeds its bound.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any


def report(
    first: dict[str, dict[str, float]],
    second: dict[str, dict[str, float]],
    benchmark: dict[str, Any],
) -> int:
    """Print the table; returns how many rows exceed their bound."""
    exceeded = 0
    print(f"\n{'workload':20} {'metric':26} {'first':>12} {'second':>12} {'worse by':>9} {'bound':>6}")
    for workload in first:
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a, b = first[workload][name], second[workload][name]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            over = worse > metric["bound"]
            exceeded += over
            print(f"{workload:20} {name:26} {a:12.4f} {b:12.4f} {worse:+9.1%} "
                  f"{metric['bound']:6.0%}{'  EXCEEDED' if over else ''}")
    print(f"\n{exceeded} of the rows above exceed their bound")
    return exceeded


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    first, second = (json.loads(Path(path).read_text()) for path in sys.argv[1:])
    benchmark = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    return 1 if report(first["end_to_end"], second["end_to_end"], benchmark) else 0


if __name__ == "__main__":
    sys.exit(main())
