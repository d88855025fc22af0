"""Print every benchmark pool's outputs, one JSON line per record, floats as hex.

Usage, from the root of a source checkout (no flags):

    python3 tools/output_digest.py > digest.txt

The inputs are the pools that ``perfbench/workloads.py`` generates; the
library is imported from this checkout's ``src/``. Records:

- ``quote``: every ``EquilibriumQuote`` of the quote pools of seeds 1-3;
- ``smile``: every ``SmilePoint`` of the 8 chains of smile seed 1;
- ``validate``: ``(name, passed, detail)`` of every check of the validate
  pools of seeds 1, 2, 5 and 7, each suite run twice in one process so
  that any state kept between calls shows as a difference;
- ``cli``: exit code, stdout and stderr of the pool argvs of cli seeds 1-3.

Floats print as ``float.hex``, so two checkouts give the same output if
and only if every number agrees bit for bit: ``diff`` the digests of two
checkouts to check that a change left every output unchanged. A request
that raises prints its exception type and message instead. A full run
takes about a minute on a two-core machine.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]

import workloads  # perfbench/workloads.py, found through the path set above

SEEDS = {"quote": (1, 2, 3), "smile": (1,), "validate": (1, 2, 5, 7), "cli": (1, 2, 3)}
CALLS = {"validate": 2}


def encode(value):
    """JSON-ready value with every float as its exact hex form."""
    if dataclasses.is_dataclass(value):
        return {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    return value


def main() -> int:
    for name, seeds in SEEDS.items():
        for seed in seeds:
            workload = workloads.WORKLOADS[name](seed)
            for call in range(CALLS.get(name, 1)):
                for index, item in enumerate(workload.inputs):
                    try:
                        output = encode(workload.request(item))
                    except Exception as exc:  # recorded in the digest, not raised
                        output = {"raised": type(exc).__name__, "message": str(exc)}
                    record = {"workload": name, "seed": seed, "call": call, "index": index,
                              "output": output}
                    print(json.dumps(record, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
