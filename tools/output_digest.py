"""Print the benchmark pools' outputs and a low-volatility quote grid, floats as hex.

Usage, from the root of a source checkout (no flags):

    python3 tools/output_digest.py > digest.txt

The inputs are the pools that ``perfbench/workloads.py`` generates; the
library is imported from this checkout's ``src/``. Records:

- ``quote``: every ``EquilibriumQuote`` of the quote pools of seeds 1-3;
- ``smile``: every ``SmilePoint`` of the 8 chains of smile seed 1;
- ``validate``: ``(name, passed, detail)`` of every check of the validate
  pools of seeds 1, 2, 5 and 7, each suite run twice in one process so
  that any state kept between calls shows as a difference;
- ``cli``: exit code, stdout and stderr of the pool argvs of cli seeds 1-3;
- ``lowvol``: the ``EquilibriumQuote`` of each of the 1,440 markets of a
  low-volatility grid (S0 = 100, sigma from 0.002 to 0.1, T from 0.01 to
  1, K/S0 from 0.8 to 1.3; see ``LOWVOL``). This section is not a
  benchmark pool: it covers the regime where the writer's loss
  probability nears the bottom of the float range, which no pool reaches;
- ``mc``: ``(count, mean, m2)`` of each ``RunningMoments`` (payoff, writer
  loss, holder loss) that each suite of the validate pools of seeds 1 and
  2 builds, every bit of the Monte Carlo estimates that ``validate`` prints
  to three digits. They are recorded by replacing
  ``fairhedge.oracle.RunningMoments`` with a subclass that keeps each
  instance, so the script reads them from any tree that builds its
  moments from that name.

Floats print as ``float.hex``, so two checkouts give the same output if
and only if every number agrees bit for bit: ``diff`` the digests of two
checkouts to check that a change left every output unchanged. A request
that raises prints its exception type and message instead. At the end,
stderr gets one line per section and a ``total`` line, each with the
record count and the sha256 of those records' lines as stdout has them
(the total's is the sha256 of stdout), so one run can be quoted and
compared without keeping its output. A full run takes about a minute on
a two-core machine.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "perfbench")]

import workloads  # perfbench/workloads.py, found through the path set above
from fairhedge import MarketParams, OptionContract, minimize_writer_risk

SEEDS = {"quote": (1, 2, 3), "smile": (1,), "validate": (1, 2, 5, 7), "cli": (1, 2, 3)}
CALLS = {"validate": 2}
MC_SEEDS = (1, 2)
# The low-volatility grid's axes; a market is one (sigma, T, K/S0, mu, r) at S0 = 100.
LOWVOL = {
    "sigma": (0.002, 0.005, 0.01, 0.02, 0.05, 0.1),
    "t": (0.01, 0.05, 0.1, 0.5, 1.0),
    "moneyness": (0.8, 0.9, 0.97, 1.0, 1.02, 1.05, 1.1, 1.3),
    "mu": (0.06, 0.1, 0.2),
    "r": (0.0, 0.05),
}


def encode(value):
    """JSON-ready value with every float as its exact hex form."""
    if dataclasses.is_dataclass(value):
        return {f.name: encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    return value


def encoded_output(request, *args):
    """The encoded result of request(*args), or the exception it raised."""
    try:
        return encode(request(*args))
    except Exception as exc:  # recorded in the digest, not raised
        return {"raised": type(exc).__name__, "message": str(exc)}


def main() -> int:
    summary = {}  # section: [record count, sha256 of its lines]
    for record in records():
        line = (json.dumps(record, sort_keys=True) + "\n").encode()
        sys.stdout.buffer.write(line)
        sys.stdout.buffer.flush()
        for section in (record["workload"], "total"):
            entry = summary.setdefault(section, [0, hashlib.sha256()])
            entry[0] += 1
            entry[1].update(line)
    summary["total"] = summary.pop("total")  # printed last
    for section, (count, digest) in summary.items():
        print(f"{section:<8} {count:>5} records  sha256 {digest.hexdigest()}", file=sys.stderr)
    return 0


def records():
    """Every record of the digest, section by section."""
    for name, seeds in SEEDS.items():
        for seed in seeds:
            workload = workloads.WORKLOADS[name](seed)
            for call in range(CALLS.get(name, 1)):
                for index, item in enumerate(workload.inputs):
                    yield {"workload": name, "seed": seed, "call": call, "index": index,
                           "output": encoded_output(workload.request, item)}
    for index, (sigma, t, moneyness, mu, r) in enumerate(itertools.product(*LOWVOL.values())):
        params = MarketParams(spot=100.0, drift=mu, volatility=sigma, risk_free=r)
        contract = OptionContract(strike=100.0 * moneyness, expiry=t)
        yield {"workload": "lowvol", "index": index, "market": [sigma, t, moneyness, mu, r],
               "output": encoded_output(minimize_writer_risk, params, contract)}
    yield from mc_records()


def mc_records():
    """One record per validate suite of MC_SEEDS: the full bits of its running moments."""
    import fairhedge.oracle as oracle

    built = []

    class Recorded(oracle.RunningMoments):
        def __init__(self):
            super().__init__()
            built.append(self)

    original, oracle.RunningMoments = oracle.RunningMoments, Recorded
    try:
        for seed in MC_SEEDS:
            workload = workloads.WORKLOADS["validate"](seed)
            for index, item in enumerate(workload.inputs):
                built.clear()
                encoded_output(workload.request, item)  # a raise is in the validate section
                moments = [[m.count, m.mean.hex(), m.m2.hex()] for m in built]
                yield {"workload": "mc", "seed": seed, "index": index, "moments": moments}
    finally:
        oracle.RunningMoments = original


if __name__ == "__main__":
    sys.exit(main())
