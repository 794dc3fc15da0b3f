"""Seeded instance sets for the benchmark workloads.

Each workload turns the workload seed into a fixed list of instance
documents (the JSON form the CLI reads).  The solver only ever sees these
documents; the seed never reaches it.

* ``chain-horizon``: the 12-node chain family.  Arcs ``v_i -> v_{i+1}``
  have capacity 1, transit ``1 + (i + phase) % 3`` and cost 0; arcs
  ``v_i -> v_{i+2}`` have capacity 1, transit 3 and cost 1.  Supply S
  sits at ``v0``, demand at ``v11``.  One instance per rung of a supply
  ladder; the seed jitters each rung and picks each phase.  The ladder
  stops at S < 175 so that every operation stays short (see the README).
* ``random-wide``: ``generate(.., nodes=60, terminals=8, tau_max=10,
  cost_max=9, negative_costs=True)`` on seeds drawn from the workload seed.
* ``oracle-crosscheck``: ``generate(.., nodes=10, terminals=3, tau_max=8,
  cap_max=5, negative_costs=True)``, solved and cross-checked against the
  brute-force oracle.

The two generated sets are stratified by terminal count.  How many
sources and sinks an instance has explains most of its solve time (R^2
about 0.8 on ``oracle-crosscheck``, 0.55 on ``random-wide``), so a set
drawn freely does from seed to seed noticeably more or less work: the
quartile spread of its total time over seeds is about 7 % on
``oracle-crosscheck`` and 5.5 % on ``random-wide``.  Each set instead
holds a fixed number of instances per band of terminal counts, in the
proportions ``generate`` itself produces (counted over 3000 draws);
instances are drawn in the seed's order and kept while their band has
room.  That cuts the spread to about 3 % and 4 % without changing the
mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

CHAIN_NODES = 12
CHAIN_RUNGS = (60, 75, 90, 105, 120, 135, 150, 165)
CHAIN_JITTER = 10
# (fewest terminals, most terminals, instances): sources plus sinks per band.
RANDOM_WIDE_STRATA = (
    (2, 2, 15),
    (3, 4, 22),
    (5, 6, 17),
    (7, 8, 16),
    (9, 10, 11),
    (11, 12, 10),
    (13, 16, 9),
)
ORACLE_STRATA = ((2, 2, 112), (3, 3, 70), (4, 4, 57), (5, 5, 42), (6, 6, 19))
DRAWS_PER_INSTANCE = 20  # give up, rather than loop, if the bands cannot fill


@dataclass(frozen=True)
class Instance:
    """One benchmark input: its document plus what the seed fixed about it."""

    doc: dict
    params: dict


def chain_transits(phase: int) -> list[int]:
    """Transit times of the zero-cost arcs ``v_i -> v_{i+1}``."""
    return [1 + (i + phase) % 3 for i in range(CHAIN_NODES - 1)]


def chain_doc(supply: int, phase: int) -> dict:
    nodes = [f"v{i}" for i in range(CHAIN_NODES)]
    arcs = [
        {"tail": nodes[i], "head": nodes[i + 1], "capacity": 1, "transit": t, "cost": 0}
        for i, t in enumerate(chain_transits(phase))
    ]
    arcs += [
        {"tail": nodes[i], "head": nodes[i + 2], "capacity": 1, "transit": 3, "cost": 1}
        for i in range(CHAIN_NODES - 2)
    ]
    return {"nodes": nodes, "arcs": arcs, "balances": {nodes[0]: supply, nodes[-1]: -supply}}


def chain_horizon(seed: int) -> list[Instance]:
    rng = random.Random(seed)
    instances = []
    for rung in CHAIN_RUNGS:
        supply = rung + rng.randrange(CHAIN_JITTER)
        phase = rng.randrange(3)
        instances.append(Instance(chain_doc(supply, phase), {"supply": supply, "phase": phase}))
    return instances


def terminal_count(doc: dict) -> int:
    """Sources plus sinks: the nodes with a nonzero balance."""
    return sum(Fraction(str(b)) != 0 for b in doc["balances"].values())


def _generated(seed: int, strata, **options) -> list[Instance]:
    from qmct import generate, network_to_doc

    rng = random.Random(seed)
    room = [[low, high, count] for low, high, count in strata]
    wanted = sum(count for _, _, count in strata)
    instances = []
    for _ in range(DRAWS_PER_INSTANCE * wanted):
        instance_seed = rng.randrange(2**31)
        doc = network_to_doc(generate(instance_seed, **options))
        terminals = terminal_count(doc)
        band = next((b for b in room if b[0] <= terminals <= b[1]), None)
        if band is None or band[2] == 0:
            continue
        band[2] -= 1
        instances.append(Instance(doc, {"seed": instance_seed, "terminals": terminals}))
        if len(instances) == wanted:
            return instances
    raise RuntimeError(f"terminal-count bands still open after {DRAWS_PER_INSTANCE * wanted} draws")


def random_wide(seed: int) -> list[Instance]:
    return _generated(
        seed,
        RANDOM_WIDE_STRATA,
        nodes=60,
        terminals=8,
        tau_max=10,
        cost_max=9,
        negative_costs=True,
    )


def oracle_crosscheck(seed: int) -> list[Instance]:
    return _generated(
        seed,
        ORACLE_STRATA,
        nodes=10,
        terminals=3,
        tau_max=8,
        cap_max=5,
        negative_costs=True,
    )


WORKLOADS = {
    "chain-horizon": chain_horizon,
    "random-wide": random_wide,
    "oracle-crosscheck": oracle_crosscheck,
}
