"""Seeded random instance generation.

Instances are deterministic per seed, always pass validation, and are
routable by construction: tentative supplies and demands are projected
onto what the pair-reachability structure can actually carry, and
terminals that end up with nothing are demoted to intermediate nodes.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction

from . import _kernel
from .network import Network
from .rationals import to_integers

# Random arcs drawn per node pair (n(n-1)/2 pairs), before the repairs.
DENSITY = 0.55


def _reachable_from(adj: list[list[int]], start: int) -> set[int]:
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def generate(
    seed: int,
    nodes: int = 5,
    terminals: int = 2,
    tau_max: int = 3,
    cap_max: int = 3,
    cost_max: int = 3,
    half_balance_prob: float = 0.25,
    negative_costs: bool = False,
) -> Network:
    """Generate a valid, routable instance; identical output per seed.

    ``terminals`` caps the number of sources and of sinks (each side
    gets between one and that many).  Capacities are integers in
    [1, cap_max], transit times integers in [0, tau_max], costs integers
    in [0, cost_max].  With ``negative_costs`` a random node potential is
    folded into the costs, which produces negative coefficients but can
    never create a negative cycle.  Balances may be half-integral with
    probability ``half_balance_prob`` per terminal.  Raises
    :class:`ValueError`, naming the argument, when ``nodes`` < 2,
    ``terminals`` or ``cap_max`` < 1 or ``tau_max`` or ``cost_max`` is
    negative.
    """
    least = {"nodes": 2, "terminals": 1, "cap_max": 1, "tau_max": 0, "cost_max": 0}
    for name, value in zip(least, (nodes, terminals, cap_max, tau_max, cost_max)):
        if value < least[name]:
            raise ValueError(f"{name} must be at least {least[name]}, got {value}")
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(nodes)]
    per_side = min(terminals, nodes // 2)
    k_src = rng.randint(1, per_side)
    k_snk = rng.randint(1, per_side)
    picked = rng.sample(range(nodes), k_src + k_snk)
    source_ids = sorted(picked[:k_src])
    sink_ids = sorted(picked[k_src:])

    target_arcs = max(nodes - 1, round(DENSITY * nodes * (nodes - 1) / 2))
    endpoints: list[tuple[int, int]] = []
    # Out-neighbours of every node, kept in step with ``endpoints``.
    adj: list[list[int]] = [[] for _ in range(nodes)]

    def add_arc(u: int, v: int) -> None:
        endpoints.append((u, v))
        adj[u].append(v)

    for _ in range(target_arcs):
        u = rng.randrange(nodes)
        v = rng.randrange(nodes)
        if u != v:
            add_arc(u, v)

    # Repair: every source must reach a sink, every sink must be reached.
    for s in source_ids:
        if not (_reachable_from(adj, s) & set(sink_ids)):
            add_arc(s, rng.choice(sink_ids))
    reached = set()
    for s in source_ids:
        reached |= _reachable_from(adj, s)
    for t in sink_ids:
        if t not in reached:
            add_arc(rng.choice(source_ids), t)

    potential = [rng.randint(0, cost_max) if negative_costs else 0 for _ in range(nodes)]
    arcs = []
    for u, v in endpoints:
        cost = rng.randint(0, cost_max) + potential[u] - potential[v]
        arcs.append((names[u], names[v], rng.randint(1, cap_max), rng.randint(0, tau_max), cost))

    def tentative() -> Fraction:
        if rng.random() < half_balance_prob:
            return Fraction(rng.randint(1, 2 * cap_max), 2)
        return Fraction(rng.randint(1, cap_max))

    wanted = [tentative() for _ in range(k_src + k_snk)]

    # Project tentative balances onto the pair-reachability structure so
    # the final instance is guaranteed routable: a max flow from a super
    # source n (wired to source i with its supply) to a super sink n + 1
    # (wired from sink k_src + j with its demand) over uncapacitated
    # pair arcs i -> k_src + j.
    pair_tails: list[int] = []
    pair_heads: list[int] = []
    for i, s in enumerate(source_ids):
        reach = _reachable_from(adj, s)
        for j, t in enumerate(sink_ids):
            if t in reach:
                pair_tails.append(i)
                pair_heads.append(k_src + j)
    n = k_src + k_snk
    scale, caps = to_integers(wanted)
    feeds, drains = dict(zip(range(k_src), caps)), dict(zip(range(k_src, n), caps[k_src:]))
    g = _kernel.wired(n, pair_tails, pair_heads, [None] * len(pair_tails), None, feeds, drains)
    _kernel.max_flow(g, n, n + 1)
    flows = g.rem[2 * len(pair_tails) + 1 :: 2]

    signs = [1] * k_src + [-1] * k_snk
    terminals = zip([*source_ids, *sink_ids], signs, flows)
    balances = {names[v]: Fraction(sign * f, scale) for v, sign, f in terminals if f}

    return Network.of(names, arcs, balances)
