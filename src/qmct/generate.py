"""Seeded random instance generation.

Instances are deterministic per seed, always pass validation, and are
routable by construction: tentative supplies and demands are projected
onto what the pair-reachability structure can actually carry, and
terminals that end up with nothing are demoted to intermediate nodes.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import _kernel
from .network import Network
from .rationals import to_integers

# Random arcs drawn per node pair (n(n-1)/2 pairs), before the repairs.
DENSITY = 0.55


def _below(bits, n: int) -> int:
    """A draw in [0, n) from ``bits`` (a ``getrandbits``), by ``Random.randrange``'s rule:
    draw ``n.bit_length()`` bits until the number is below ``n``."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _reach(adj: list[list[int]], seen: set[int], start: int) -> set[int]:
    """``seen`` grown by the nodes reachable from ``start``.  ``seen`` is empty, or a
    reachable set that only a new arc into ``start`` has left open."""
    todo = set() if start in seen else {start}
    while todo:
        seen |= todo
        todo = {v for u in todo for v in adj[u]} - seen
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

    Every bounded integer is drawn by :func:`_below` on the seeded
    generator's ``getrandbits``, which consumes the stream exactly as
    ``randrange`` and ``randint`` do; the terminals, the repair arcs and
    the balance coin flips come from ``sample``, ``choice`` and
    ``random``.  ``tests/test_generate.py`` pins the rule and the
    instances' digests.

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
    bits = rng.getrandbits
    names = [f"n{i}" for i in range(nodes)]
    per_side = min(terminals, nodes // 2)
    k_src = 1 + _below(bits, per_side)
    k_snk = 1 + _below(bits, per_side)
    picked = rng.sample(range(nodes), k_src + k_snk)
    source_ids = sorted(picked[:k_src])
    sink_ids = sorted(picked[k_src:])

    target_arcs = max(nodes - 1, round(DENSITY * nodes * (nodes - 1) / 2))
    tails: list[int] = []
    heads: list[int] = []
    # Out-neighbours of every node, and the nodes each source reaches so far.
    adj: list[list[int]] = [[] for _ in range(nodes)]
    reach: list[set[int]] = []

    def add_arc(u: int, v: int) -> None:
        tails.append(u)
        heads.append(v)
        adj[u].append(v)
        for seen in reach:
            if u in seen:
                _reach(adj, seen, v)

    ends = [_below(bits, nodes) for _ in range(2 * target_arcs)]
    for u, v in zip(ends[::2], ends[1::2]):
        if u != v:
            add_arc(u, v)

    # Repair: every source must reach a sink, every sink must be reached.
    for s in source_ids:
        reach.append(_reach(adj, set(), s))
        if reach[-1].isdisjoint(sink_ids):
            add_arc(s, rng.choice(sink_ids))
    reached = set().union(*reach)
    for t in sink_ids:
        if t not in reached:
            add_arc(rng.choice(source_ids), t)

    potential = [_below(bits, cost_max + 1) if negative_costs else 0 for _ in range(nodes)]
    # Each arc draws its cost, capacity and transit, in that order.
    draws = [_below(bits, n) for n in (cost_max + 1, cap_max, tau_max + 1) * len(tails)]
    costs = [c + potential[u] - potential[v] for c, u, v in zip(draws[::3], tails, heads)]
    caps = [1 + c for c in draws[1::3]]

    def tentative() -> Fraction:
        if rng.random() < half_balance_prob:
            return Fraction(1 + _below(bits, 2 * cap_max), 2)
        return Fraction(1 + _below(bits, cap_max))

    wanted = [tentative() for _ in range(k_src + k_snk)]

    # Project tentative balances onto the pair-reachability structure so
    # the final instance is guaranteed routable: a max flow from a super
    # source n (wired to source i with its supply) to a super sink n + 1
    # (wired from sink k_src + j with its demand) over uncapacitated
    # pair arcs i -> k_src + j.
    pair_tails: list[int] = []
    pair_heads: list[int] = []
    for i, seen in enumerate(reach):
        for j, t in enumerate(sink_ids):
            if t in seen:
                pair_tails.append(i)
                pair_heads.append(k_src + j)
    n = k_src + k_snk
    scale, amounts = to_integers(wanted)
    feeds, drains = dict(zip(range(k_src), amounts)), dict(zip(range(k_src, n), amounts[k_src:]))
    g = _kernel.wired(n, pair_tails, pair_heads, [None] * len(pair_tails), None, feeds, drains)
    _kernel.max_flow(g, n, n + 1)
    flows = g.rem[2 * len(pair_tails) + 1 :: 2]

    signs = [1] * k_src + [-1] * k_snk
    terminals = zip([*source_ids, *sink_ids], signs, flows)
    # Whole balances stay ints, so that ``Network.of_columns`` scales them as ints.
    balances = {
        names[v]: Fraction(sign * f, scale) if f % scale else sign * f // scale
        for v, sign, f in terminals
        if f
    }

    named = [names[u] for u in tails], [names[v] for v in heads]
    return Network.of_columns(names, *named, caps, draws[2::3], costs, balances)
