"""Instance and report (de)serialization.

Instance documents are JSON objects with ``nodes`` (list of string
ids), ``arcs`` (objects with ``tail``, ``head``, ``capacity``,
``transit``, ``cost``) and ``balances`` (map from node id to value;
missing ids mean zero).  Numeric values are integers or exact strings
("3/2", "1.5"); JSON floats are rejected to keep arithmetic exact.

:func:`network_from_doc` reads a document a column at a time, checks
each column's value types once and parses each distinct string literal
once; only a document it rejects is walked arc by arc, to name the bad
arc.  ``Network.of_columns`` scales the columns into the network's
integer form, which every later stage reads and :func:`network_to_doc`
writes back as text, converting each distinct value once: equal texts in
one document are one string object.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Any

from .errors import InternalCheckError, ValidationError
from .network import Network
from .rationals import as_rational, rational_str


_FIELDS = (("capacity", 1), ("transit", 0), ("cost", 0))


def _value(raw: Any, where: str, memo: dict) -> int | Fraction:
    """``raw`` as :func:`_column` reads it; an error names ``where``."""
    try:
        return _column([raw], memo)[0]
    except (TypeError, ValueError) as exc:
        if isinstance(raw, float):
            raise ValidationError(
                f"{where}: floats are not exact; write the value as a string like \"3/2\""
            ) from None
        raise ValidationError(f"{where}: {exc}") from exc


def _column(values: list, memo: dict) -> list:
    """``values`` with each distinct string parsed by :func:`as_rational` once (``memo``),
    each an int when whole; a bad one raises ``TypeError`` or ``ValueError``, naming no arc."""
    kinds = {*map(type, values)}
    if kinds <= {int}:
        return values
    if not kinds <= {int, str, Fraction}:  # no bool meets its equal int in the memo
        values = [v if type(v) in (int, str) else as_rational(v) for v in values]
    for raw in {*values} - memo.keys():
        parsed = as_rational(raw) if type(raw) is str else raw
        memo[raw] = parsed.numerator if parsed.denominator == 1 else parsed
    return [*map(memo.__getitem__, values)]


def network_from_doc(doc: Any) -> Network:
    """Parse an instance document; raises ValidationError on bad shape."""
    if not isinstance(doc, dict):
        raise ValidationError("instance must be a JSON object")
    nodes = doc.get("nodes")
    if not isinstance(nodes, list) or not all(isinstance(v, str) for v in nodes):
        raise ValidationError("'nodes' must be a list of string ids")
    raw_arcs = doc.get("arcs")
    if not isinstance(raw_arcs, list):
        raise ValidationError("'arcs' must be a list")
    memo: dict = {}
    try:  # dict.get raises TypeError on an arc that is no dict
        tails, heads = ([*map(itemgetter(end), raw_arcs)] for end in ("tail", "head"))
        caps, transits, costs = (
            _column([*map(dict.get, raw_arcs, repeat(key), repeat(default))], memo)
            for key, default in _FIELDS
        )
    except (KeyError, TypeError, ValueError):  # walk the arcs to name the first bad one
        for k, item in enumerate(raw_arcs):
            if not isinstance(item, dict):
                raise ValidationError(f"arc {k} must be an object") from None
            try:
                item["tail"], item["head"]
            except KeyError as exc:
                raise ValidationError(f"arc {k} is missing {exc}") from exc
            for key, default in _FIELDS:
                _value(dict.get(item, key, default), f"arc {k} {key}", memo)
        # The walk reads each value as the column read does, and a column fails
        # in ``_column`` only where one of its values fails alone.
        raise InternalCheckError("a column of the arcs failed but none of its values")
    raw_balances = doc.get("balances", {})
    if not isinstance(raw_balances, dict):
        raise ValidationError("'balances' must be an object")
    try:
        balances = dict(zip(raw_balances, _column([*raw_balances.values()], memo)))
    except (TypeError, ValueError):  # name the first bad balance
        balances = {v: _value(b, f"balance of {v!r}", memo) for v, b in raw_balances.items()}
    try:
        return Network.of_columns(nodes, tails, heads, caps, transits, costs, balances)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc


def _texts(values, scale: int, memos: dict[int, dict]) -> list[str]:
    """Each of ``values / scale`` as :func:`rational_str` writes it.  Each distinct value
    is converted once into ``memos[scale]``, so that equal texts are one string."""
    memo = memos.setdefault(scale, {})
    for value in {*values} - memo.keys():
        memo[value] = str(value) if scale == 1 else str(Fraction(value, scale))
    return [*map(memo.__getitem__, values)]


def network_to_doc(network: Network) -> dict:
    form, nodes = network.integral, network.nodes
    memos: dict[int, dict] = {}
    balances = {v: b for v, b in zip(nodes, form.balances) if b}
    columns = zip(
        map(nodes.__getitem__, form.tails),
        map(nodes.__getitem__, form.heads),
        _texts(form.capacities, form.flow_scale, memos),
        _texts(form.transits, form.time_scale, memos),
        _texts(form.costs, form.cost_scale, memos),
    )
    return {
        "nodes": list(nodes),
        "arcs": [
            {"tail": u, "head": w, "capacity": c, "transit": t, "cost": k}
            for u, w, c, t, k in columns
        ],
        "balances": dict(zip(balances, _texts([*balances.values()], form.flow_scale, memos))),
    }


def load_instance(path: str | Path) -> Network:
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (ValueError, RecursionError) as exc:  # also bad UTF-8, huge ints, deep nesting
        raise ValidationError(f"{path}: not valid JSON ({exc})") from exc
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read ({exc.strerror})") from exc
    return network_from_doc(doc)


def save_instance(network: Network, path: str | Path) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(network_to_doc(network), handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        raise ValidationError(f"{path}: cannot write ({exc.strerror})") from exc


def schedule_to_doc(schedule) -> dict:
    return {
        str(entry.arc): [[s, e, rational_str(r)] for s, e, r in entry.intervals]
        for entry in schedule.arc_flows
    }


def report_to_doc(report, include_schedule: bool = False, storage: dict | None = None) -> dict:
    doc: dict[str, Any] = {
        "mode": report.mode,
        "cost": rational_str(report.cost),
        "horizon": None,
        "scale": report.scale,
        "checks": dict(report.checks),
        "timing": {k: round(v, 6) for k, v in report.timing.items()},
    }
    if report.horizon is not None:
        doc["horizon"] = {
            "steps": report.horizon,
            "original": rational_str(report.horizon_original),
        }
    if report.transport_optimum is not None:
        doc["transport_optimum"] = rational_str(report.transport_optimum)
    if report.subnetwork is not None:
        doc["subnetwork"] = sorted(report.subnetwork)
    if include_schedule and report.schedule is not None:
        doc["schedule"] = schedule_to_doc(report.schedule)
    if storage is not None:
        doc["storage"] = {
            v: [rational_str(x) for x in values] for v, values in storage.items()
        }
    return doc
