"""The parser that parses each distinct literal once, against the reference
parser that parses every value (``tests/_brute.network_from_doc``).

Both must return equal networks, every value a ``Fraction``, or raise the
same error with the same message.  Values that are equal but differ in
type (``1``, ``True``, ``1.0``) or in text (``"1"``, ``"1.0"``, ``"2/2"``)
are drawn side by side, so a literal memo keyed by value alone shows up
as a wrong answer or a missing error.  Documents with two flaws pin which
error is named first: the parser reads whole columns at once and walks
the arcs one by one only to name the first bad one.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _brute
from qmct import io
from qmct.errors import ValidationError

NODES = ["a", "b", "c", "d"]
GOOD = ["1", "1.0", "2/2", "-0", "0", "3/2", "-1", " 2 ", "0.5", 1, 0, -2, 3, Fraction(3, 2)]
BAD = [True, False, 1.0, 0.0, -0.5, None, [1], "x", "1/0", ""]

good_st = st.one_of(st.sampled_from(GOOD), st.integers(-3, 3))
field_st = st.sampled_from(["capacity", "transit", "cost"])
# A document has at most one flaw from FLAWS, and most have none; a
# second flaw, when drawn, is one of an arc and comes last.
FLAWS = [None] * 6 + ["literal"] * 4 + ["ghost", "missing", "arcs", "balances", "nodes", "bare"]
ARC_FLAWS = ["literal"] * 3 + ["missing"] * 2 + ["ghost", "object"]


@st.composite
def arc_st(draw):
    arc = {"tail": draw(st.sampled_from(NODES)), "head": draw(st.sampled_from(NODES))}
    for name in draw(st.lists(field_st, unique=True)):
        arc[name] = draw(good_st)
    return arc


@st.composite
def doc_st(draw, pools=(FLAWS,)):
    # A few good literals repeat many times; a flawed document may hold
    # a bad one after good copies of an equal value.
    arcs = draw(st.lists(arc_st(), min_size=1, max_size=12))
    balances = draw(st.dictionaries(st.sampled_from(NODES), good_st, max_size=4))
    doc = {"nodes": list(NODES), "arcs": arcs, "balances": balances}
    for pool in pools:
        _flaw(draw, doc, draw(st.sampled_from(pool)))
    return doc


def _flaw(draw, doc, flaw):
    """Give ``doc`` the flaw; after a flaw of its arcs list, no arc flaw can follow."""
    if flaw is None or not isinstance(doc["arcs"], list):
        return
    arc, balances = draw(st.sampled_from(doc["arcs"])), doc.get("balances")
    if flaw == "literal":
        bad = draw(st.sampled_from(BAD))
        if draw(st.booleans()) or not isinstance(balances, dict):
            arc[draw(field_st)] = bad
        else:
            balances[draw(st.sampled_from(NODES))] = bad
    elif flaw == "ghost":
        arc[draw(st.sampled_from(["tail", "head"]))] = "ghost"
    elif flaw == "object":
        k = draw(st.integers(0, len(doc["arcs"]) - 1))
        doc["arcs"][k] = draw(st.sampled_from([7, None, ["a", "b"], "a->b"]))
    elif flaw == "missing":
        arc.pop(draw(st.sampled_from(["tail", "head"])), None)
    elif flaw == "arcs":
        doc["arcs"] = "not a list"
    elif flaw == "balances":
        doc["balances"] = draw(st.sampled_from([["a"], {"ghost": 1}]))
    elif flaw == "nodes":
        doc["nodes"] = "abcd"
    elif flaw == "bare":
        doc.pop("balances", None)


def _outcome(parse, doc):
    try:
        return "ok", parse(doc)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_same(doc):
    got, want = _outcome(io.network_from_doc, doc), _outcome(_brute.network_from_doc, doc)
    if want[0] != "ok":
        assert got == want, doc
        return
    assert got[0] == "ok", (got, doc)
    net, ref = got[1], want[1]
    assert net.nodes == ref.nodes
    assert net.arcs == ref.arcs
    assert net.balances == ref.balances
    assert net.integral == ref.integral
    values = [x for a in net.arcs for x in (a.capacity, a.transit, a.cost)]
    assert all(type(x) is Fraction for x in [*values, *net.balances.values()])


@settings(max_examples=400)
@given(doc_st())
@example({"nodes": ["a"], "arcs": [], "balances": {"a": True}})
@example({"nodes": ["a", "b"], "arcs": [], "balances": {"a": 1, "b": True}})
@example({"nodes": ["a", "b"], "arcs": [], "balances": {"a": "1", "b": [1]}})
def test_parsers_agree(doc):
    _assert_same(doc)


def _arcs(*fields):
    """Arcs from a to b, each with its given fields."""
    return [{"tail": "a", "head": "b", **f} for f in fields]


@settings(max_examples=400)
@given(doc_st((FLAWS, ARC_FLAWS)))
# A missing end before a bad literal, and after one.
@example({"nodes": ["a", "b"], "arcs": [*_arcs({}), {"tail": "a"}, *_arcs({}, {"cost": "x"})]})
@example({"nodes": ["a", "b"], "arcs": [*_arcs({}, {"cost": "x"}, {}), {"tail": "a"}]})
# ``1`` and ``True`` in one column, either first; two bad values in one arc.
@example({"nodes": ["a", "b"], "arcs": _arcs({"transit": 1}, {"transit": True})})
@example({"nodes": ["a", "b"], "arcs": _arcs({"capacity": True}, {"capacity": 1})})
@example({"nodes": ["a", "b"], "arcs": _arcs({"cost": "1/0", "capacity": 1.0})})
# A bad literal named before an unknown node of an earlier arc.
@example({"nodes": ["a", "b"], "arcs": [{"tail": "ghost", "head": "b"}, *_arcs({"cost": None})]})
# A bad arc after a bad balance, and a bad balance after an equal good one.
@example({"nodes": ["a", "b"], "arcs": [7], "balances": {"a": "x"}})
@example({"nodes": ["a", "b"], "arcs": _arcs({"cost": "1"}), "balances": {"a": "1", "b": True}})
def test_parsers_agree_on_two_flaws(doc):
    _assert_same(doc)


@pytest.mark.parametrize(
    "good, bad, message",
    [
        (1, True, "arc 2 transit: expected a rational number, got bool True"),
        (1, 1.0, 'arc 2 transit: floats are not exact; write the value as a string like "3/2"'),
        ("1", "1/0", "arc 2 transit: not a valid rational literal: '1/0'"),
        (0, False, "arc 2 transit: expected a rational number, got bool False"),
    ],
)
def test_a_bad_literal_after_good_copies_of_it_is_rejected(good, bad, message):
    arcs = [{"tail": "a", "head": "b", "capacity": good, "transit": good} for _ in range(2)]
    arcs.append({"tail": "a", "head": "b", "capacity": good, "transit": bad})
    doc = {"nodes": ["a", "b"], "arcs": arcs, "balances": {"a": good, "b": f"-{good}"}}
    assert _outcome(io.network_from_doc, doc)[1] == message
    _assert_same(doc)


class _Masked(dict):
    """An arc whose own ``get`` hides every stored value."""

    def get(self, key, default=None):
        return default


def test_the_arc_walk_reads_each_value_as_the_column_read_does():
    # The column read takes each value by ``dict.get``.  A walk by the arc's
    # own ``get`` would pass this arc and leave the bad cost unnamed.
    doc = {"nodes": ["a", "b"], "arcs": [_Masked(tail="a", head="b", cost="x")]}
    with pytest.raises(ValidationError, match="^arc 0 cost: not a valid rational literal: 'x'$"):
        io.network_from_doc(doc)
