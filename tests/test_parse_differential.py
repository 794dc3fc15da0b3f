"""The parser that parses each distinct literal once, against the reference
parser that parses every value (``tests/_brute.network_from_doc``).

Both must return equal networks, every value a ``Fraction``, or raise the
same error with the same message.  Values that are equal but differ in
type (``1``, ``True``, ``1.0``) or in text (``"1"``, ``"1.0"``, ``"2/2"``)
are drawn side by side, so a literal memo keyed by value alone shows up
as a wrong answer or a missing error.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import _brute
from qmct import io

NODES = ["a", "b", "c", "d"]
GOOD = ["1", "1.0", "2/2", "-0", "0", "3/2", "-1", " 2 ", "0.5", 1, 0, -2, 3, Fraction(3, 2)]
BAD = [True, False, 1.0, 0.0, -0.5, None, [1], "x", "1/0", ""]

good_st = st.one_of(st.sampled_from(GOOD), st.integers(-3, 3))
field_st = st.sampled_from(["capacity", "transit", "cost"])
# Each document has at most one flaw; most have none.
FLAWS = [None] * 6 + ["literal"] * 4 + ["ghost", "missing", "arcs", "balances", "nodes", "bare"]


@st.composite
def arc_st(draw):
    arc = {"tail": draw(st.sampled_from(NODES)), "head": draw(st.sampled_from(NODES))}
    for name in draw(st.lists(field_st, unique=True)):
        arc[name] = draw(good_st)
    return arc


@st.composite
def doc_st(draw):
    # A few good literals repeat many times; a flawed document may hold
    # a bad one after good copies of an equal value.
    arcs = draw(st.lists(arc_st(), min_size=1, max_size=12))
    balances = draw(st.dictionaries(st.sampled_from(NODES), good_st, max_size=4))
    doc = {"nodes": list(NODES), "arcs": arcs, "balances": balances}
    flaw = draw(st.sampled_from(FLAWS))
    arc = draw(st.sampled_from(arcs))
    if flaw == "literal":
        bad = draw(st.sampled_from(BAD))
        if draw(st.booleans()):
            arc[draw(field_st)] = bad
        else:
            balances[draw(st.sampled_from(NODES))] = bad
    elif flaw == "ghost":
        arc[draw(st.sampled_from(["tail", "head"]))] = "ghost"
    elif flaw == "missing":
        del arc[draw(st.sampled_from(["tail", "head"]))]
    elif flaw == "arcs":
        doc["arcs"] = "not a list"
    elif flaw == "balances":
        doc["balances"] = draw(st.sampled_from([["a"], {"ghost": 1}]))
    elif flaw == "nodes":
        doc["nodes"] = "abcd"
    elif flaw == "bare":
        del doc["balances"]
    return doc


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
