"""Mutation fuzzing of the two readers of user files: the ``render`` payload
(``DiffPoly.from_json_dict``) and the table file of ``hain-pair``
(``IntegralTable.from_json_dict``).

Each example takes a document the writers emit, mutates one to three of its
nodes (or its text), and runs the verb in-process.  A reader either accepts
the document or refuses it with its documented exit code and one short
stderr line, however large the value it echoes; ``render`` output reads
back unchanged.
"""

import io
import json
import sys
from copy import deepcopy
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drhier import cli
from drhier.diffpoly import DiffPoly
from drhier.drspin import IntegralTable, TautMonomial, hain_expand

GOLDEN = Path(__file__).parent / "golden"
LINE_MAX = 400  # a refusal echoes excerpts, never a whole value

# values a mutation puts in place of a node: wrong types, edge integers and
# strings, and values whose repr runs to thousands of characters
SHORT = [None, True, False, 0, -1, 1, 2, 3, 4095, 32768, 10 ** 40, 0.5, "", "0", "1",
         "-3/7", "1/0", "2/4", "1e5", [], {}, [1, 0, 1], [[1, 0, 1]], {"N": 1},
         [0, [1]], [2, 2, 2]]  # a boundary class with no divisor name; labels for n = 3
LONG = [10 ** 4000, "9" * 5000, "-" + "9" * 6000 + "/7", "x" * 6000, [0] * 2000,
        {"k" * 5000: 1}]
VALUES = st.sampled_from(SHORT) | st.sampled_from(LONG)


def run_cli(argv, stdin=""):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def nodes(doc, path=()):
    """Every (path, node) of a parsed JSON document, the root included."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from nodes(value, path + (key,))


@st.composite
def mutated(draw, documents):
    """JSON text of one of the documents with one to three mutations."""
    doc = deepcopy(draw(st.sampled_from(documents)))
    for _ in range(draw(st.integers(1, 3))):
        paths = [path for path, _ in nodes(doc) if path]
        if not paths or not draw(st.integers(0, 19)):
            doc = deepcopy(draw(VALUES))  # the whole document
            continue
        kind = draw(st.sampled_from(["replace", "replace", "delete", "duplicate"]))
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if kind == "replace":
            parent[key] = deepcopy(draw(VALUES))
        elif kind == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, deepcopy(parent[key]))
        else:
            parent[key] = [parent[key], deepcopy(parent[key])]
    text = json.dumps(doc)
    if draw(st.integers(0, 5)) == 0:  # a text-level cut or insertion
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(["", "}", ",", "\"", "1", "\x00"])) \
            + (text[at + 1:] if draw(st.booleans()) else text[at:])
    return text


def render_payloads():
    """Every DiffPoly payload that a golden JSON output holds (a golden of a
    refusal holds its stderr line instead)."""
    found = []
    for path in sorted(GOLDEN.glob("*.json")):
        text = path.read_text()
        stack = [json.loads(text)] if text.startswith("{") else []
        while stack:
            node = stack.pop()
            if isinstance(node, dict):
                if "N" in node and isinstance(node.get("terms"), list):
                    found.append(node)
                stack.extend(node.values())
            elif isinstance(node, list):
                stack.extend(node)
    return found


RENDER_PAYLOADS = render_payloads()


def assert_one_short_line(err, prefix):
    assert err.startswith(prefix) and err.endswith("\n") and err.count("\n") == 1, err[:200]
    assert len(err) <= LINE_MAX, (len(err), err[:200])


@settings(max_examples=80, deadline=None)
@given(mutated(RENDER_PAYLOADS))
def test_mutated_render_payloads_are_read_or_refused_in_one_line(text):
    code, out, err = run_cli(["render", "--format", "json"], text)
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE)
    if code == cli.EXIT_USAGE:
        assert out == ""
        assert_one_short_line(err, "malformed render input: ")
        return
    assert err == ""
    # what render writes, it reads back unchanged
    assert run_cli(["render", "--format", "json"], out) == (cli.EXIT_OK, out, "")
    data = json.loads(text)
    if not data.get("integrated"):
        assert DiffPoly.from_json_dict(json.loads(out)) == DiffPoly.from_json_dict(data)


def worked_table_dict():
    """The g = 2, n = 2 table for labels (2, 2) that ``hain-pair --g 2
    --counts 0,2`` pairs: every monomial of Hain's expansion, boundary
    classes at 0."""
    entries = {TautMonomial(psi=(2, 0)): Fraction(7, 4320),
               TautMonomial(psi=(1, 1)): Fraction(13, 4320),
               TautMonomial(psi=(0, 2)): Fraction(7, 4320)}
    entries.update((sym, Fraction(0)) for sym in hain_expand(2, 2) if sym.boundary)
    return IntegralTable(g=2, n=2, labels=(2, 2), entries=entries.items()).to_json_dict()


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "table.json"


# the documented refusals: a malformed table, a strict-policy miss, and a
# well-formed table for another g, n or labels than the command line's
TABLE_EXITS = {cli.EXIT_TABLE_FILE: "table file error: ",
               cli.EXIT_TABLE_MISS: "table miss under strict policy: ",
               cli.EXIT_PRECONDITION: "error: the table "}


@settings(max_examples=80, deadline=None)
@given(text=mutated([worked_table_dict()]))
def test_mutated_table_files_are_read_or_refused_in_one_line(table_path, text):
    table_path.write_text(text)
    code, out, err = run_cli(["hain-pair", "--g", "2", "--counts", "0,2",
                              "--table-file", str(table_path)])
    assert code == cli.EXIT_OK or code in TABLE_EXITS, (code, err[:200])
    if code == cli.EXIT_OK:
        assert err == "" and out
    else:
        assert out == ""
        assert_one_short_line(err, TABLE_EXITS[code])
