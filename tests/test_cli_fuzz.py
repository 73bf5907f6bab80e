"""Fuzz the command line over small, negative and missing arguments and
over malformed plan and staircase files.

Contract: the exit code is 0, 1, 2 or 3, no Python traceback reaches
stderr, and the same argv prints the same stdout when it runs again.
Invalid nagata input (k, m or trials below 1, a negative d_max, a prime
not above a degree the run uses, or --d-max / --trials without the oracle
table) exits 2, and so does a plan file that plan.schema.json rejects.
A staircase file exits 0 or 2; a text staircase file exits 0 exactly when
every line is blank or "index:height", the indices are distinct and the
heights form a staircase.
"""

import contextlib
import copy
import io
import json
import os
import re
import tempfile
import traceback

import jsonschema
from hypothesis import example, given, settings
from hypothesis import strategies as st

from limitseries.cli import _schema_errors, main
from test_cli import PLAN_OK, load_schema

SETTINGS = settings(max_examples=30, deadline=None)
PLAN_SCHEMA = jsonschema.Draft7Validator(load_schema("plan.schema.json"))
# the keywords the CLI's plan-file check reads
SCHEMA_SUBSET = {"$schema", "title", "type", "minimum", "minItems",
                 "required", "properties", "items", "oneOf"}

small_ints = st.one_of(st.none(), st.integers(min_value=-2, max_value=4))
height_strings = st.one_of(
    st.none(),
    st.lists(st.integers(min_value=-1, max_value=3), max_size=4).map(
        lambda hs: ",".join(str(h) for h in hs)),
    st.sampled_from(["", "x", "1,,2", "3,a"]))


def invoke(argv):
    """Run the CLI in-process; an escaping exception is reported the way
    the interpreter would report it (traceback on stderr, exit 1)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def check_contract(argv):
    code, out, err = invoke(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err, (argv, err)
    again, out2, _ = invoke(argv)
    assert (again, out2) == (code, out), argv
    return code


def option(flag, value):
    return [] if value is None else [flag, str(value)]


@SETTINGS
@given(op=st.sampled_from(["suppress", "slice", "collide", "check"]),
       heights=height_strings, t=small_ints, k=small_ints,
       a=height_strings, b=height_strings)
@example(op="collide", heights=None, t=None, k=None, a="2,1", b=None)
def test_staircase_argv(op, heights, t, k, a, b):
    argv = (["staircase", op] + option("--heights", heights)
            + option("--t", t) + option("--k", k)
            + option("--a", a) + option("--b", b))
    check_contract(argv)


@SETTINGS
@given(k=st.integers(min_value=-1, max_value=2),
       m=st.integers(min_value=-1, max_value=2),
       d_max=st.one_of(st.none(), st.integers(min_value=-2, max_value=4)),
       trials=st.one_of(st.none(), st.integers(min_value=0, max_value=2)),
       prime=st.sampled_from([2, 3, 5, 7, 1000003]),
       oracle=st.booleans(), certificate=st.booleans())
@example(k=2, m=1, d_max=-1, trials=1, prime=1000003, oracle=False,
         certificate=False)
@example(k=2, m=1, d_max=None, trials=1, prime=3, oracle=False,
         certificate=False)
@example(k=2, m=2, d_max=None, trials=None, prime=5, oracle=False,
         certificate=True)
@example(k=2, m=1, d_max=-1, trials=0, prime=1000003, oracle=False,
         certificate=True)
def test_nagata_argv(k, m, d_max, trials, prime, oracle, certificate):
    argv = (["nagata", "--k", str(k), "--m", str(m), "--prime", str(prime)]
            + option("--trials", trials) + option("--d-max", d_max)
            + (["--oracle"] if oracle else [])
            + (["--certificate"] if certificate else []))
    invalid = False
    if oracle or not certificate:
        top = k * m + k if d_max is None else d_max
        invalid = (k < 1 or m < 1 or (trials is not None and trials < 1)
                   or top < 0 or prime <= top)
    else:
        # --d-max and --trials only shape the oracle table
        invalid = d_max is not None or trials is not None
    if certificate:
        # the certificate replays the base case min(k, 3) by the oracle
        base = min(k, 3)
        invalid = invalid or k < 2 or m < 1 or prime <= base * m + base
    code = check_contract(argv)
    assert (code == 2) == invalid, (argv, code)


PLAN_PATHS = [
    (), ("shapes",), ("shapes", 0), ("shapes", 0, 0), ("speeds",),
    ("speeds", 0), ("levels",), ("levels", 1), ("model",),
    ("model", "degree"), ("model", "line_base_degrees"),
    ("model", "line_base_degrees", 0), ("scene",), ("scene", "divisor_base"),
    ("scene", "divisor_base", 0), ("scene", "ambient_base"),
    ("scene", "prime"), ("scene", "seed"),
]
MISSING = object()
wrong_values = st.one_of(
    st.just(MISSING), st.none(), st.booleans(),
    st.integers(min_value=-3, max_value=5),
    st.floats(min_value=-2, max_value=6, allow_nan=False),
    st.sampled_from(["", "4", "7", "x"]),
    st.lists(st.integers(min_value=-1, max_value=3), max_size=3),
    st.sampled_from([{}, [[1]], {"dim": 2}, {"dim": 2, "heights": 1}]))


def mutate(plan, path, value):
    """Replace (or, for MISSING, delete) the entry at path; a path that no
    longer exists leaves the plan as it is."""
    if not path:
        return plan if value is MISSING else copy.deepcopy(value)
    try:
        parent = plan
        for key in path[:-1]:
            parent = parent[key]
        if value is MISSING:
            del parent[path[-1]]
        elif isinstance(parent, dict) or path[-1] < len(parent):
            parent[path[-1]] = copy.deepcopy(value)
    except (KeyError, IndexError, TypeError):
        pass
    return plan


@settings(max_examples=60, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(PLAN_PATHS), wrong_values),
                      min_size=1, max_size=2),
       mode=st.sampled_from([[], ["--verify-limit"],
                             ["--oracle", "--verify-limit"]]))
@example(edits=[(("model", "degree"), "4")], mode=[])
@example(edits=[(("shapes", 0), {"dim": 2, "heights": [[0, 2.7]]})], mode=[])
@example(edits=[(("shapes", 0), {"dim": 2.0, "heights": [[0, 2.0]]})],
         mode=["--oracle", "--verify-limit"])
@example(edits=[(("scene", "divisor_base"), [0])], mode=["--verify-limit"])
@example(edits=[(("model", "line_base_degrees"), [4])], mode=[])
@example(edits=[(("model", "line_base_degrees"), [4])],
         mode=["--oracle", "--verify-limit"])
def test_limit_plan_file(edits, mode):
    plan = copy.deepcopy(PLAN_OK)
    for path, value in edits:
        plan = mutate(plan, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "plan.json")
        with open(path, "w") as fh:
            json.dump(plan, fh)
        code = check_contract(["limit", path] + mode)
    if not PLAN_SCHEMA.is_valid(plan):
        assert code == 2, (plan, mode, code)
    # the CLI checks the file's numbers (a zero fraction reads as an
    # integer) against plan.schema.json itself, and agrees with jsonschema
    read = json.loads(json.dumps(plan), parse_float=lambda text: int(
        float(text)) if float(text).is_integer() else float(text))
    assert (next(_schema_errors(read, PLAN_SCHEMA.schema), None) is None) \
        == PLAN_SCHEMA.is_valid(plan), plan


STAIRCASE_OK = {"dim": 2, "heights": [[0, 3], [1, 2], [2, 1]]}
STAIRCASE_PATHS = [(), ("dim",), ("heights",), ("heights", 0),
                   ("heights", 0, 0), ("heights", 0, 1), ("heights", 2)]
staircase_values = st.one_of(
    st.just(MISSING), st.none(), st.booleans(),
    st.integers(min_value=-2, max_value=4),
    st.floats(min_value=-3, max_value=5),
    st.sampled_from([float("inf"), float("nan"), 1e300, "", "2"]),
    st.recursive(st.integers(min_value=-1, max_value=3),
                 lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
                     st.sampled_from(["dim", "heights", "x"]), inner,
                     max_size=2),
                 max_leaves=5))


@settings(max_examples=80, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(STAIRCASE_PATHS),
                                staircase_values), min_size=1, max_size=2))
@example(edits=[(("heights",), MISSING)])
@example(edits=[(("dim",), MISSING), (("heights",), [])])
@example(edits=[(("heights",), 5)])
@example(edits=[(("heights",), [5])])
@example(edits=[(("heights", 0), [[0], 3, 1])])
def test_staircase_file(edits):
    data = copy.deepcopy(STAIRCASE_OK)
    for path, value in edits:
        data = mutate(data, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "staircase.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        code = check_contract(["staircase", "check", "--file", path])
    assert code in (0, 2), (data, code)


text_lines = st.one_of(
    st.tuples(st.integers(min_value=-1, max_value=4),
              st.integers(min_value=-1, max_value=4)).map(
        lambda ih: f"{ih[0]}:{ih[1]}"),
    st.sampled_from(["", "   ", "0:2:3", "5", ":", "1:", ":2", "a:1", "1:b",
                     "1.5:2", "0;2", "0:2 x", "[[0, 2]]", "{"]))


@settings(max_examples=80, deadline=None)
@given(lines=st.lists(text_lines, max_size=5))
@example(lines=["0:2", "0:1"])
@example(lines=["0:2", "", "1:1"])
@example(lines=["0:2:3"])
@example(lines=["[[0, 2]]"])
def test_staircase_text_file(lines):
    text = "\n".join(lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "staircase.txt")
        with open(path, "w") as fh:
            fh.write(text)
        code = check_contract(["staircase", "check", "--file", path])
    pairs = [tuple(map(int, m.groups())) for m in
             (re.fullmatch(r"(-?\d+):(-?\d+)", line) for line in lines) if m]
    heights = dict(pairs)
    valid = (len(pairs) == sum(1 for line in lines if line.strip())
             and len(heights) == len(pairs)
             and all(i >= 0 and h >= 0 for i, h in pairs)
             and all(h <= heights.get(i - 1, 0) for i, h in pairs
                     if i > 0 and h > 0))
    assert code == (0 if valid else 2), (text, code)


def test_plan_schema_uses_the_subset_the_cli_reads():
    def keywords(schema):
        yield from schema
        for sub in schema.get("properties", {}).values():
            yield from keywords(sub)
        for sub in schema.get("oneOf", ()):
            yield from keywords(sub)
        if "items" in schema:
            yield from keywords(schema["items"])
    assert set(keywords(PLAN_SCHEMA.schema)) <= SCHEMA_SUBSET
