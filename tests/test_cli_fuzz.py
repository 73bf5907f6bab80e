"""Fuzz the command line over small, negative and missing arguments.

Contract: the exit code is 0, 1, 2 or 3, no Python traceback reaches
stderr, and the same argv prints the same stdout when it runs again.
Invalid nagata input (k, m or trials below 1, a negative d_max, or a prime
not above a degree the run uses) exits 2.
"""

import contextlib
import io
import traceback

from hypothesis import example, given, settings
from hypothesis import strategies as st

from limitseries.cli import main

SETTINGS = settings(max_examples=30, deadline=None)

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
       trials=st.integers(min_value=0, max_value=2),
       prime=st.sampled_from([2, 3, 5, 7, 1000003]),
       oracle=st.booleans(), certificate=st.booleans())
@example(k=2, m=1, d_max=-1, trials=1, prime=1000003, oracle=False,
         certificate=False)
@example(k=2, m=1, d_max=None, trials=1, prime=3, oracle=False,
         certificate=False)
@example(k=2, m=2, d_max=None, trials=1, prime=5, oracle=False,
         certificate=True)
def test_nagata_argv(k, m, d_max, trials, prime, oracle, certificate):
    argv = (["nagata", "--k", str(k), "--m", str(m), "--trials", str(trials),
             "--prime", str(prime)] + option("--d-max", d_max)
            + (["--oracle"] if oracle else [])
            + (["--certificate"] if certificate else []))
    invalid = False
    if oracle or not certificate:
        top = k * m + k if d_max is None else d_max
        invalid = k < 1 or m < 1 or trials < 1 or top < 0 or prime <= top
    if certificate:
        # the certificate replays the base case min(k, 3) by the oracle
        base = min(k, 3)
        invalid = invalid or k < 2 or m < 1 or prime <= base * m + base
    code = check_contract(argv)
    assert (code == 2) == invalid, (argv, code)
