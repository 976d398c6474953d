"""Fuzzed input through the command line: grammar strings and operator schemas.

Whatever the input, ``cli.main`` returns one of the documented exit codes and
never lets an exception escape.  The example counts are capped so the suite
stays fast; the seeded profile in conftest.py makes every run the same.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from diffalg.cli import main

EXIT_CODES = {0, 1, 2, 3, 4}

VALID_ATOMS = ["u", "u'", "u''", "u(4)", "u^-1", "1", "-1", "2/3", "7"]
JUNK_ATOMS = ["u(12)", "F", "v", "0", "1/0", "x", ""]


def expressions(atoms, ops, powers):
    def join(parts):
        left, op, right = parts
        return f"{left}{op}{right}"

    return st.recursive(
        st.sampled_from(atoms),
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(ops), inner).map(join),
            st.tuples(inner, st.sampled_from(powers)).map(lambda t: f"({t[0]})^{t[1]}"),
            inner.map(lambda x: f"({x})"),
        ),
        max_leaves=6)


VALID = expressions(VALID_ATOMS, ["+", "-", "*", " * "], [0, 2, 3])
EXPRESSIONS = expressions(VALID_ATOMS + JUNK_ATOMS, ["+", "-", "*", "^", "/", ""],
                          [-3, -1, 0, 2, 5, 10001, 99999])
TEXT = st.one_of(EXPRESSIONS, st.text(alphabet="u'()^*+-/0123456789 Fv", max_size=24))

JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 10 ** 12),
                        st.floats(allow_nan=True), TEXT)
VALID_SCHEMAS = st.fixed_dictionaries({
    "local": st.lists(st.tuples(VALID, st.sampled_from([0, 1, 2, 3, "2", 2.0])).map(list),
                      max_size=3),
    "nonlocal": st.lists(st.tuples(VALID, VALID).map(list), max_size=2),
})
JUNK_SCHEMAS = st.one_of(
    st.fixed_dictionaries({}, optional={
        "local": st.one_of(st.lists(st.one_of(st.tuples(EXPRESSIONS, JSON_VALUES).map(list),
                                              st.lists(JSON_VALUES, max_size=3)),
                                    max_size=3),
                           JSON_VALUES),
        "nonlocal": st.one_of(st.lists(st.one_of(st.tuples(EXPRESSIONS, EXPRESSIONS).map(list),
                                                 st.lists(JSON_VALUES, max_size=3)),
                                       max_size=2),
                              JSON_VALUES),
        "grading": st.one_of(st.dictionaries(st.sampled_from(["u", "F", ""]),
                                             st.sampled_from(["even", "odd", "neither"]),
                                             max_size=2),
                             JSON_VALUES),
    }),
    st.lists(JSON_VALUES, max_size=2), JSON_VALUES)
SCHEMAS = st.one_of(VALID_SCHEMAS, JUNK_SCHEMAS)


def exit_code(*argv) -> int:
    """Run the command line; any exception escaping main fails the test."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))


@settings(max_examples=100, deadline=None)
@given(TEXT)
def test_parse(text):
    # a string either parses or is refused as a usage error
    assert exit_code("parse", "--expr", text) in {0, 2}


@settings(max_examples=40, deadline=None)
@given(TEXT, TEXT)
def test_bracket(left, right):
    assert exit_code("bracket", "--left", left, "--right", right) in EXIT_CODES


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(SCHEMAS)
def test_operator_schema(tmp_path, schema):
    # loading, the first power and serialising back: every schema path
    path = tmp_path / "op.json"
    path.write_text(json.dumps(schema))
    assert exit_code("power", "--op", str(path), "--power", "1") in EXIT_CODES
