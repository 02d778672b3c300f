"""The exit-code contract of the CLI, as properties over its inputs.

Every command exits 0, 2 or 3, never 4 (an internal error), and on exit 0
no CSV cell is NaN.  Three inputs are fuzzed.

Spellings of one distribution: `wf`, `ms` and `extend` give two spellings
of one distribution the same exit code and, on exit 0, the same CSV bytes.
A spelling writes each coefficient as a decimal, a fraction or an integer,
or splits it into two parts that add up exactly, and may add a pair of
terms that cancel.  Coefficients range over 0, dyadic rationals, tiny and
huge magnitudes, NaN and the infinities.  An integer order is written with
or without leading zeros (and an order 0 may be left out), an exponent as a
decimal with or without trailing zeros; orders range up to and past the
largest the pairings take, log powers up to and past 170.

Algebra files for `gns`: a valid file with records dropped (omega among
them), fields redrawn (indices in and out of range, finite, tiny, huge and
non-finite values, words, a 5,000-digit number) and records added.

Config keys: every key of every command, one at a time, at a boundary value
(0, -1, nan, +-inf, 1e300, 1e-300, a word, a boolean, a list); a size key
takes small and negative values only, so that no case starts a large
computation.

EXPRESSION_EXAMPLES, ALGEBRA_EXAMPLES and KEY_EXAMPLES are explicit
examples of the three, each with the exit code it must give;
tools/system_lines.py runs them as user paths.
"""

import cmath
import functools
import math
import re
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings

from paqft import cli

ORDERS = st.sampled_from((0, 1, 2, 170, 2 ** 1024 - 2 ** 970 - 1,
                          2 ** 1024 - 2 ** 970, int("9" * 400)))
LOG_POWERS = st.sampled_from((0, 1, 2, 170, 171, 10 ** 30))
EXPONENTS = st.sampled_from((-2.0, -1.5, -1.0, -0.5))

# per command: the atoms of its distributions, in order, as (name, strategy
# of its parameters), and an atom that only ever appears in a cancelling pair
ATOMS = {
    "wf": ((("delta", st.tuples(ORDERS)), ("heaviside", st.tuples(ORDERS)),
            ("(x+i0)", st.just((-1.0,)))), "x^1"),
    "ms": ((("x_+", st.tuples(EXPONENTS, LOG_POWERS)),), "delta"),
    "extend": ((("delta", st.tuples(ORDERS)), ("x", st.tuples(ORDERS)),
                ("x_+", st.tuples(EXPONENTS, LOG_POWERS))), "heaviside"),
}
HUGE = (1e300, -1e300, 1e307, 1e308, -1.7976931348623157e308)
VALUES = st.one_of(
    st.integers(-64, 64).map(lambda k: k / 8),
    st.sampled_from((0.0, -0.0, 5e-324, 1e-300) + HUGE
                    + (math.nan, math.inf, -math.inf)))
DYADIC = st.integers(-64, 64).filter(bool).map(lambda k: k / 8)

# (command, expression) -> exit code: a failed check (3) and the
# distributions that only some commands take (2)
EXPRESSION_EXAMPLES = {
    ("extend", "delta^100"): 3,
    ("extend", "1.7e308*(x+i0)^-2"): 3,
    ("ms", "1.7e308*(x+i0)^-2"): 3,
    ("extend", "0*delta"): 2,
    ("ms", "delta"): 2,
    ("ms", "delta + x_+^-1"): 2,
    ("wf", "x_+^-0.5"): 2,
}


def _numeral(draw, c, bare=True):
    """A spelling of the float c as a coefficient ('' for a bare atom)."""
    if math.isnan(c):
        return draw(st.sampled_from(("nan", "NaN")))
    if math.isinf(c):
        sign = "-" if c < 0 else ""
        return sign + draw(st.sampled_from(
            ("inf", "Infinity", "1e400", "1%s/3" % ("0" * 400))))
    ways = [repr(c), "%d/%d" % c.as_integer_ratio()]
    if c.is_integer():
        ways.append("%d" % c)
    if c == 1.0 and bare:
        ways.append("")
    return draw(st.sampled_from(ways))


def _decimals(a):
    """Spellings of the exponent a."""
    return [repr(a), "%.3f" % a] + (["%d" % a] if a.is_integer() else [])


def _atom(draw, name, params):
    """A spelling of the atom `name` with its order or exponent params."""
    if name == "(x+i0)":
        ways = ["(x+i0)^" + a for a in _decimals(params[0])]
    elif name == "x_+":
        a, p = params
        logs = ["*log^%d" % p, "*log^0%d" % p] + ([""] if p == 0 else [])
        ways = ["x_+^" + e + log for e in _decimals(a) for log in logs]
    else:
        k, = params
        ways = ["%s^%d" % (name, k), "%s^0%d" % (name, k)]
        if k == 0 and name != "x":
            ways.append(name)
    return draw(st.sampled_from(ways))


@st.composite
def spelling(draw, base, spare):
    terms = []  # (coefficient spelling, atom)
    for c, (name, params) in base:
        atom = _atom(draw, name, params)
        parts = [c]
        d = draw(DYADIC)
        if (math.isfinite(c) and draw(st.booleans())
                and Fraction(c - d) + Fraction(d) == Fraction(c)):
            parts = [d, c - d]
        terms += [(_numeral(draw, p), atom) for p in parts]
    if draw(st.booleans()):
        d = _numeral(draw, draw(DYADIC), bare=False)
        at = draw(st.integers(0, len(terms)))
        neg = d[1:] if d.startswith("-") else "-" + d
        terms[at:at] = [(d, spare), (neg, spare)]
    out = []
    for num, atom in terms:
        term = "%s*%s" % (num, atom) if num else atom
        if not out:
            out.append(term)
        elif num.startswith("-") and draw(st.booleans()):
            out.append(" - " + term[1:])
        else:
            out.append(" + " + term)
    return "".join(out)


@st.composite
def two_spellings(draw):
    command = draw(st.sampled_from(sorted(ATOMS)))
    atoms, spare = ATOMS[command]
    n = draw(st.integers(1, len(atoms)))
    base = [(draw(VALUES), (name, draw(params)))
            for name, params in atoms[:n]]
    return (command, draw(spelling(base, spare)),
            draw(spelling(base, spare)))


def _number(cell):
    """A CSV cell as a complex number (written with a trailing i), or None
    for a cell that is no number."""
    try:
        return complex(cell[:-1] + "j" if cell.endswith("i") else cell)
    except ValueError:
        return None


def _is_nan(cell):
    v = _number(cell)
    return v is not None and cmath.isnan(v)


def run_expression(tmp, command, expr, label):
    # overflow warnings are the CLI's to print, not the test's errors
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        res = CliRunner().invoke(cli.main, [
            command, "--out", str(tmp), "--label", label, "--", expr])
    if res.exit_code != 0:
        return res.exit_code, None
    return 0, (tmp / ("%s_%s.csv" % (command, label))).read_bytes()


def _expression_examples(test):
    for command, expr in EXPRESSION_EXAMPLES:
        test = example((command, expr, expr))(test)
    return test


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@_expression_examples
@given(two_spellings())
def test_spellings_of_one_distribution_agree(tmp_path_factory, case):
    command, a, b = case
    tmp = tmp_path_factory.mktemp("contract")
    code_a, data_a = run_expression(tmp, command, a, "a")
    code_b, data_b = run_expression(tmp, command, b, "b")
    assert code_a in (0, 2, 3), (command, a, code_a)
    assert code_a == EXPRESSION_EXAMPLES.get((command, a), code_a), case
    assert (code_a, data_a) == (code_b, data_b), (command, a, b)
    if data_a is not None:
        cells = data_a.decode().replace("\n", ",").split(",")
        assert not any(map(_is_nan, cells)), (command, a)


# ------------------------------------------------------------- config keys

SIZES = {"n_t", "n_x", "n_sites", "n", "lines", "n_steps"}
BOUNDARY = ("0", "-1", "nan", "inf", "-inf", "1e300", "1e-300", "word",
            "yes", "0, -1")
SMALL = ("0", "-1", "1", "3", "nan", "inf", "-inf", "word", "yes", "0, -1")
ARGUMENTS = {"extend": ["(x+i0)^-2"], "ms": ["x_+^-1"], "wf": ["delta"]}
# (command, key, value) -> exit code: the inputs that once gave another
# code (4 for invalid input, 2 for a bug, or no exit at all), then one
# value for each way a config value is rejected
KEY_EXAMPLES = {
    ("weyl", "dx", "0.3"): 2,  # ShiftOffGrid
    ("weyl", "hbar", "0.3"): 2,
    ("commutator", "a_x", "1e300"): 2,  # OverflowError
    ("commutator", "mass", "1e300"): 2,
    ("commutator", "mass", "nan"): 2,  # exit 2 by a bare ValueError
    ("commutator", "mass", "1e-300"): 2,
    ("commutator", "n_sites", "97"): 2,  # more sites than 12 x 8: a hang
    ("wf", "centers", "0.3"): 2,  # the window's annulus holds the origin
    ("weyl", "dx", "1e300"): 2,  # ShiftOffGrid: hbar / dx = 1e-300 cells
    ("graphs", "linez", "9"): 2,
    ("graphs", "n", "2.5"): 2,
    ("graphs", "n", "0"): 2,
    ("commutator", "mass", "yes"): 2,
    ("wf", "centers", "inf"): 2,
    ("wf", "centers", "1e300"): 2,  # x0 +- R one float: once regular rays
    ("wf", "centers", "1e14"): 2,  # phase error 8: once a singular constant
    ("wf", "centers", "1e10"): 2,  # phase error 1e-3: once a singular constant
    ("weyl", "dx", "0"): 2,
    ("flow", "x0", "1"): 2,
    ("flow", "metric", "curly"): 2,
    ("flow", "metric", "conformal"): 0,
    ("suite", "only", "14"): 2,
    ("gns", "algebra_file", "no/such/file"): 2,
    ("weyl", "n", "100000"): 2,  # no grid size: an unknown key
    ("weyl", "dx", "0.1"): 0,  # the decimal it spells: 10 cells
    ("propagators", "a_t", "0.1"): 0,  # the decimal it spells: 1/10
    ("weyl", "dx", "1/3"): 0,
    ("weyl", "hbar", "1e-300"): 2,  # once rounded to a shift of 0 cells
    ("graphs", "n", "10"): 2,  # C(49, 4) multigraphs: over MAX_GRAPHS
    ("graphs", "lines", "100000"): 2,
}


@functools.lru_cache(maxsize=None)
def command_keys():
    """{command: the config keys it reads}, as its unknown-key error (exit 2,
    before any work) lists them."""
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "unknown.cfg"
        cfg.write_text("no_such_key = 1\n")
        keys = {}
        for command in sorted(cli.main.commands):
            res = CliRunner().invoke(cli.main, [
                command, *ARGUMENTS.get(command, []), "--config", str(cfg),
                "--out", tmp])
            reads = re.search(r"this command reads: (.*)\)$", res.output,
                              flags=re.M).group(1)
            keys[command] = [] if reads == "none" else reads.split(", ")
    return keys


@st.composite
def key_case(draw):
    command, key = draw(st.sampled_from(
        [(c, k) for c, keys in sorted(command_keys().items()) for k in keys]))
    return command, key, draw(st.sampled_from(SMALL if key in SIZES
                                              else BOUNDARY))


def run_key_case(out, command, key, value):
    """paqft `command` with the one config line `key = value`; (exit code,
    output)."""
    cfg = Path(out) / "key.cfg"
    cfg.write_text("%s = %s\n" % (key, value))
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        res = CliRunner().invoke(cli.main, [
            command, *ARGUMENTS.get(command, []), "--config", str(cfg),
            "--out", str(out), "--label", "key"])
    return res.exit_code, res.output


def _key_examples(test):
    for case in KEY_EXAMPLES:
        test = example(case)(test)
    return test


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@_key_examples
@given(key_case())
def test_config_keys_keep_the_exit_code_contract(tmp_path_factory, case):
    tmp = tmp_path_factory.mktemp("keys")
    code, output = run_key_case(tmp, *case)
    assert code in (0, 2, 3), (case, output)
    assert code == KEY_EXAMPLES.get(case, code), (case, output)
    csv = list(tmp.glob("*.csv"))
    if code == 2:
        assert not csv, case  # rejected before any artifact
    elif code == 0:
        header, *rows = csv[0].read_text().splitlines()
        inf_ok = header.split(",").index("exponent") if case[0] == "wf" \
            else None
        for row in rows:
            for j, cell in enumerate(row.split(",")):
                v = _number(cell)
                assert v is None or cmath.isfinite(v) or j == inf_ok and \
                    not cmath.isnan(v), (case, row)


# ------------------------------------------------------------ algebra files

# functions on two points, with a state: one record per line
ALGEBRA = ("dim 2", "c 0 0 0 1", "c 1 1 1 1", "s 0 0 1", "s 1 1 1",
           "unit 0 1", "unit 1 1", "omega 0 0.5", "omega 1 0.5",
           "label 0 chi0", "label 1 chi1")
TAGS = ("dim", "c", "s", "unit", "omega", "label", "q")
FIELDS = ("0", "1", "2", "-1", "32", "33", "0.5", "1.5", "0x1", "x", "1/2",
          "1e300", "-1e308", "5e-324", "nan", "inf", "-inf", "9" * 5000)
# algebra file -> exit code: the inputs that once gave exit 4, then one
# example of each other way a file is rejected or passes
ALGEBRA_EXAMPLES = {
    "dim 100000": 2,  # MemoryError from np.zeros((dim,) * 3)
    "dim " + "9" * 5000: 2,  # more digits than int() converts
    "dim 33": 2,
    "\n".join(ALGEBRA): 0,
    "\n".join(r for r in ALGEBRA if r.split()[0] != "omega"): 2,
    "\n".join(ALGEBRA + ("omega 0 1",)): 2,  # omega(1) = 1.5
    "\n".join(ALGEBRA + ("c 0 1 0 1e300",)): 2,
    "\n".join(ALGEBRA + ("s 0 1 nan",)): 2,
}


@st.composite
def algebra_file(draw):
    """ALGEBRA after up to three edits: drop a record, redraw one of its
    fields, or add a record of a drawn tag and fields."""
    records = [r.split() for r in ALGEBRA]
    field = st.sampled_from(FIELDS)
    for edit in draw(st.lists(st.sampled_from(("drop", "redraw", "add")),
                              max_size=3)):
        i = draw(st.integers(0, max(len(records) - 1, 0)))
        if edit == "add" or not records:
            records.insert(i, [draw(st.sampled_from(TAGS)),
                               *draw(st.lists(field, max_size=5))])
        elif edit == "drop":
            del records[i]
        elif len(records[i]) > 1:
            records[i][draw(st.integers(1, len(records[i]) - 1))] = draw(field)
    return "\n".join(" ".join(rec) for rec in records)


def run_algebra(out, text):
    """paqft gns on the algebra file `text`; (exit code, output)."""
    path = Path(out) / "alg.txt"
    path.write_text(text + "\n")
    cfg = Path(out) / "gns.cfg"
    cfg.write_text("algebra_file = %s\n" % path)
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        res = CliRunner().invoke(cli.main, [
            "gns", "--config", str(cfg), "--out", str(out), "--label", "alg"])
    return res.exit_code, res.output


def _algebra_examples(test):
    for text in ALGEBRA_EXAMPLES:
        test = example(text)(test)
    return test


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@_algebra_examples
@given(algebra_file())
def test_algebra_files_keep_the_exit_code_contract(tmp_path_factory, text):
    tmp = tmp_path_factory.mktemp("algebra")
    code, output = run_algebra(tmp, text)
    assert code in (0, 2, 3), (text[:200], output)
    assert code == ALGEBRA_EXAMPLES.get(text, code), (text[:200], output)
    csv = list(tmp.glob("*.csv"))
    if code == 2:
        assert not csv, text[:200]
    elif code == 0:
        for cell in csv[0].read_text().replace("\n", ",").split(","):
            v = _number(cell)
            assert v is None or cmath.isfinite(v), (text[:200], cell)
