"""The exit-code contract of the distribution commands, as a property over
spellings of one distribution.

`wf`, `ms` and `extend` exit 0, 2 or 3, never 4 (an internal error); on
exit 0 no CSV cell is NaN; and two spellings of one distribution give the
same exit code and, on exit 0, the same CSV bytes.  A spelling writes each
coefficient as a decimal, a fraction or an integer, or splits it into two
parts that add up exactly, and may add a pair of terms that cancel.
Coefficients range over 0, dyadic rationals, tiny and huge magnitudes, NaN
and the infinities.  An integer order is written with or without leading
zeros (and an order 0 may be left out), an exponent as a decimal with or
without trailing zeros; orders range up to and past the largest the
pairings take, log powers up to and past 170.
"""

import cmath
import math
import warnings
from fractions import Fraction

import hypothesis.strategies as st
from click.testing import CliRunner
from hypothesis import given, settings

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


def _is_nan(cell):
    try:
        return cmath.isnan(complex(cell.replace("i", "j")))
    except ValueError:
        return False


def _run(tmp, command, expr, label):
    # overflow warnings are the CLI's to print, not the test's errors
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        res = CliRunner().invoke(cli.main, [
            command, "--out", str(tmp), "--label", label, "--", expr])
    if res.exit_code != 0:
        return res.exit_code, None
    return 0, (tmp / ("%s_%s.csv" % (command, label))).read_bytes()


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(two_spellings())
def test_spellings_of_one_distribution_agree(tmp_path_factory, case):
    command, a, b = case
    tmp = tmp_path_factory.mktemp("contract")
    code_a, data_a = _run(tmp, command, a, "a")
    code_b, data_b = _run(tmp, command, b, "b")
    assert code_a in (0, 2, 3), (command, a, code_a)
    assert (code_a, data_a) == (code_b, data_b), (command, a, b)
    if data_a is not None:
        cells = data_a.decode().replace("\n", ",").split(",")
        assert not any(map(_is_nan, cells)), (command, a)
