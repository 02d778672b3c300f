"""Config, algebra and distribution text formats, and CSV output."""
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from paqft.exact import ExactComplex
from paqft.dist1d import TestFunction1D, SymbolicDistribution1D
from paqft.algebra import FiniteStarAlgebra, functions_on_points
from paqft.formats import (FormatError, MAX_DIM, parse_config, parse_algebra,
                           parse_distribution, fmt_value, functional_rows,
                           write_csv)
from paqft.functionals import PolyFunctional, smeared_field
from paqft.series import FormalSeries

from conftest import dist_scaled, dist_sum


# --------------------------------------------------------------------------
# config

def test_config_types():
    cfg = parse_config("""
    # lattice block
    n_t = 12
    a_t = 1/2
    mass = 1.5
    periodic = true
    label = run_a
    sites = 3, 4, 5
    mixed = 1/4, x
    """)
    assert cfg["n_t"] == 12 and isinstance(cfg["n_t"], int)
    assert cfg["a_t"] == Fraction(1, 2)
    assert cfg["mass"] == 1.5 and isinstance(cfg["mass"], float)
    assert cfg["periodic"] == "true"  # no key reads a boolean
    assert cfg["label"] == "run_a"
    assert cfg["sites"] == [3, 4, 5]
    assert cfg["mixed"] == [Fraction(1, 4), "x"]


def test_config_strips_one_pair_of_matching_quotes():
    cfg = parse_config("""
    algebra_file = "my alg.txt"
    inner = 'say "hi"'
    with_comma = "a, b.txt"
    names = "a", 'b c', d
    number = "2"
    empty = ""
    unmatched = "half
    mixed = 'x"
    """)
    assert cfg["algebra_file"] == "my alg.txt"
    assert cfg["inner"] == 'say "hi"'
    assert cfg["with_comma"] == "a, b.txt"
    assert cfg["names"] == ["a", "b c", "d"]
    assert cfg["number"] == "2"  # a quoted number is a string
    assert cfg["empty"] == ""
    assert cfg["unmatched"] == '"half' and cfg["mixed"] == "'x\""


def test_config_rejects_bad_lines():
    with pytest.raises(FormatError):
        parse_config("just a line")
    with pytest.raises(FormatError):
        parse_config("= 3")


# --------------------------------------------------------------------------
# algebra files

TWO_POINTS = """
dim 2
c 0 0 0 1
c 1 1 1 1
s 0 0 1
s 1 1 1
unit 0 1
unit 1 1
omega 0 0.5
omega 1 0.5
label 0 chi0
label 1 chi1
"""


def test_algebra_roundtrip():
    # the file spells out functions on two points exactly
    alg, omega = parse_algebra(TWO_POINTS)
    want = functions_on_points(2)
    assert np.array_equal(alg.c, want.c)
    assert np.array_equal(alg.star, want.star)
    assert np.array_equal(alg.unit, want.unit)
    assert np.array_equal(omega, [0.5, 0.5])


def test_algebra_default_unit_and_missing_dim():
    alg, omega = parse_algebra("dim 1\nc 0 0 0 1\ns 0 0 1")
    assert np.allclose(alg.unit, [1.0])
    assert omega is None
    with pytest.raises(FormatError):
        parse_algebra("c 0 0 0 1")
    with pytest.raises(FormatError):
        parse_algebra("dim 1\nq 0 0 1")
    with pytest.raises(FormatError):
        parse_algebra("dim 1\nc 0 0 0 1 2 3")


@pytest.mark.parametrize("record", [
    "omega -2 1",     # would wrap to omega[0]
    "c 5 0 0 1",      # past the end
    "label 2 x",
    "s 0 0",          # no value
    "c 0 0 1",        # one index short
    "unit 0 1 0 1",   # one field too many
    "label 1",
    "s 0 x 1",
    "dim",
    "dim 0",
    "dim 2 3",
])
def test_algebra_rejects_bad_records(record):
    text = "dim 2\nc 0 0 0 1\nc 1 1 1 1\ns 0 0 1\ns 1 1 1\n" + record
    with pytest.raises(FormatError, match=re.escape(repr(record))):
        parse_algebra(text)


@pytest.mark.parametrize("dim", ["33", "100000", "9" * 5000])
def test_algebra_dim_above_the_bound_is_rejected_before_allocation(
        monkeypatch, dim):
    def allocate(*args, **kwargs):
        raise AssertionError("an array was allocated")

    monkeypatch.setattr(np, "zeros", allocate)
    with pytest.raises(FormatError, match=r"in \[1, %d\]" % MAX_DIM):
        parse_algebra("dim %s\nc 0 0 0 1\ns 0 0 1" % dim)


def test_algebra_dim_at_the_bound_parses(monkeypatch):
    # the axiom checks take over a second at this size; parsing is the point
    monkeypatch.setattr(FiniteStarAlgebra, "_validate", lambda self: None)
    n = MAX_DIM
    text = "dim %d\n" % n + "".join("c %d %d %d 1\ns %d %d 1\nunit %d 1\n"
                                    % (i, i, i, i, i, i) for i in range(n))
    alg, _ = parse_algebra(text)
    assert np.array_equal(alg.c, functions_on_points(n).c)


def test_algebra_complex_entries():
    _, omega = parse_algebra("dim 1\nc 0 0 0 1\ns 0 0 1\nomega 0 1 0")
    assert omega[0] == 1.0 + 0.0j
    _, omega = parse_algebra("dim 1\nc 0 0 0 1\ns 0 0 1\nomega 0 0.5 0.25")
    assert omega[0] == 0.5 + 0.25j


# --------------------------------------------------------------------------
# distribution expressions

def test_distribution_atoms():
    f = TestFunction1D.from_poly((1.0, 0.5, -0.25), 0.5, 1.0)
    pairs = [
        ("delta", SymbolicDistribution1D.delta(0)),
        ("delta^2", SymbolicDistribution1D.delta(2)),
        ("x^3", SymbolicDistribution1D.monomial(3)),
        ("heaviside", SymbolicDistribution1D.heaviside(0)),
        ("heaviside^1", SymbolicDistribution1D.heaviside(1)),
        ("(x+i0)^-1", SymbolicDistribution1D.power_i0(-1.0, +1)),
        ("(x-i0)^-2", SymbolicDistribution1D.power_i0(-2.0, -1)),
        ("x_+^-1.5", SymbolicDistribution1D.halfline(-1.5, +1)),
        ("x_-^-0.5", SymbolicDistribution1D.halfline(-0.5, -1)),
        ("x_+^-0.5*log^1", SymbolicDistribution1D.halfline(-0.5, +1, 1)),
    ]
    for text, want in pairs:
        got = parse_distribution(text)
        assert got.pair(f) == pytest.approx(want.pair(f), rel=1e-12), text


def test_distribution_sums_signs_and_coefficients():
    f = TestFunction1D.from_poly((1.0, 0.5), 0.5, 1.0)
    t = parse_distribution("2*delta - 1/2*heaviside + 0.25*x^1")
    want = dist_sum(dist_scaled(SymbolicDistribution1D.delta(0), 2.0),
                    dist_scaled(SymbolicDistribution1D.heaviside(0), -0.5),
                    dist_scaled(SymbolicDistribution1D.monomial(1), 0.25))
    assert t.pair(f) == pytest.approx(want.pair(f), rel=1e-12)


def test_like_terms_merge_in_order_of_first_appearance():
    t = parse_distribution("x^1 + 1/2*delta - 3/4*x^1 + delta - x_+^-1.5"
                           " + x_+^-1.5")
    assert t.terms == ((0.25, ("monomial", 1)), (1.5, ("delta", 0)))
    assert parse_distribution("delta - delta").terms == ()
    assert parse_distribution("1e308*delta - 1e308*delta").terms == ()
    assert parse_distribution("delta^0 + delta").terms == (
        (2.0, ("delta", 0)),)


def test_a_zero_term_takes_no_place():
    """A term whose coefficient is 0 is skipped before like terms merge,
    so it leaves no entry to hold its kind's place; a sum that cancels
    is the zero distribution."""
    assert parse_distribution("0*delta + x^2 + delta").terms == (
        (1.0, ("monomial", 2)), (1.0, ("delta", 0)))
    assert parse_distribution("-0*x^1 - 0.0*delta").terms == ()
    assert parse_distribution("delta - delta").terms == ()


@pytest.mark.parametrize("expr", [
    "nan*delta", "NaN*delta", "inf*x_+^-1", "-inf*heaviside", "1e400*delta",
    "delta + 1e400*x^1", "1%s/3*delta" % ("0" * 400),
    "-1%s/3*delta" % ("0" * 400), "1e308*delta + 1e308*delta"],
    ids=lambda e: e[:12])
def test_non_finite_coefficients_are_rejected(expr):
    """As written, or once like terms merge."""
    with pytest.raises(FormatError, match="not finite"):
        parse_distribution(expr)


def test_distribution_rejects_garbage():
    for bad in ("", "wiggle", "delta^x", "x_+^", "delta + + delta"):
        with pytest.raises(FormatError):
            parse_distribution(bad)


# --------------------------------------------------------------------------
# CSV formatting

def test_fmt_value_cases():
    assert fmt_value(ExactComplex(Fraction(1, 3))) == "1/3"
    assert fmt_value(ExactComplex(0, Fraction(-2, 7))) == "0-2/7i"
    assert fmt_value(ExactComplex(Fraction(1, 2), Fraction(3, 4))) == "1/2+3/4i"
    assert fmt_value(Fraction(-5, 3)) == "-5/3"
    assert fmt_value(1.5) == "1.5"
    assert fmt_value(complex(1.0, -2.0)) == "1.0-2.0i"
    assert fmt_value(complex(0.25, 0.0)) == "0.25"
    assert fmt_value(True) == "true"
    assert fmt_value(np.float64(0.5)) == "0.5"
    assert fmt_value("plain") == "plain"


def test_fmt_value_roundtrips_floats():
    x = math.pi / 7
    assert float(fmt_value(x)) == x


def test_write_csv_deterministic(tmp_path):
    rows = [(1, 0.5, ExactComplex(Fraction(1, 3))),
            (2, -0.25, ExactComplex(0, Fraction(1)))]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(p1, ("i", "x", "c"), rows, None)
    write_csv(p2, ("i", "x", "c"), rows, None)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    assert b1 == b"i,x,c\n1,0.5,1/3\n2,-0.25,0+1i\n"


def test_series_and_functional_rows(lat_small):
    # a constant functional gives one row per series coefficient, sorted
    s = FormalSeries({(1, 0): ExactComplex(2), (0, 1): ExactComplex(3)})
    assert functional_rows(PolyFunctional(lat_small, {(): s})) == [
        (0, 0, 1, "-", ExactComplex(3)), (0, 1, 0, "-", ExactComplex(2))]
    F = smeared_field(lat_small, {lat_small.site(2, 1): Fraction(2)})
    rows = functional_rows(F)
    assert len(rows) == 1
    deg, h, l, pts, coeff = rows[0]
    assert (deg, h, l, pts) == (1, 0, 0, "2,1")
