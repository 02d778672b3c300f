"""Text formats: config files, algebra files, distribution expressions,
and deterministic CSV output.

All formats are line-oriented plain text.  Blank lines and lines starting
with '#' are ignored everywhere.

Config files
------------
    key = value
Values are parsed as bool ("true"/"false"), int, Fraction ("3/4"),
float, or kept as strings; comma-separated values become lists.

Algebra files
-------------
    dim 2
    c i j k re [im]      # b_i b_j = sum_k c[i,j,k] b_k   (sparse triples)
    s i j re [im]        # b_i^* = sum_j s[i,j] b_j
    unit i re [im]       # unit vector (optional, defaults to b_0)
    omega i re [im]      # state vector (optional)
    label i name         # optional basis label

Distribution expressions
------------------------
Terms joined by " + " or " - " (spaces required around the sign):
    delta          delta^k        x^m           heaviside^m
    (x+i0)^a       (x-i0)^a       x_+^a         x_-^a       x_+^a*log^p
each optionally prefixed by "c*" with c an int, fraction, or finite float.
Like terms merge into one (coefficients added, first place kept), so
"delta - delta" is the zero distribution, as "0*delta" is; a coefficient
that is not finite, as written or merged, is an error.
Example:  "(x+i0)^-2 + 3/2*delta^1 - 0.5*x_+^-1.5"
"""

import cmath
import csv
import math
import re
from fractions import Fraction

import numpy as np

from .exact import ExactComplex
from .algebra import FiniteStarAlgebra
from . import dist1d


class FormatError(ValueError):
    pass


def _lines(text):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


# ---------------------------------------------------------------- config

def _parse_scalar(tok):
    low = tok.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    try:
        return int(tok)
    except ValueError:
        pass
    if "/" in tok:
        try:
            return Fraction(tok)
        except (ValueError, ZeroDivisionError):
            pass
    try:
        return float(tok)
    except ValueError:
        pass
    return tok


def parse_config(text):
    """Parse key=value config text into a dict with typed values."""
    out = {}
    for line in _lines(text):
        if "=" not in line:
            raise FormatError("expected key=value, got %r" % line)
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not key:
            raise FormatError("empty key in %r" % line)
        if "," in val:
            out[key] = [_parse_scalar(v.strip()) for v in val.split(",")]
        else:
            out[key] = _parse_scalar(val)
    return out


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# --------------------------------------------------------------- algebra

# record tag -> number of basis indices before its value
_INDICES = {"c": 3, "s": 2, "unit": 1, "omega": 1, "label": 1}


def parse_algebra(text):
    """Parse an algebra file.  Returns (FiniteStarAlgebra, omega or None).

    A record with missing or extra fields, a field that does not parse or a
    basis index outside [0, dim) raises FormatError naming the record."""
    dim, records = None, []
    for line in _lines(text):
        tag, *rest = line.split()
        if tag == "dim":
            if len(rest) != 1 or not rest[0].isdecimal() or int(rest[0]) < 1:
                raise FormatError("record %r: want one integer >= 1" % line)
            dim = int(rest[0])
        elif tag in _INDICES:
            records.append((line, tag, rest))
        else:
            raise FormatError("unknown record %r" % tag)
    if dim is None:
        raise FormatError("missing dim record")
    arrays = {"c": np.zeros((dim, dim, dim), dtype=complex),
              "s": np.zeros((dim, dim), dtype=complex),
              "unit": np.zeros(dim, dtype=complex),
              "omega": np.zeros(dim, dtype=complex)}
    names = ["b%d" % i for i in range(dim)]
    for line, tag, rest in records:
        want = _INDICES[tag]
        try:
            if len(rest) - want not in ((1,) if tag == "label" else (1, 2)):
                raise ValueError("wrong number of fields")
            idx = tuple(int(t) for t in rest[:want])
            value = (rest[want] if tag == "label"
                     else complex(*(float(t) for t in rest[want:])))
        except ValueError as e:
            raise FormatError("record %r: %s" % (line, e)) from None
        if not all(0 <= i < dim for i in idx):
            raise FormatError("record %r: index outside [0, %d)" % (line, dim))
        if tag == "label":
            names[idx[0]] = value
        else:
            arrays[tag][idx] = value
    tags = {tag for _, tag, _ in records}
    if "unit" not in tags:
        arrays["unit"][0] = 1.0
    alg = FiniteStarAlgebra(arrays["c"], arrays["s"], arrays["unit"],
                            labels=names)
    return alg, arrays["omega"] if "omega" in tags else None


def load_algebra(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra(fh.read())


# ------------------------------------------------ distribution expressions

_ATOM_RES = [
    (re.compile(r"^delta(?:\^(\d+))?$"), "delta"),
    (re.compile(r"^x\^(\d+)$"), "monomial"),
    (re.compile(r"^heaviside(?:\^(\d+))?$"), "heaviside"),
    (re.compile(r"^\(x\+i0\)\^(-?[\d.]+)$"), "i0plus"),
    (re.compile(r"^\(x-i0\)\^(-?[\d.]+)$"), "i0minus"),
    (re.compile(r"^x_\+\^(-?[\d.]+)(?:\*log\^(\d+))?$"), "halfplus"),
    (re.compile(r"^x_-\^(-?[\d.]+)(?:\*log\^(\d+))?$"), "halfminus"),
]


def _num(tok):
    if "/" in tok:
        q = Fraction(tok)
        try:
            return float(q)
        except OverflowError:  # out of float range, as float("1e400") is
            return math.inf if q > 0 else -math.inf
    return float(tok)


def _exponent(tok):
    """The exponent of a power atom, as a finite float."""
    try:
        a = float(tok)
    except ValueError:
        a = math.nan
    if not math.isfinite(a):
        raise FormatError("exponent %r is not a finite number" % tok)
    return a


def _parse_atom(tok):
    for rex, kind in _ATOM_RES:
        m = rex.match(tok)
        if not m:
            continue
        if kind == "delta":
            return dist1d.SymbolicDistribution1D.delta(int(m.group(1) or 0))
        if kind == "monomial":
            return dist1d.SymbolicDistribution1D.monomial(int(m.group(1)))
        if kind == "heaviside":
            return dist1d.SymbolicDistribution1D.heaviside(int(m.group(1) or 0))
        if kind == "i0plus":
            return dist1d.SymbolicDistribution1D.power_i0(
                _exponent(m.group(1)), +1)
        if kind == "i0minus":
            return dist1d.SymbolicDistribution1D.power_i0(
                _exponent(m.group(1)), -1)
        if kind == "halfplus":
            return dist1d.SymbolicDistribution1D.halfline(
                _exponent(m.group(1)), +1, int(m.group(2) or 0))
        if kind == "halfminus":
            return dist1d.SymbolicDistribution1D.halfline(
                _exponent(m.group(1)), -1, int(m.group(2) or 0))
    raise FormatError("cannot parse distribution atom %r" % tok)


def parse_distribution(expr):
    """Parse a distribution expression (grammar in the module docstring).

    Like terms merge into one, at the place of the first; a coefficient,
    as written or merged, that is not finite raises FormatError."""
    expr = expr.strip()
    if not expr:
        raise FormatError("empty distribution expression")
    # split on top-level " + " / " - "; signs inside atoms have no spaces
    pieces = re.split(r"\s+([+-])\s+", expr)
    merged = {}  # term kind -> coefficient, in order of first appearance
    sign = 1.0
    for piece in pieces:
        if piece == "+":
            sign = 1.0
            continue
        if piece == "-":
            sign = -1.0
            continue
        coeff = 1.0
        tok = piece
        if "*" in piece:
            head, _, tail = piece.partition("*")
            try:
                coeff = _num(head)
                tok = tail
            except (ValueError, ZeroDivisionError):
                tok = piece  # the '*' belongs to the atom (log powers)
        if not math.isfinite(coeff):
            raise FormatError("coefficient of %r is not finite" % piece)
        for c, kind in (_parse_atom(tok) * (sign * coeff)).terms:
            merged[kind] = merged[kind] + c if kind in merged else c
        sign = 1.0
    for kind, c in merged.items():
        if not cmath.isfinite(c):
            raise FormatError("the %s terms of %r add up to a coefficient "
                              "that is not finite" % (kind[0], expr))
    return dist1d.SymbolicDistribution1D(
        [(c, kind) for kind, c in merged.items()])


# -------------------------------------------------------------------- CSV

def fmt_value(v):
    """Deterministic scalar formatting for CSV cells."""
    if isinstance(v, ExactComplex):
        if v.im == 0:
            return str(v.re)
        sign = "+" if v.im >= 0 else "-"
        return "%s%s%si" % (v.re, sign, abs(v.im))
    if isinstance(v, Fraction):
        return str(v)
    # numpy scalars subclass the Python types; unwrap them before repr
    if isinstance(v, (np.floating, np.complexfloating, np.integer, np.bool_)):
        return fmt_value(v.item())
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, complex):
        if v.imag == 0.0:
            return repr(v.real)
        sign = "+" if v.imag >= 0 else "-"
        return "%s%s%si" % (repr(v.real), sign, repr(abs(v.imag)))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_csv(path, header, rows, comment=None):
    """Write rows of scalars as CSV with '\\n' line endings, after the line
    `comment` if one is given."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if comment is not None:
            fh.write(comment + "\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([fmt_value(v) for v in row])


def functional_rows(F):
    """(degree, hbar order, lambda order, sites, coefficient) rows."""
    rows = []
    for sites in sorted(F.terms):
        lat = F.lat
        pts = ";".join("%d,%d" % lat.coords(i) for i in sites) or "-"
        for (h, l) in sorted(F.terms[sites].coeff):
            rows.append((len(sites), h, l, pts, F.terms[sites].coeff[(h, l)]))
    return rows
