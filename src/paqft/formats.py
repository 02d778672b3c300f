"""Text formats: config files, algebra/state files, functional literals,
distribution expressions, and deterministic CSV output.

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

Functional literal files
------------------------
One record per line:
    <degree> <t,x> <t,x> ... <coeff>
with exactly <degree> site tuples; degree 0 uses "-" as placeholder.
Coefficients are Fractions or "re,im" pairs of Fractions.

Distribution expressions
------------------------
Terms joined by " + " or " - " (spaces required around the sign):
    delta          delta^k        x^m           heaviside^m
    (x+i0)^a       (x-i0)^a       x_+^a         x_-^a       x_+^a*log^p
each optionally prefixed by "c*" with c an int, fraction, or float.
Example:  "(x+i0)^-2 + 3/2*delta^1 - 0.5*x_+^-1.5"
"""

import csv
import re
from fractions import Fraction

import numpy as np

from .exact import ExactComplex
from .series import FormalSeries
from .functionals import PolyFunctional
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

def _entry(tokens, want):
    # want index tokens then re [im]
    idx = [int(t) for t in tokens[:want]]
    vals = [float(t) for t in tokens[want:]]
    if len(vals) == 1:
        return idx, complex(vals[0], 0.0)
    if len(vals) == 2:
        return idx, complex(vals[0], vals[1])
    raise FormatError("expected re [im], got %r" % (tokens[want:],))


def parse_algebra(text):
    """Parse an algebra file.  Returns (FiniteStarAlgebra, omega or None)."""
    dim = None
    c_rows, s_rows, u_rows, w_rows = [], [], [], []
    labels = {}
    for line in _lines(text):
        toks = line.split()
        tag, rest = toks[0], toks[1:]
        if tag == "dim":
            dim = int(rest[0])
        elif tag == "c":
            c_rows.append(_entry(rest, 3))
        elif tag == "s":
            s_rows.append(_entry(rest, 2))
        elif tag == "unit":
            u_rows.append(_entry(rest, 1))
        elif tag == "omega":
            w_rows.append(_entry(rest, 1))
        elif tag == "label":
            labels[int(rest[0])] = rest[1]
        else:
            raise FormatError("unknown record %r" % tag)
    if dim is None:
        raise FormatError("missing dim record")
    c = np.zeros((dim, dim, dim), dtype=complex)
    for (i, j, k), v in c_rows:
        c[i, j, k] = v
    star = np.zeros((dim, dim), dtype=complex)
    for (i, j), v in s_rows:
        star[i, j] = v
    if u_rows:
        unit = np.zeros(dim, dtype=complex)
        for (i,), v in u_rows:
            unit[i] = v
    else:
        unit = np.zeros(dim, dtype=complex)
        unit[0] = 1.0
    name_list = [labels.get(i, "b%d" % i) for i in range(dim)]
    alg = FiniteStarAlgebra(c, star, unit, labels=name_list)
    omega = None
    if w_rows:
        omega = np.zeros(dim, dtype=complex)
        for (i,), v in w_rows:
            omega[i] = v
    return alg, omega


def load_algebra(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_algebra(fh.read())


def _fmt_c(z):
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    return "%s %s" % (repr(z.real), repr(z.imag))


def dump_algebra(alg, omega=None):
    """Write an algebra (and optional state vector) back to text."""
    out = ["dim %d" % alg.dim]
    for i, name in enumerate(alg.labels):
        if name != "b%d" % i:
            out.append("label %d %s" % (i, name))
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                v = alg.c[i, j, k]
                if v != 0:
                    out.append("c %d %d %d %s" % (i, j, k, _fmt_c(v)))
    for i in range(alg.dim):
        for j in range(alg.dim):
            v = alg.star[i, j]
            if v != 0:
                out.append("s %d %d %s" % (i, j, _fmt_c(v)))
    for i in range(alg.dim):
        if alg.unit[i] != 0:
            out.append("unit %d %s" % (i, _fmt_c(alg.unit[i])))
    if omega is not None:
        vec = np.asarray(omega, dtype=complex)
        for i in range(alg.dim):
            if vec[i] != 0:
                out.append("omega %d %s" % (i, _fmt_c(vec[i])))
    return "\n".join(out) + "\n"


# ----------------------------------------------------- functional literals

def _parse_coeff(tok):
    if "," in tok:
        re_s, im_s = tok.split(",", 1)
        return ExactComplex(Fraction(re_s), Fraction(im_s))
    return ExactComplex(Fraction(tok))


def parse_functional(text, lattice):
    """Parse functional literal records into a PolyFunctional."""
    terms = {}
    for line in _lines(text):
        toks = line.split()
        if len(toks) < 2:
            raise FormatError("short record %r" % line)
        degree = int(toks[0])
        coeff = _parse_coeff(toks[-1])
        site_toks = toks[1:-1]
        if degree == 0:
            if site_toks != ["-"]:
                raise FormatError("degree 0 record needs '-' placeholder")
            sites = ()
        else:
            if len(site_toks) != degree:
                raise FormatError(
                    "degree %d record has %d sites" % (degree, len(site_toks)))
            sites = []
            for st in site_toks:
                t_s, x_s = st.split(",")
                sites.append(lattice.site(int(t_s), int(x_s)))
            sites = tuple(sorted(sites))
        series = FormalSeries({(0, 0): coeff})
        if sites in terms:
            terms[sites] = terms[sites] + series
        else:
            terms[sites] = series
    return PolyFunctional(lattice, terms)


def dump_functional(F):
    """Write a PolyFunctional (with scalar coefficients) back to records."""
    out = []
    for sites in sorted(F.terms):
        c = F.terms[sites].coefficient(0, 0)
        for (h, l) in F.terms[sites].coeff:
            if (h, l) != (0, 0):
                raise FormatError("only hbar/lambda-free functionals dump")
        if c.im == 0:
            coeff = str(c.re)
        else:
            coeff = "%s,%s" % (c.re, c.im)
        if not sites:
            out.append("0 - %s" % coeff)
        else:
            lat = F.lat
            pts = " ".join("%d,%d" % lat.coords(i) for i in sites)
            out.append("%d %s %s" % (len(sites), pts, coeff))
    return "\n".join(out) + "\n"


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
        return float(Fraction(tok))
    return float(tok)


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
            return dist1d.SymbolicDistribution1D.power_i0(_num(m.group(1)), +1)
        if kind == "i0minus":
            return dist1d.SymbolicDistribution1D.power_i0(_num(m.group(1)), -1)
        if kind == "halfplus":
            return dist1d.SymbolicDistribution1D.halfline(
                _num(m.group(1)), +1, int(m.group(2) or 0))
        if kind == "halfminus":
            return dist1d.SymbolicDistribution1D.halfline(
                _num(m.group(1)), -1, int(m.group(2) or 0))
    raise FormatError("cannot parse distribution atom %r" % tok)


def parse_distribution(expr):
    """Parse a distribution expression (grammar in the module docstring)."""
    expr = expr.strip()
    if not expr:
        raise FormatError("empty distribution expression")
    # split on top-level " + " / " - "; signs inside atoms have no spaces
    pieces = re.split(r"\s+([+-])\s+", expr)
    total = None
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
        term = _parse_atom(tok) * (sign * coeff)
        total = term if total is None else total + term
        sign = 1.0
    return total


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


def series_rows(series):
    """(hbar order, lambda order, coefficient) rows, sorted."""
    return [(h, l, series.coeff[(h, l)])
            for (h, l) in sorted(series.coeff)]


def functional_rows(F):
    """(degree, hbar order, lambda order, sites, coefficient) rows."""
    rows = []
    for sites in sorted(F.terms):
        lat = F.lat
        pts = ";".join("%d,%d" % lat.coords(i) for i in sites) or "-"
        for (h, l) in sorted(F.terms[sites].coeff):
            rows.append((len(sites), h, l, pts, F.terms[sites].coeff[(h, l)]))
    return rows
