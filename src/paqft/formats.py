"""Text formats: config files, algebra files, distribution expressions,
and deterministic CSV output.

All formats are line-oriented plain text.  Blank lines and lines starting
with '#' are ignored everywhere.

Config files
------------
    key = value
Values are parsed as int, Fraction ("3/4") or float, or kept as strings
("true" too); comma-separated values become lists.

Algebra files
-------------
    dim 2                # 1 <= dim <= MAX_DIM
    c i j k re [im]      # b_i b_j = sum_k c[i,j,k] b_k   (sparse triples)
    s i j re [im]        # b_i^* = sum_j s[i,j] b_j
    unit i re [im]       # unit vector (optional, defaults to b_0)
    omega i re [im]      # state vector (optional)
    label i name         # optional basis label; checked, not used

Distribution expressions
------------------------
Terms joined by " + " or " - " (spaces required around the sign):
    delta          delta^k        x^m           heaviside^m
    (x+i0)^a       (x-i0)^a       x_+^a         x_-^a       x_+^a*log^p
each optionally prefixed by "c*" with c an int, fraction, or finite float.
Like terms merge into one (coefficients added, first place kept), so
"delta - delta" is the zero distribution, as "0*delta" is; a coefficient
that is not finite, as written or merged, is an error.  So is an order
the pairings cannot take: a log power p above MAX_LOG_POWER, or an order
k, m above MAX_ORDER.
Example:  "(x+i0)^-2 + 3/2*delta^1 - 0.5*x_+^-1.5"
"""

import csv
import math
import re
from fractions import Fraction

import numpy as np

from . import InputError
from .exact import ExactComplex
from .algebra import AlgebraError, AlgebraState, FiniteStarAlgebra
from . import dist1d


class FormatError(InputError):
    pass


def _read(path):
    """The text of a file; a byte that is not UTF-8 becomes U+FFFD, which
    the parsers reject as they reject any malformed field."""
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        return fh.read()


def _lines(text):
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


# ---------------------------------------------------------------- config

def _quoted(tok):
    """Whether tok is one string in a pair of matching quotes, ' or "."""
    return (len(tok) >= 2 and tok[0] in "'\"" and tok[-1] == tok[0]
            and tok[0] not in tok[1:-1])


def _parse_scalar(tok):
    if _quoted(tok):
        return tok[1:-1]
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
        if "," in val and not _quoted(val):
            out[key] = [_parse_scalar(v.strip()) for v in val.split(",")]
        else:
            out[key] = _parse_scalar(val)
    return out


def load_config(path):
    return parse_config(_read(path))


# --------------------------------------------------------------- algebra

# record tag -> number of basis indices before its value
_INDICES = {"c": 3, "s": 2, "unit": 1, "omega": 1, "label": 1}


MAX_DIM = 32  # the axiom checks hold dim^4 complex arrays, 16 MB at 32


def parse_algebra(text):
    """Parse an algebra file.  Returns (FiniteStarAlgebra, omega or None).

    A record with missing or extra fields, a field that does not parse, a
    value that is not finite or a basis index outside [0, dim) raises
    FormatError naming the record, and so does a dim above MAX_DIM, before
    any array is allocated."""
    dim, records = None, []
    for line in _lines(text):
        tag, *rest = line.split()
        if tag == "dim":
            try:
                dim = int(rest[0]) if len(rest) == 1 and rest[0].isdecimal() \
                    else 0
            except ValueError:  # more digits than int() converts
                dim = 0
            if not 1 <= dim <= MAX_DIM:
                raise FormatError("record %r: want one integer in [1, %d]"
                                  % (line, MAX_DIM))
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
    for line, tag, rest in records:
        want = _INDICES[tag]
        try:
            if len(rest) - want not in ((1,) if tag == "label" else (1, 2)):
                raise ValueError("wrong number of fields")
            idx = tuple(int(t) for t in rest[:want])
            value = (rest[want] if tag == "label"
                     else complex(*(float(t) for t in rest[want:])))
            if not (tag == "label" or np.isfinite(value)):
                raise ValueError("value is not finite")
        except ValueError as e:
            raise FormatError("record %r: %s" % (line, e)) from None
        if not all(0 <= i < dim for i in idx):
            raise FormatError("record %r: index outside [0, %d)" % (line, dim))
        if tag != "label":
            arrays[tag][idx] = value
    tags = {tag for _, tag, _ in records}
    if "unit" not in tags:
        arrays["unit"][0] = 1.0
    alg = FiniteStarAlgebra(arrays["c"], arrays["s"], arrays["unit"])
    return alg, arrays["omega"] if "omega" in tags else None


def load_algebra(path):
    """The AlgebraState of an algebra file's omega record; an algebra or
    state that fails validation, or no omega, raises FormatError."""
    try:
        alg, omega = parse_algebra(_read(path))
        if omega is None:
            raise AlgebraError("no omega record")
        return AlgebraState(alg, omega)
    except AlgebraError as e:
        raise FormatError("algebra file rejected: %s" % e) from None


# ------------------------------------------------ distribution expressions

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


# The largest integer orders the pairings take.  A log power p enters
# through p!, a finite float only up to 170!; an order of delta^k, x^m or
# heaviside^m enters as a float, and 2^1024 - 2^970 is the least integer
# that rounds past the largest one.
MAX_LOG_POWER = 170
MAX_ORDER = 2 ** 1024 - 2 ** 970 - 1


def _order(tok, top):
    """An integer order as written (0 when absent), at most top."""
    k = int(tok or 0)
    if k > top:
        raise FormatError("order %s is too large: the largest accepted is %s"
                          % (tok, "2^1024 - 2^970 - 1" if top == MAX_ORDER
                             else top))
    return k


_D = dist1d.SymbolicDistribution1D
_SIGN = {"+": 1, "-": -1}
# each atom's pattern, and the distribution its groups stand for
_ATOMS = [(re.compile(rex), build) for rex, build in (
    (r"delta(?:\^(\d+))?", lambda k: _D.delta(_order(k, MAX_ORDER))),
    (r"x\^(\d+)", lambda m: _D.monomial(_order(m, MAX_ORDER))),
    (r"heaviside(?:\^(\d+))?",
     lambda m: _D.heaviside(_order(m, MAX_ORDER))),
    (r"\(x([+-])i0\)\^(-?[\d.]+)",
     lambda s, a: _D.power_i0(_exponent(a), _SIGN[s])),
    (r"x_([+-])\^(-?[\d.]+)(?:\*log\^(\d+))?",
     lambda s, a, p: _D.halfline(_exponent(a), _SIGN[s],
                                 _order(p, MAX_LOG_POWER))))]


def _parse_atom(tok):
    for rex, build in _ATOMS:
        m = rex.fullmatch(tok)
        if m:
            return build(*m.groups())
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
        (c, kind), = _parse_atom(tok).terms
        c = c * (sign * coeff)
        if c:
            merged[kind] = merged[kind] + c if kind in merged else c
        sign = 1.0
    for kind, c in merged.items():
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
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


def write_csv(path, header, rows, comment):
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
