"""Multigraph combinatorics for products of local functionals.

The n-fold time-ordered product expands as a sum over multigraphs on n
vertices: each line between vertices i and j carries one propagator
contraction, and a graph with line multiplicities l_ij contributes with
weight prod 1/l_ij!.  This module enumerates the graphs and evaluates the
expansion independently of the iterated binary product, so the two routes
can be compared term by term.  The kernel is fixed: the graph sum and the
tadpole demo contract with the Feynman propagator ("timeordered_F").
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .functionals import PolyFunctional, local_power, pointwise_product
from .lattice import ExactPropagators
from .quantization import QuantProduct, contract


class GraphError(Exception):
    pass


class SelfLineForbidden(GraphError):
    pass


class Multigraph:
    """Undirected multigraph on vertices 1..n, no self-lines.

    Lines are stored as {(i, j): multiplicity} with i < j.
    """

    __slots__ = ("n_vertices", "lines")

    def __init__(self, n_vertices: int, lines: dict):
        if n_vertices < 0:
            raise GraphError("negative vertex count")
        self.n_vertices = n_vertices
        canon: dict[tuple, int] = {}
        for (i, j), m in lines.items():
            if i == j:
                raise SelfLineForbidden(f"self-line at vertex {i}")
            if not (1 <= i <= n_vertices and 1 <= j <= n_vertices):
                raise GraphError(f"line ({i},{j}) outside vertex range")
            if m < 0:
                raise GraphError("negative multiplicity")
            if m == 0:
                continue
            key = (i, j) if i < j else (j, i)
            canon[key] = canon.get(key, 0) + m
        self.lines = canon

    @property
    def total_lines(self) -> int:
        return sum(self.lines.values())

    def sort_key(self):
        return (self.n_vertices, sorted(self.lines.items()))

    def __repr__(self):
        return f"Multigraph({self.n_vertices}, {dict(sorted(self.lines.items()))})"


def enumerate_graphs(n_vertices: int, max_total_lines: int) -> list[Multigraph]:
    """All multigraphs on n labelled vertices with at most the given number of
    lines, in a deterministic lexicographic order (the empty graph first)."""
    if n_vertices < 1:
        raise GraphError("need at least one vertex")
    pairs = list(itertools.combinations(range(1, n_vertices + 1), 2))
    out = []

    def rec(idx: int, remaining: int, acc: dict):
        if idx == len(pairs):
            out.append(Multigraph(n_vertices, dict(acc)))
            return
        for m in range(remaining + 1):
            if m:
                acc[pairs[idx]] = m
            rec(idx + 1, remaining - m, acc)
            acc.pop(pairs[idx], None)

    rec(0, max_total_lines, {})
    out.sort(key=Multigraph.sort_key)
    return out


def symmetry_factor(g: Multigraph) -> int:
    """prod over lines of multiplicity factorial."""
    out = 1
    for m in g.lines.values():
        out *= math.factorial(m)
    return out


def symmetry_factor_multinomial(g: Multigraph) -> int:
    """Brute-force check: count the orderings of the individual lines that
    reproduce the same multigraph, i.e. L! / prod l_ij! orderings,
    so Sym = L! / (#distinct orderings).  Only sensible for small L."""
    labels = []
    for key, m in sorted(g.lines.items()):
        labels.extend([key] * m)
    if not labels:
        return 1
    seen = set(itertools.permutations(labels))
    return math.factorial(len(labels)) // len(seen)


def divergence_degree(g: Multigraph, dim: int) -> int:
    """Power-counting degree |E|(d-2) - (|V|-1)d for a connected graph in
    d spacetime dimensions."""
    return g.total_lines * (dim - 2) - (g.n_vertices - 1) * dim


def graph_expand_Tn(factors, xp: ExactPropagators) -> PolyFunctional:
    """n-fold time-ordered product (Feynman kernel) evaluated as the graph
    sum.

    Keeps one polynomial bank per factor, applies each line of each graph as
    one cross-bank contraction, and weights with hbar^L / prod l_ij!.
    """
    factors = list(factors)
    if not factors:
        raise GraphError("need at least one factor")
    trunc_h = min(f.trunc_h for f in factors)
    schedules = []
    for g in enumerate_graphs(len(factors), trunc_h):
        lines = tuple((i - 1, j - 1, 0)
                      for (i, j), m in sorted(g.lines.items())
                      for _ in range(m))
        schedules.append((lines, Fraction(1, symmetry_factor(g))))
    return contract(factors, [xp.numerators("timeordered_F")], schedules)


def tadpole_demo(xp: ExactPropagators, f, g) -> dict:
    """Self-contraction bookkeeping for a renormalised binary product of
    F = integral of phi^2 f and G = integral of phi^2 g.

    With D = hbar * Gamma_K the single-vertex self-contraction operator, K
    the Feynman kernel, the dressed product (1 + D/2)[((1 - D/2)F)
    ((1 - D/2)G)] cancels all single-loop self-line terms at first order in
    hbar, leaving only the cross contractions between F and G.
    """
    kernels = [xp.numerators("timeordered_F")]
    F, G = local_power(xp.lat, f, 2), local_power(xp.lat, g, 2)

    def dress(X, weight):
        """(1 + weight * D) X."""
        return contract([X], kernels, [((), 1), (((0, 0, 0),), weight)])

    half = Fraction(1, 2)
    inner = pointwise_product(dress(F, -half), dress(G, -half))
    got = h_slice(dress(inner, half), 1)
    # all lines in a binary product are cross lines
    want = h_slice(QuantProduct(xp, "timeordered_F").product(F, G), 1)
    return {"cross_expected_h1": want, "dressed_h1": got,
            "self_terms_cancel": got == want}


def h_slice(F: PolyFunctional, n: int) -> PolyFunctional:
    """Terms of exact hbar-order n, as a functional (hbar stripped)."""
    return PolyFunctional.from_numerators(
        F.lat, {(0, l): bank for (h, l), bank in F.slices.items() if h == n},
        F.den, F.trunc_h, F.trunc_l)
