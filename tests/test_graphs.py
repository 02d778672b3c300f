"""Multigraph combinatorics and the graph-sum route to time-ordered products."""
import math
import random
from fractions import Fraction

import pytest

from paqft import InputError
from paqft.graphs import (MAX_GRAPHS, Multigraph, GraphError,
                          SelfLineForbidden, enumerate_graphs, symmetry_factor,
                          symmetry_factor_multinomial,
                          divergence_degree, graph_expand_Tn, tadpole_demo)
from paqft.quantization import QuantProduct

from conftest import make_functional

FISH = Multigraph(2, {(1, 2): 2})
SUN = Multigraph(2, {(1, 2): 3})
EDGE = Multigraph(2, {(1, 2): 1})
TRIANGLE = Multigraph(3, {(1, 2): 1, (2, 3): 1, (1, 3): 1})
key = Multigraph.sort_key  # the canonical form: vertex count, sorted lines


def test_multigraph_canonicalization():
    g = Multigraph(3, {(2, 1): 2, (1, 2): 1, (3, 2): 0})
    assert g.lines == {(1, 2): 3}
    assert g.total_lines == 3
    assert key(g) == key(Multigraph(3, {(1, 2): 3}))


def test_multigraph_rejects_bad_lines():
    with pytest.raises(SelfLineForbidden):
        Multigraph(2, {(1, 1): 1})
    with pytest.raises(GraphError):
        Multigraph(2, {(1, 3): 1})
    with pytest.raises(GraphError):
        Multigraph(2, {(1, 2): -1})
    with pytest.raises(GraphError):
        Multigraph(-1, {})


def test_enumeration_counts():
    # lines distribute over C(n,2) pairs: count multisets of size <= L
    def expected(n, L):
        p = n * (n - 1) // 2
        if p == 0:
            return 1
        return sum(math.comb(p + k - 1, k) for k in range(L + 1))

    for n in (1, 2, 3, 4):
        for L in (0, 1, 2, 3):
            graphs = enumerate_graphs(n, L)
            assert len(graphs) == expected(n, L)
            assert len({repr(g) for g in graphs}) == len(graphs)
            assert graphs[0].total_lines == 0  # empty graph first
    with pytest.raises(GraphError):
        enumerate_graphs(0, 2)


def test_enumeration_is_bounded_before_any_graph_is_built():
    """More than MAX_GRAPHS multigraphs, C(n(n-1)/2 + lines, lines), or
    vertex pairs raise InputError naming both arguments, at once even for
    counts far past what could be listed; up to the bound, many pairs and
    few lines are listed (no recursion per vertex pair)."""
    for n, lines in ((10, 4), (10, 10), (3, 10 ** 100), (10 ** 9, 0),
                     (448, 1)):
        with pytest.raises(InputError, match=f"n = {n} vertices, lines = "
                                             f"{lines}: .*MAX_GRAPHS"):
            enumerate_graphs(n, lines)
    assert 447 * 446 // 2 <= MAX_GRAPHS
    assert len(enumerate_graphs(447, 0)) == 1
    graphs = enumerate_graphs(46, 1)
    assert len(graphs) == 1 + 46 * 45 // 2
    assert {g.total_lines for g in graphs[1:]} == {1}


def test_symmetry_factors_known_graphs():
    assert symmetry_factor(EDGE) == 1
    assert symmetry_factor(FISH) == 2
    assert symmetry_factor(SUN) == 6
    assert symmetry_factor(TRIANGLE) == 1
    assert symmetry_factor(Multigraph(3, {(1, 2): 2, (2, 3): 2})) == 4


def test_symmetry_factor_matches_multinomial_count():
    for g in enumerate_graphs(4, 4):
        assert symmetry_factor(g) == symmetry_factor_multinomial(g)


def test_divergence_degrees():
    # |E|(d-2) - (|V|-1)d: in d=4 the fish is log-divergent, the sun quadratic
    assert divergence_degree(FISH, 4) == 0
    assert divergence_degree(SUN, 4) == 2
    assert divergence_degree(EDGE, 4) == -2
    assert divergence_degree(TRIANGLE, 4) == -2
    # in d=2 every line costs nothing and every extra vertex helps
    assert all(divergence_degree(g, 2) == -2 for g in (FISH, SUN, EDGE))
    assert divergence_degree(TRIANGLE, 2) == -4


def test_graph_sum_equals_iterated_product(xp_small):
    rng = random.Random(23)
    lat = xp_small.lat
    tp = QuantProduct(xp_small, "timeordered_F")
    for n in (2, 3):
        for _ in range(3):
            factors = [make_functional(rng, lat, max_degree=2, n_terms=2)
                       for _ in range(n)]
            assert graph_expand_Tn(factors, xp_small) == tp.multi(factors)
    with pytest.raises(GraphError):
        graph_expand_Tn([], xp_small)


def test_tadpole_self_contractions_cancel(xp_small):
    lat = xp_small.lat
    rep = tadpole_demo(xp_small, {lat.site(3, 1): Fraction(1),
                                  lat.site(3, 2): Fraction(1, 3)},
                       {lat.site(4, 2): Fraction(1)})
    assert rep["self_terms_cancel"]
