"""Exact moments of the estimators over every path of their draws.

On a tiny graph with a fixed stream order, every path that the draws of
``pes_run`` or ``nes_run`` can take is listed with its exact probability, so
``E[estimate]`` and ``E[estimate ** 2]`` are ``Fraction``s.  The paper's
unbiasedness theorem and NES's variance are then checked as equalities,
where the statistical checks (C04, C05, C08) can only bound them by their
noise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations

import pytest

from tristream import (
    EdgeList,
    build_adjacency,
    compute_stats,
    cycle_graph,
    make_edge,
    nes_run,
    pes_run,
)

# A triangle with a pendant edge, the diamond (K4 less one edge), the bowtie
# (two triangles on one shared node) and K4.
PENDANT = tuple(make_edge(u, v) for u, v in ((1, 2), (1, 3), (2, 3), (3, 4)))
DIAMOND = tuple(make_edge(u, v) for u, v in ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4)))
BOWTIE = tuple(make_edge(u, v) for u, v in ((1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)))
K4 = tuple(make_edge(u, v) for u in range(1, 5) for v in range(u + 1, 5))


class _Draw:
    """One ``uniform()`` draw.  It answers only ``draw < threshold``, once,
    and does so by branching: True with weight ``threshold``, False with the
    rest.  Every other use raises, so a mutated comparison cannot pass by
    reading a placeholder value."""

    __slots__ = ("_source",)

    def __init__(self, source: _PathSource):
        self._source = source

    def __lt__(self, threshold: float) -> bool:
        source, self._source = self._source, None
        if source is None:
            raise TypeError("a draw is compared once")
        return source.branch(_draw_weights(threshold)) == 0

    def _refuse(self, *args):
        raise TypeError("a draw supports only draw < threshold")

    __le__ = __gt__ = __ge__ = __eq__ = __ne__ = __hash__ = __bool__ = __float__ = _refuse


@cache
def _draw_weights(threshold: float) -> tuple[Fraction, Fraction]:
    """A draw's (True, False) weights.  p is dyadic here, so exact; the
    pool's capacity / t is recovered as the small-denominator rational the
    float rounds."""
    weight = Fraction(threshold).limit_denominator(1 << 16)
    return weight, 1 - weight


def _next_branch(weights: tuple[Fraction, ...], after: int) -> int | None:
    """The first branch past ``after`` with a nonzero weight, or None."""
    return next((i for i in range(after + 1, len(weights)) if weights[i]), None)


class _PathSource:
    """A RandomSource that follows one path: the branches in ``prefix``, then
    the first possible branch at every later decision.  ``taken`` lists each
    decision as (branch, weights)."""

    def __init__(self, prefix: list[int]):
        self._prefix = prefix
        self.taken: list[tuple[int, tuple[Fraction, ...]]] = []

    def branch(self, weights: tuple[Fraction, ...]) -> int:
        depth = len(self.taken)
        choice = self._prefix[depth] if depth < len(self._prefix) else _next_branch(weights, -1)
        self.taken.append((choice, weights))
        return choice

    def uniform(self) -> _Draw:
        return _Draw(self)

    def randrange(self, n: int) -> int:
        return self.branch((Fraction(1, n),) * n)


def expectation(run) -> tuple[Fraction, int]:
    """``E[run(source)]`` over every path of draws, and the number of paths.

    Depth first: each path re-runs ``run`` from the start on the previous
    path's branches, moved on at its deepest decision that has a possible
    branch left.
    """
    total, paths, prefix = Fraction(0), 0, []
    while True:
        source = _PathSource(prefix)
        value = run(source)
        weight = Fraction(1)
        for choice, weights in source.taken:
            weight *= weights[choice]
        total += weight * value
        paths += 1
        taken = source.taken
        while taken:
            choice, weights = taken.pop()
            following = _next_branch(weights, choice)
            if following is not None:
                prefix = [branch for branch, _ in taken] + [following]
                break
        else:
            return total, paths


def second_moment(run) -> Fraction:
    """``E[run(source) ** 2]``, by the same enumeration."""
    return expectation(lambda source: run(source) ** 2)[0]


def mean_over_orders(edges, orbits: dict, statistic) -> Fraction:
    """The mean of ``statistic(stream)`` over every stream order of ``edges``.

    ``orbits`` maps one edge of each orbit of the graph's automorphisms to
    the orbit's size.  Relabelling the nodes by an automorphism carries the
    orders that start with one edge of an orbit onto those that start with
    another, so for a statistic blind to node labels only the orders that
    start with the named edges are run.  With every edge an orbit of size 1,
    every order is run.
    """
    assert sum(orbits.values()) == len(edges)
    total = Fraction(0)
    for first, size in orbits.items():
        rest = [edge for edge in edges if edge != first]
        values = [statistic(EdgeList((first, *order))) for order in permutations(rest)]
        total += size * sum(values, Fraction(0)) / len(values)
    return total / len(edges)


def pes_estimate(stream: EdgeList, p: float, capacity: int):
    """A ``run`` for :func:`expectation`: one ``pes_run``'s estimate, exact,
    from its integer fields, as ``closed * max(1, candidates / capacity) / p``."""

    def run(source: _PathSource) -> Fraction:
        result = pes_run(stream, p, capacity, source)
        scale = max(Fraction(1), Fraction(result.candidate_wedges, capacity))
        exact = result.triangles_observed * scale / Fraction(p)
        assert result.estimate == pytest.approx(float(exact), rel=1e-12)
        return exact

    return run


def nes_estimate(stream: EdgeList, p: float):
    def run(source: _PathSource) -> Fraction:
        result = nes_run(stream, p, source)
        exact = result.triangles_observed / Fraction(p) ** 2
        assert result.estimate == pytest.approx(float(exact), rel=1e-12)
        return exact

    return run


def test_draw_refuses_everything_but_less_than():
    draw = _PathSource([]).uniform()
    for use in (
        lambda: draw <= 0.5, lambda: draw > 0.5, lambda: draw >= 0.5, lambda: draw == 0.5,
        lambda: bool(draw), lambda: float(draw), lambda: hash(draw), lambda: draw * 2,
    ):
        with pytest.raises(TypeError):
            use()
    assert (draw < 0.5) is True
    with pytest.raises(TypeError):
        draw < 0.5


def test_expectation_sums_every_path():
    def run(source):
        return Fraction(source.randrange(4) + (source.uniform() < 0.25))

    assert expectation(run) == (Fraction(3, 2) + Fraction(1, 4), 8)


@pytest.mark.parametrize("capacity", [1, 2])
def test_pes_exactly_unbiased_in_every_order_of_a_pendant_triangle(capacity):
    for order in permutations(PENDANT):
        mean, paths = expectation(pes_estimate(EdgeList(order), 0.5, capacity))
        assert mean == 1, (order, mean, paths)


def test_nes_exactly_unbiased_in_every_order_of_a_pendant_triangle():
    for order in permutations(PENDANT):
        assert expectation(nes_estimate(EdgeList(order), 0.5))[0] == 1, order


@pytest.mark.parametrize("order, p, capacity", [
    pytest.param(DIAMOND, 0.5, 1, id="sorted-pool1"),
    pytest.param(DIAMOND, 0.25, 2, id="sorted-pool2"),
    pytest.param(DIAMOND[::-1], 0.5, 1, id="reversed-pool1"),
    pytest.param(DIAMOND[2:3] + DIAMOND[:2] + DIAMOND[3:], 0.5, 1, id="shared_edge_first-pool1"),
])
def test_exactly_unbiased_on_the_diamond(order, p, capacity):
    stream = EdgeList(order)
    assert expectation(pes_estimate(stream, p, capacity))[0] == 2
    assert expectation(nes_estimate(stream, p))[0] == 2


@pytest.mark.parametrize("edges, orbits, variance", [
    pytest.param(DIAMOND, {(2, 3): 1, (1, 2): 4}, Fraction(106, 15), id="diamond"),
    pytest.param(BOWTIE, {(1, 2): 2, (1, 3): 4}, Fraction(6), id="bowtie"),
    pytest.param(K4, {(1, 2): 6}, Fraction(92, 5), id="k4"),
])
def test_nes_variance_matches_its_closed_form_over_all_orders(edges, orbits, variance):
    # Var = T(1 - p^2)/p^2 + (16/15) S (1 - p)/p, averaged over the orders:
    # two triangles that share an edge are counted from the same kept edge
    # in 8 of 15 orders of their five edges.  The estimate's mean is T in
    # every order, so the mean variance is the mean second moment less T^2.
    p = Fraction(1, 2)
    stats = compute_stats(build_adjacency(EdgeList(edges)))
    closed_form = (stats.triangles * (1 - p * p) / (p * p)
                   + Fraction(16, 15) * stats.shared_pairs * (1 - p) / p)
    assert closed_form == variance
    mean_square = mean_over_orders(
        edges, orbits, lambda stream: second_moment(nes_estimate(stream, float(p))))
    assert mean_square - stats.triangles ** 2 == variance


@pytest.mark.parametrize("capacity, variance", [(1, Fraction(13, 2)), (2, Fraction(11, 4))])
def test_pes_exact_variance_on_a_pendant_triangle(capacity, variance):
    # Mean over all 24 orders at p = 1/2; NES's is 3.  The estimate's mean
    # is 1 in every order (above), so the variance is E[X^2] - 1.
    mean_square = mean_over_orders(
        PENDANT, dict.fromkeys(PENDANT, 1),
        lambda stream: second_moment(pes_estimate(stream, 0.5, capacity)))
    assert mean_square - 1 == variance


def test_retention_exact_on_a_cycle():
    # C08 made exact: at p = 1 the six wedges of a 6-cycle are all offered,
    # and a 2-slot pool ends holding each with probability 2/6.
    stream = cycle_graph(6)
    keys = sorted(
        (a, center, b)
        for center in range(6)
        for a, b in [sorted(((center - 1) % 6, (center + 1) % 6))]
    )

    def holds(key):
        def run(source):
            final = []

            def grab(step, edge, incidence, pool):
                if step == stream.edge_count:
                    final.extend(pool.wedge_keys())

            pes_run(stream, 1.0, 2, source, on_step=grab)
            return Fraction(key in final)

        return run

    for key in keys:
        assert expectation(holds(key))[0] == Fraction(1, 3), key
