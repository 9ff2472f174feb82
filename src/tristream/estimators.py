"""Single-pass streaming triangle estimators.

Two methods consume a randomly ordered stream of undirected edges exactly
once, under a bounded memory window:

* ``nes_run`` (naive edge sampling) keeps each stream edge in a subgraph
  with probability ``p`` and counts the subgraph wedges that later stream
  edges close.  A triangle is identified with probability ``p**2``, so the
  closed-wedge count scales by ``1 / p**2``.

* ``pes_run`` (priority edge sampling) keeps the same ``p``-sampled
  subgraph but additionally maintains a fixed-capacity reservoir of
  *candidate wedges*: a candidate forms whenever a stream edge shares an
  endpoint with a subgraph edge.  The reservoir's replacement rule keeps
  every candidate seen so far with probability ``q = capacity / candidates``,
  which is typically much larger than ``p``, so triangles are identified
  with probability ``p * q`` and the closed count scales by ``1 / (p * q)``.

Estimated relative standard error for either method is
``triangles_observed ** -0.5`` (unavailable when no triangle was seen).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Callable

from .analysis import pes_rse_simple
from .edgelist import Edge, EdgeList, NodeId
from .randomness import RandomSource

__all__ = ["EstimateResult", "WedgePool", "nes_run", "pes_run"]


class WedgePool:
    """Slot state of the fixed-capacity reservoir of candidate wedges that
    :func:`pes_run` keeps; the reservoir protocol lives in its loop.

    Slot ``i`` is stored across three parallel lists: ``pairs[i]`` is the
    canonical outer pair ``(a, b)`` with ``a <= b``, ``centers[i]`` the
    center and ``closed[i]`` the closed flag.  ``candidate_count`` counts
    the candidates offered so far and ``closed_count`` the closed wedges in
    the slots; ``pes_run`` keeps both in locals and writes them back before
    each ``on_step`` call and at the end of the run.
    """

    __slots__ = (
        "capacity", "pairs", "centers", "closed", "candidate_count", "closed_count", "_by_pair",
    )

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"pool capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.pairs: list[tuple[NodeId, NodeId]] = []
        self.centers: list[NodeId] = []
        self.closed: list[bool] = []
        self.candidate_count = 0
        self.closed_count = 0
        # Outer endpoint pair -> the slots it was stored in, filed on every
        # admission and never unfiled: an entry whose slot now holds another
        # pair is stale and skipped when the pair closes.  The pair's edge
        # pops its entries, since every stream edge arrives once.
        self._by_pair: dict[tuple[NodeId, NodeId], list[int]] = {}

    def retention_probability(self) -> float:
        """Probability that any given candidate is currently retained.

        ``capacity / candidate_count`` once the pool has overflowed, clamped
        to 1 while every candidate still fits (retention is then certain).
        """
        if self.candidate_count <= self.capacity:
            return 1.0
        return self.capacity / self.candidate_count

    def wedge_keys(self) -> list[tuple[NodeId, NodeId, NodeId]]:
        """The slots as ``(a, center, b)`` with ``a <= b``, in slot order."""
        return [(a, center, b) for (a, b), center in zip(self.pairs, self.centers)]

    def audit(self) -> None:
        """Debug walk verifying the bookkeeping invariants; raises on mismatch."""
        size = len(self.pairs)
        if len(self.centers) != size or len(self.closed) != size:
            raise RuntimeError(
                f"slot lists out of step: {size} pairs, {len(self.centers)} centers, "
                f"{len(self.closed)} flags"
            )
        closed = sum(self.closed)
        if closed != self.closed_count:
            raise RuntimeError(
                f"closed-count drift: counter {self.closed_count}, slots hold {closed}"
            )
        expected_size = min(self.capacity, self.candidate_count)
        if size != expected_size:
            raise RuntimeError(f"occupancy drift: {size} slots, expected {expected_size}")
        for index, (a, b) in enumerate(self.pairs):
            if not a < b:
                raise RuntimeError(f"slot {index} holds non-canonical pair {(a, b)}")
        filed = {(pair, index) for pair, indices in self._by_pair.items() for index in indices}
        for index, pair in enumerate(self.pairs):
            if not self.closed[index] and (pair, index) not in filed:
                raise RuntimeError(f"open slot {index} is not filed under its pair {pair}")

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class EstimateResult:
    """One estimator run.

    ``q``, ``candidate_wedges`` and ``pool_size`` are None for the naive
    method, which has no reservoir.  ``sample_size`` counts subgraph edges
    plus final pool occupancy.  ``estimated_rse`` is None when no triangle
    was observed.
    """

    method: str
    estimate: float
    p: float
    q: float | None
    candidate_wedges: int | None
    triangles_observed: int
    subgraph_edges: int
    pool_size: int | None
    sample_size: int
    estimated_rse: float | None


def _check_probability(p: float) -> None:
    if not 0.0 < p <= 1.0:
        raise ValueError(f"sampling probability p must be in (0, 1], got {p}")
    if p * p == 0.0:
        raise ValueError(f"sampling probability p = {p} is too small: p * p is 0")


def nes_run(stream: EdgeList, p: float, rng: RandomSource) -> EstimateResult:
    """Naive edge sampling over one pass of ``stream``.

    Per edge: admit it to the subgraph with probability ``p``, then count
    the subgraph wedges it closes (common sampled neighbors of its two
    endpoints).  An edge never closes a wedge it belongs to, so the order of
    the two steps does not affect the count.  The subgraph is kept as
    neighbor sets, which the intersection needs and which cost no ordering
    on insert.
    """
    _check_probability(p)
    incidence: dict[NodeId, set[NodeId]] = {}
    neighbors = incidence.get
    unseen: frozenset[NodeId] = frozenset()
    uniform = rng.uniform
    kept = closed = 0
    for edge in stream.edges:
        x, y = edge
        if uniform() < p:
            incidence.setdefault(x, set()).add(y)
            incidence.setdefault(y, set()).add(x)
            kept += 1
        closed += len(neighbors(x, unseen) & neighbors(y, unseen))
    return EstimateResult(
        method="nes",
        estimate=closed / (p * p),
        p=p,
        q=None,
        candidate_wedges=None,
        triangles_observed=closed,
        subgraph_edges=kept,
        pool_size=None,
        sample_size=kept,
        estimated_rse=pes_rse_simple(closed),
    )


StepHook = Callable[[int, Edge, dict[NodeId, list[NodeId]], WedgePool], None]


def pes_run(
    stream: EdgeList,
    p: float,
    pool_size: int,
    rng: RandomSource,
    *,
    on_step: StepHook | None = None,
) -> EstimateResult:
    """Priority edge sampling over one pass of ``stream``.

    Per edge, in order: (1) draw whether it joins the subgraph, with
    probability ``p``; (2) close any pool wedge whose outer endpoints it
    joins; (3) form one candidate wedge with every subgraph edge sharing
    exactly one endpoint and offer each to the reservoir; (4) add the edge
    to the subgraph if it was drawn.  Candidates are thus formed from the
    subgraph of the earlier edges, whether or not the current edge is
    admitted, and the edge never pairs with itself.

    The reservoir appends every candidate while it has room.  Once full,
    the t-th candidate replaces a uniformly random slot with probability
    ``capacity / t``; by the standard reservoir induction every candidate
    seen so far then sits in the pool with exactly that probability.
    Evicting a closed wedge un-counts it.  The draws: one ``uniform()`` per
    stream edge, then, per candidate offered to a full pool, one
    ``uniform()`` compared as ``uniform() < capacity / t`` and, when it
    replaces a slot, one ``randrange(capacity)``.  Each edge offers center
    ``x``'s neighbors first, then ``y``'s.

    The subgraph is ``incidence``, which maps each node to its sampled
    neighbors in ascending order, kept sorted on insert so that candidates
    are offered in a fixed order without a sort per stream edge.  It and
    the pool's lazy pair index rely on every stream edge arriving once, as
    an :class:`EdgeList` promises: a repeated edge would list a neighbor
    twice and pair with its own earlier copy, and the index drops a pair's
    entries at the one lookup the pair's edge makes.

    The final estimate divides the closed count by ``p * q`` where ``q`` is
    the pool's final retention probability.  ``on_step`` is called after
    each edge with (1-based step, edge, incidence, pool), for trace tests.
    """
    _check_probability(p)
    incidence: dict[NodeId, list[NodeId]] = {}
    pool = WedgePool(pool_size)
    sorted_neighbors = incidence.get  # no list for an unseen node
    uniform, randrange = rng.uniform, rng.randrange
    capacity, pairs, centers, closed, by_pair = (
        pool.capacity, pool.pairs, pool.centers, pool.closed, pool._by_pair
    )
    count = closed_count = kept = 0
    for step, edge in enumerate(stream.edges, start=1):
        x, y = edge
        admitted = uniform() < p
        slots = by_pair.pop(edge, None)
        if slots is not None:
            for index in slots:
                if pairs[index] == edge and not closed[index]:
                    closed[index] = True
                    closed_count += 1
        for center, outer in (edge, (y, x)):  # center x first, then center y
            others = sorted_neighbors(center)
            if not others:
                continue
            if count < capacity:
                # Fill phase: append while the pool has room.
                fill = others[: capacity - count]
                for other in fill:
                    pair = (outer, other) if outer <= other else (other, outer)
                    by_pair.setdefault(pair, []).append(len(pairs))
                    pairs.append(pair)
                    centers.append(center)
                    closed.append(False)
                count += len(fill)
                others = others[len(fill):]
            # Full phase: the t-th candidate replaces a random slot w.p. capacity / t.
            for other in others:
                count += 1
                if uniform() < capacity / count:
                    index = randrange(capacity)
                    if closed[index]:
                        closed[index] = False
                        closed_count -= 1
                    pair = (outer, other) if outer <= other else (other, outer)
                    by_pair.setdefault(pair, []).append(index)
                    pairs[index] = pair
                    centers[index] = center
        if admitted:
            insort(incidence.setdefault(x, []), y)
            insort(incidence.setdefault(y, []), x)
            kept += 1
        if on_step is not None:
            pool.candidate_count, pool.closed_count = count, closed_count
            on_step(step, edge, incidence, pool)
    pool.candidate_count, pool.closed_count = count, closed_count
    q = pool.retention_probability()
    return EstimateResult(
        method="pes",
        estimate=closed_count / (p * q),
        p=p,
        q=q,
        candidate_wedges=count,
        triangles_observed=closed_count,
        subgraph_edges=kept,
        pool_size=len(pool),
        sample_size=kept + len(pool),
        estimated_rse=pes_rse_simple(closed_count),
    )
