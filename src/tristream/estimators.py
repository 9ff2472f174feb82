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
from typing import Callable, Iterable

from .analysis import pes_rse_simple
from .edgelist import Edge, EdgeList, NodeId
from .randomness import RandomSource


class WedgePool:
    """Fixed-capacity uniform reservoir of candidate wedges.

    While the pool has room every candidate is appended.  Once full, the
    t-th candidate replaces a uniformly random slot with probability
    ``capacity / t``; by the standard reservoir induction every candidate
    seen so far then sits in the pool with exactly that probability.
    Evicting a closed wedge decrements the closed count, which keeps
    ``closed_count`` equal to the number of closed wedges in the slots.

    Slot ``i`` is stored across three parallel lists: ``pairs[i]`` is the
    canonical outer pair ``(a, b)`` with ``a <= b``, ``centers[i]`` the
    center and ``closed[i]`` the closed flag.  A rejected candidate costs a
    counter bump, a compare and one ``uniform()`` draw; only an admitted one
    builds its pair and touches the lists.
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
        # pair is stale and skipped when the pair closes.
        self._by_pair: dict[tuple[NodeId, NodeId], list[int]] = {}

    def offer_all(
        self, outer: NodeId, center: NodeId, others: Iterable[NodeId], rng: RandomSource
    ) -> None:
        """Offer the candidate wedge (outer, center, other) for each ``other``
        in order.  No ``other`` may equal ``outer``: it would be counted and
        offered as a candidate though it forms no wedge.  ``pes_run`` offers
        an edge's candidates before the edge joins its subgraph, so its
        neighbor lists never hold the edge.

        Each candidate offered to a full pool draws one ``uniform()``, and each
        one it admits one ``randrange(capacity)``.
        """
        capacity = self.capacity
        count = self.candidate_count
        uniform = rng.uniform
        for other in others:
            count += 1
            if count > capacity:
                if uniform() < capacity / count:
                    self._replace(rng.randrange(capacity), outer, center, other)
            else:
                self._append(outer, center, other)
        self.candidate_count = count

    def _append(self, outer: NodeId, center: NodeId, other: NodeId) -> None:
        pair = (outer, other) if outer <= other else (other, outer)
        self._by_pair.setdefault(pair, []).append(len(self.pairs))
        self.pairs.append(pair)
        self.centers.append(center)
        self.closed.append(False)

    def _replace(self, index: int, outer: NodeId, center: NodeId, other: NodeId) -> None:
        if self.closed[index]:
            self.closed_count -= 1
            self.closed[index] = False
        pair = (outer, other) if outer <= other else (other, outer)
        self._by_pair.setdefault(pair, []).append(index)
        self.pairs[index] = pair
        self.centers[index] = center

    def close_matching(self, pair: tuple[NodeId, NodeId]) -> int:
        """Mark every open pool wedge whose outer endpoints equal ``pair`` closed.

        The pair's entries leave the index: every slot still holding it is
        closed now, and a later admission of the pair files it again.
        """
        indices = self._by_pair.pop(pair, None)
        if indices is None:
            return 0
        pairs, closed = self.pairs, self.closed
        newly_closed = 0
        for index in indices:
            if pairs[index] == pair and not closed[index]:
                closed[index] = True
                newly_closed += 1
        self.closed_count += newly_closed
        return newly_closed

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

    The subgraph is ``incidence``, which maps each node to its sampled
    neighbors in ascending order, kept sorted on insert so that candidates
    are offered in a fixed order without a sort per stream edge.  It and
    the pool's lazy pair index rely on every stream edge arriving once, as
    an :class:`EdgeList` promises: a repeated edge would list a neighbor
    twice and pair with its own earlier copy, and the index drops a pair's entries at the one lookup the
    pair's edge makes.

    The final estimate divides the closed count by ``p * q`` where ``q`` is
    the pool's final retention probability.  ``on_step`` is called after
    each edge with (1-based step, edge, incidence, pool), for trace tests.
    """
    _check_probability(p)
    incidence: dict[NodeId, list[NodeId]] = {}
    pool = WedgePool(pool_size)
    sorted_neighbors = incidence.get  # no list for an unseen node
    uniform = rng.uniform
    offer_all = pool.offer_all
    close_matching = pool.close_matching
    kept = 0
    for step, edge in enumerate(stream.edges, start=1):
        x, y = edge
        admitted = uniform() < p
        close_matching(edge)
        others = sorted_neighbors(x)
        if others:
            offer_all(y, x, others, rng)
        others = sorted_neighbors(y)
        if others:
            offer_all(x, y, others, rng)
        if admitted:
            insort(incidence.setdefault(x, []), y)
            insort(incidence.setdefault(y, []), x)
            kept += 1
        if on_step is not None:
            on_step(step, edge, incidence, pool)
    q = pool.retention_probability()
    triangles = pool.closed_count
    return EstimateResult(
        method="pes",
        estimate=triangles / (p * q),
        p=p,
        q=q,
        candidate_wedges=pool.candidate_count,
        triangles_observed=triangles,
        subgraph_edges=kept,
        pool_size=len(pool),
        sample_size=kept + len(pool),
        estimated_rse=pes_rse_simple(triangles),
    )
