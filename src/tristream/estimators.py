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

from .analysis import _check_pool, _check_probability, pes_rse_simple
from .edgelist import Edge, EdgeList, NodeId
from .randomness import RandomSource

__all__ = ["EstimateResult", "WedgePool", "nes_run", "pes_run"]


class WedgePool:
    """Slot state of the fixed-capacity reservoir of candidate wedges that
    :func:`pes_run` keeps; the reservoir protocol lives in its loop.

    Slot ``i`` is stored across three parallel lists: ``pairs[i]`` is the
    canonical outer pair ``(a, b)`` with ``a <= b``, ``centers[i]`` the
    center and ``closed[i]`` the closed flag; ``closed_count`` is the number
    of set flags.  ``candidate_count`` counts the candidates offered so far;
    ``pes_run`` keeps it in a local and writes it back before each
    ``on_step`` call and at the end of the run.

    The open slots are indexed by outer pair as chains: ``_by_pair`` maps
    each pair that has an open slot to one of them, and ``_chain[i]`` gives
    the next open slot with slot ``i``'s pair, or -1.  A pair's chain holds
    exactly its open slots, each once, as ``audit`` checks.
    """

    __slots__ = (
        "capacity", "pairs", "centers", "closed", "candidate_count", "_by_pair", "_chain",
    )

    def __init__(self, capacity: int):
        _check_pool(capacity)
        self.capacity = capacity
        self.pairs: list[tuple[NodeId, NodeId]] = []
        self.centers: list[NodeId] = []
        self.closed: list[bool] = []
        self.candidate_count = 0
        self._by_pair: dict[tuple[NodeId, NodeId], int] = {}
        self._chain: list[int] = []

    @property
    def closed_count(self) -> int:
        return sum(self.closed)

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
        expected_size = min(self.capacity, self.candidate_count)
        if size != expected_size:
            raise RuntimeError(f"occupancy drift: {size} slots, expected {expected_size}")
        if len(self._chain) != size:
            raise RuntimeError(f"chain links out of step: {len(self._chain)} for {size} slots")
        open_slots: dict[tuple[NodeId, NodeId], list[int]] = {}
        for index, (a, b) in enumerate(self.pairs):
            if not a < b:
                raise RuntimeError(f"slot {index} holds non-canonical pair {(a, b)}")
            if not self.closed[index]:
                open_slots.setdefault((a, b), []).append(index)
        chained: dict[tuple[NodeId, NodeId], list[int]] = {}
        for pair, index in self._by_pair.items():
            slots = []  # a cycle stops at size + 1 slots, more than any chain holds
            while index != -1 and len(slots) <= size:
                slots.append(index)
                index = self._chain[index] if 0 <= index < size else -1
            chained[pair] = sorted(slots)
        for pair in {**open_slots, **chained}:
            if chained.get(pair) != open_slots.get(pair):
                raise RuntimeError(f"pair {pair}: index chains {chained.get(pair)}, "
                                   f"open slots are {open_slots.get(pair)}")

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

    The reservoir is Vitter's Algorithm R, one path per candidate: the t-th
    candidate takes a new slot while ``t <= capacity`` and otherwise
    replaces a uniformly random slot with probability ``capacity / t``; one
    block files either.  Every candidate seen so far then sits in the pool
    with probability ``min(1, capacity / t)``.  Evicting a closed wedge
    un-counts it.  The draws: one ``uniform()`` per stream edge, then, per
    candidate offered to a full pool, one ``uniform() < capacity / t`` and,
    when it replaces a slot, one ``randrange(capacity)``.  Each edge offers
    center ``x``'s neighbors first, then ``y``'s.

    The subgraph is ``incidence``, which maps each node to its sampled
    neighbors in ascending order, kept sorted on insert so that candidates
    are offered in a fixed order without a sort per stream edge.  It and
    the pool's pair index rely on every stream edge arriving once and
    canonical, as an :class:`EdgeList` promises but nothing checks: a
    repeated edge would pair with its own earlier copy, and a reversed one
    would close nothing.  A stream edge pops its pair's chain (see
    :class:`WedgePool`) and closes every slot on it; a replaced open slot is
    unlinked from its old pair's chain before it is filed under the new one.

    The final estimate divides the closed count by ``p * q`` where ``q`` is
    the pool's final retention probability.  ``on_step`` is called after
    each edge with (1-based step, edge, incidence, pool), for trace tests.
    """
    _check_probability(p)
    incidence: dict[NodeId, list[NodeId]] = {}
    pool = WedgePool(pool_size)
    sorted_neighbors = incidence.get
    uniform, randrange = rng.uniform, rng.randrange
    capacity, pairs, centers, closed, by_pair, chain = (
        pool.capacity, pool.pairs, pool.centers, pool.closed, pool._by_pair, pool._chain
    )
    count = kept = 0
    for step, edge in enumerate(stream.edges, start=1):
        x, y = edge
        admitted = uniform() < p
        index = by_pair.pop(edge, -1)
        while index != -1:  # close every open slot on the edge's chain
            closed[index] = True
            index = chain[index]
        for center, outer in (edge, (y, x)):  # center x first, then center y
            for other in sorted_neighbors(center, ()):
                count += 1
                if count > capacity:
                    # The t-th candidate replaces a random slot w.p. capacity / t.
                    if not uniform() < capacity / count:
                        continue
                    index = randrange(capacity)
                    if closed[index]:
                        # Off every chain: its pair was popped when it closed.
                        closed[index] = False
                    else:
                        # Unlink the slot from its pair's chain, usually as the head.
                        old = pairs[index]
                        head = by_pair.pop(old)
                        if head != index:
                            by_pair[old] = head
                            while chain[head] != index:
                                head = chain[head]
                            chain[head] = chain[index]
                        elif chain[index] != -1:
                            by_pair[old] = chain[index]
                else:
                    # The pool has room: the candidate takes a new slot, filed below.
                    index = count - 1
                    chain.append(-1)
                    pairs.append(edge)
                    centers.append(center)
                    closed.append(False)
                pair = (outer, other) if outer <= other else (other, outer)
                chain[index] = by_pair.get(pair, -1)
                by_pair[pair] = index
                pairs[index] = pair
                centers[index] = center
        if admitted:
            insort(incidence.setdefault(x, []), y)
            insort(incidence.setdefault(y, []), x)
            kept += 1
        if on_step is not None:
            pool.candidate_count = count
            on_step(step, edge, incidence, pool)
    pool.candidate_count = count
    closed_count = pool.closed_count
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
