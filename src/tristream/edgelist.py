"""Edge-list parsing, normalization, and seeded stream shuffling.

Input files are plain text, one edge per line as two integer node labels
separated by whitespace.  Lines starting with ``#`` or ``%`` are comments
(covers both the SNAP and KONECT corpora), extra per-line tokens such as
weights or timestamps are ignored, and gzip-compressed files are detected
by their magic bytes.
"""

from __future__ import annotations

import gzip
import random
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

NodeId = int
StreamSeed = int

_GZIP_MAGIC = b"\x1f\x8b"
_COMMENT_PREFIXES = ("#", "%")


class ParseError(ValueError):
    """A malformed edge-list line; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


# A canonical undirected edge: a plain pair, the smaller endpoint first.
Edge = tuple[NodeId, NodeId]


def make_edge(a: NodeId, b: NodeId) -> Edge:
    """Build a canonically oriented edge; (a, b) and (b, a) map to the same Edge."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class EdgeList:
    """A normalized sequence of undirected edges; the order is the stream order.

    Normalized means: no self-loops, no duplicate undirected edges, every
    edge canonically oriented.
    """

    edges: tuple[Edge, ...]

    @property
    def node_count(self) -> int:
        """Distinct endpoints, counted on each access."""
        return len({endpoint for edge in self.edges for endpoint in edge})

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def normalize_edges(pairs: Iterable[tuple[int, int]]) -> tuple[Edge, ...]:
    """Drop self-loops, canonicalize, and collapse duplicates keeping first occurrence."""
    first: dict[Edge, None] = {}  # insertion-ordered; a repeat keeps its first place
    for a, b in pairs:
        if a != b:
            first[make_edge(a, b)] = None
    return tuple(first)


def parse_edge_text(text: str) -> EdgeList:
    """Parse edge-list text into a normalized EdgeList, in one pass.

    Raises ParseError (naming the line) on a non-integer or negative
    endpoint.  Empty input yields an empty EdgeList.
    """

    def endpoints() -> Iterator[tuple[int, int]]:
        for line_number, line in enumerate(text.splitlines(), start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith(_COMMENT_PREFIXES):
                continue
            tokens = stripped.split()
            if len(tokens) < 2:
                raise ParseError(line_number, f"expected two integer endpoints, got {stripped!r}")
            try:
                a, b = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise ParseError(line_number, f"non-integer endpoint in {stripped!r}") from None
            if a < 0 or b < 0:
                raise ParseError(line_number, f"negative node id in {stripped!r}")
            yield a, b

    return EdgeList(normalize_edges(endpoints()))


def load_edge_list(path: str | Path) -> EdgeList:
    """Read a file, gunzip it when its magic bytes say so, decode it as UTF-8
    and parse it.  Corrupt gzip data raises ``gzip.BadGzipFile``; non-UTF-8
    text, a ParseError naming the line the parser would read the byte on."""
    data = Path(path).read_bytes()
    if data[:2] == _GZIP_MAGIC:
        try:
            data = gzip.decompress(data)
        except (EOFError, zlib.error) as err:
            raise gzip.BadGzipFile(f"corrupt gzip data: {err}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        # The bytes before the bad one decode; "x" stands in for it.
        line_number = len((data[: err.start].decode("utf-8") + "x").splitlines())
        raise ParseError(line_number, "not UTF-8 text") from None
    del data  # the parse need not hold the bytes at its peak
    return parse_edge_text(text)


def serialize_edge_list(edge_list: EdgeList) -> str:
    """One ``u v`` pair per line, canonical orientation, newline-terminated."""
    return "".join(f"{u} {v}\n" for u, v in edge_list.edges)


def shuffle_stream(edge_list: EdgeList, seed: StreamSeed) -> EdgeList:
    """Uniform random permutation of the stream order, driven entirely by seed.

    The Fisher-Yates loop of ``random.Random(seed).shuffle``, inlined on
    ``getrandbits``, so it gives exactly that order; the input is left
    unmodified.
    """
    order = list(edge_list.edges)
    getrandbits = random.Random(seed).getrandbits
    for i in range(len(order) - 1, 0, -1):
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        order[i], order[j] = order[j], order[i]
    return EdgeList(tuple(order))
