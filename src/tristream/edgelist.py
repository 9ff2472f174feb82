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
from typing import Iterable

__all__ = ["Edge", "EdgeList", "ParseError", "load_edge_list", "make_edge", "normalize_edges",
           "parse_edge_text", "serialize_edge_list", "shuffle_stream"]

NodeId = int

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

    Each line's pair goes straight into the insertion-ordered dict, in the
    orientation and with the first-occurrence rule of ``normalize_edges``.
    ``str.split`` skips the same whitespace as ``str.strip``, so a line
    with no tokens is blank.  Raises ParseError (naming the line) on a
    non-integer or negative endpoint.  Empty input yields an empty EdgeList.
    """
    first: dict[Edge, None] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        try:
            a = int(tokens[0])
            b = int(tokens[1])
        except (ValueError, IndexError):
            # A comment's first token never reads as an integer, so comments
            # and short lines are told apart only on this path.
            if tokens[0].startswith(_COMMENT_PREFIXES):
                continue
            if len(tokens) < 2:
                raise ParseError(
                    line_number, f"expected two integer endpoints, got {line.strip()!r}"
                ) from None
            raise ParseError(line_number, f"non-integer endpoint in {line.strip()!r}") from None
        if a < 0 or b < 0:
            raise ParseError(line_number, f"negative node id in {line.strip()!r}")
        if a < b:
            first[a, b] = None
        elif b < a:
            first[b, a] = None
    return EdgeList(tuple(first))


def load_edge_list(path: str | Path) -> EdgeList:
    """Read a file, gunzip it when its magic bytes say so, decode it as UTF-8
    (dropping a leading byte-order mark) and parse it.  Corrupt gzip data
    raises ``gzip.BadGzipFile``; non-UTF-8 text, a ParseError naming the
    line the parser would read the byte on."""
    data = Path(path).read_bytes()
    if data[:2] == _GZIP_MAGIC:
        try:
            data = gzip.decompress(data)
        except (EOFError, zlib.error) as err:
            raise gzip.BadGzipFile(f"corrupt gzip data: {err}") from None
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as err:
        # The bytes before the bad one decode; "x" stands in for it.  The
        # offset counts from after a byte-order mark, as ``err.object`` does.
        line_number = len((err.object[: err.start].decode("utf-8") + "x").splitlines())
        raise ParseError(line_number, "not UTF-8 text") from None
    del data  # the parse need not hold the bytes at its peak
    return parse_edge_text(text)


def serialize_edge_list(edge_list: EdgeList) -> str:
    """One ``u v`` pair per line, canonical orientation, newline-terminated."""
    return "".join(f"{u} {v}\n" for u, v in edge_list.edges)


def shuffle_stream(edge_list: EdgeList, seed: int) -> EdgeList:
    """Uniform random permutation of the stream order, driven entirely by seed.

    The Fisher-Yates loop of ``random.Random(seed).shuffle``, inlined on
    ``getrandbits``, so it gives exactly that order; the input is left
    unmodified.
    """
    order = list(edge_list.edges)
    getrandbits = random.Random(seed).getrandbits
    top = len(order) - 1
    # (i + 1).bit_length() is constant from 2**(k-1) - 1 up to 2**k - 2.
    while top > 0:
        k = (top + 1).bit_length()
        bottom = (1 << (k - 1)) - 1
        for i in range(top, bottom - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            order[i], order[j] = order[j], order[i]
        top = bottom - 1
    return EdgeList(tuple(order))
