"""Binomial edge ideals handled through their combinatorics.

The ideal of a graph G on vertices 1..n lives in a polynomial ring with one
pair of variables per vertex.  Every prime this package touches is
determined by a set of killed vertices together with the partition of the
remaining vertices into cliques: such a prime collects both variables over
each killed vertex and, for each block, the 2x2 minors of the generic
2-row matrix on the block's columns.  A block with c vertices contributes
height c - 1, so

    height = 2 * #killed + sum(block size - 1)
    dim    = (n - #killed) + #blocks

and the two are complementary in the 2n ambient variables.

The minimal primes of the graph itself come from cut sets: keep S exactly
when every vertex of S raises the component count of what is left.

Internally a prime is a pair of masks, (kill mask, block masks in
increasing order), with bit v - 1 standing for vertex v.  A sum of two
primes kills k, the union of the kill masks, and overlays what is left of
the two partitions once k is stripped from every block.  The overlay is
prime precisely when each of its connected components is a complete graph;
for two partitions that means each component is itself a residual block
of one side, so primality is read off the join of the two partitions with
no graph built.  A non-prime sum decomposes by the cut set rule applied to
the overlay graph, computed once per kill mask and set of maximal residual
cliques.  CliquePrime is built only at the edges: for the minimal primes
of the graph and for the node ideals of the finished poset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .posets import (
    DEFAULT_MAX_ELEMENTS,
    AnalysisPoset,
    IdealNode,
    RingContext,
    _bits,
    join_closure,
)


@dataclass(frozen=True)
class Graph:
    """A finite simple graph on vertices 1..n."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("a graph needs at least one vertex")
        for u, v in self.edges:
            if not (1 <= u < v <= self.n):
                raise ValueError(f"edge ({u}, {v}) out of range or misordered")

    @classmethod
    def from_edges(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        norm = set()
        for u, v in pairs:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            norm.add((min(u, v), max(u, v)))
        return cls(n, frozenset(norm))

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls.from_edges(n, ((i, i + 1) for i in range(1, n)))

    @classmethod
    def complete_bipartite(cls, left: int, right: int) -> "Graph":
        n = left + right
        return cls.from_edges(
            n, ((i, j) for i in range(1, left + 1) for j in range(left + 1, n + 1))
        )


def ring_for(graph: Graph) -> RingContext:
    """The ambient ring: x_i and y_i for each vertex, 2n variables in all."""
    names = tuple(f"x_{i}" for i in range(1, graph.n + 1)) + tuple(
        f"y_{i}" for i in range(1, graph.n + 1)
    )
    return RingContext(names)


def _canonical_blocks(blocks: Iterable[Iterable[int]]) -> tuple[frozenset[int], ...]:
    return tuple(
        sorted((frozenset(b) for b in blocks), key=lambda b: tuple(sorted(b)))
    )


@dataclass(frozen=True)
class CliquePrime:
    """A prime: killed vertices plus a partition of the rest into cliques."""

    n: int
    killed: frozenset[int]
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "killed", frozenset(self.killed))
        object.__setattr__(self, "blocks", _canonical_blocks(self.blocks))
        rest = set(range(1, self.n + 1)) - self.killed
        seen: set[int] = set()
        for b in self.blocks:
            if not b:
                raise ValueError("empty block")
            if b & seen:
                raise ValueError("blocks are not disjoint")
            seen |= b
        if seen != rest:
            raise ValueError("blocks must partition the unkilled vertices")
        assert self.dim + self.height == 2 * self.n

    @property
    def height(self) -> int:
        return 2 * len(self.killed) + sum(len(b) - 1 for b in self.blocks)

    @property
    def dim(self) -> int:
        return (self.n - len(self.killed)) + len(self.blocks)

    def key(self) -> tuple:
        return (
            tuple(sorted(self.killed)),
            tuple(tuple(sorted(b)) for b in self.blocks),
        )


def _mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def _vertex_set(mask: int) -> frozenset[int]:
    return frozenset(b + 1 for b in _bits(mask))


# A prime as masks: (kill mask, block masks in increasing order).
MaskPrime = tuple[int, tuple[int, ...]]


def _to_masks(p: CliquePrime) -> MaskPrime:
    return _mask(p.killed), tuple(sorted(_mask(b) for b in p.blocks))


def _from_masks(n: int, rep: MaskPrime) -> CliquePrime:
    kill, blocks = rep
    return CliquePrime(n, _vertex_set(kill), tuple(_vertex_set(b) for b in blocks))


def _order_key(n: int, rep: MaskPrime) -> tuple:
    """(height, CliquePrime.key()) read off the masks.

    key() orders blocks by their sorted vertex tuples, not by mask value:
    {1, 5} comes before {2}.
    """
    kill, blocks = rep
    return (
        n + kill.bit_count() - len(blocks),
        tuple(_bits(kill)),
        tuple(sorted(tuple(_bits(b)) for b in blocks)),
    )


def _clique_adjacency(n: int, cliques: Iterable[int]) -> list[int]:
    """Adjacency masks of the union of complete graphs on the given masks."""
    adj = [0] * n
    for c in cliques:
        for v in _bits(c):
            adj[v] |= c ^ 1 << v
    return adj


def _mask_components(adj: Sequence[int], present: int) -> tuple[int, ...]:
    comps = []
    rest = present
    while rest:
        comp = rest & -rest
        frontier = comp
        while frontier:
            grown = 0
            for v in _bits(frontier):
                grown |= adj[v]
            grown &= present & ~comp
            comp |= grown
            frontier = grown
        comps.append(comp)
        rest &= ~comp
    return tuple(comps)


def _admissible_primes(
    n: int, base_kill: int, adj: Sequence[int], present: int
) -> list[MaskPrime]:
    """All primes from cut sets T of the graph (adj, present), over base_kill.

    T qualifies when removing any single vertex of T gives strictly fewer
    components than removing all of T; the empty set always qualifies.
    Only vertices whose neighbourhood is not a clique are walked: putting
    back a vertex with a clique or empty neighbourhood joins at most one
    component, so the count never drops.  The primes come sorted by
    (height, CliquePrime.key()).
    """
    cache: dict[int, tuple[int, ...]] = {}

    def components(mask: int) -> tuple[int, ...]:
        got = cache.get(mask)
        if got is None:
            got = _mask_components(adj, mask)
            cache[mask] = got
        return got

    walk = 0
    for v in _bits(present):
        nbrs = adj[v] & present
        if any(nbrs & ~(adj[u] | 1 << u) for u in _bits(nbrs)):
            walk |= 1 << v
    found = []
    t = walk
    while True:
        rest = present & ~t
        base = len(components(rest))
        if all(len(components(rest | (1 << i))) < base for i in _bits(t)):
            found.append((base_kill | t, tuple(sorted(components(rest)))))
        if t == 0:
            break
        t = (t - 1) & walk
    found.sort(key=lambda rep: _order_key(n, rep))
    return found


def minimal_primes_graph(graph: Graph) -> list[CliquePrime]:
    """Minimal primes of the binomial edge ideal of the graph."""
    n = graph.n
    adj = _clique_adjacency(n, (_mask(e) for e in graph.edges))
    return [_from_masks(n, rep) for rep in _admissible_primes(n, 0, adj, (1 << n) - 1)]


def _sum(
    a: MaskPrime, b: MaskPrime
) -> tuple[int, Optional[tuple[int, ...]], tuple[int, ...], tuple[int, ...]]:
    """The sum of two primes: (kill, blocks, residual blocks of a and of b).

    The sum kills k = the union of the kill sets and overlays what is left
    of both partitions; blocks is None unless that sum is prime.  It is
    prime exactly when every connected component of the overlay is itself
    a residual block of a or of b.  Blocks of one partition are disjoint,
    so in a complete component two vertices from different blocks of a
    share a block of b, and a component meeting two blocks of a lies in a
    single block of b.  Hence each block of b either fits in one block of
    a, or contains every block of a it meets and is a component itself.
    """
    ka, ba = a
    kb, bb = b
    k = ka | kb
    ra = ba if k == ka else tuple([r for x in ba if (r := x & ~k)])
    rb = bb if k == kb else tuple([r for x in bb if (r := x & ~k)])
    own = 0
    for x in rb:
        for c in ra:
            if c & x:
                if not x & ~c:
                    break
                if c & ~x:
                    return k, None, ra, rb
        else:
            own |= x
    blocks = [x for x in rb if x & own] + [c for c in ra if not c & own]
    blocks.sort()
    return k, tuple(blocks), ra, rb


def _maximal_cliques(ra: Sequence[int], rb: Sequence[int]) -> tuple[int, ...]:
    """The inclusion-maximal blocks among two partitions of one set."""
    keep = []
    for c in ra:
        for x in rb:
            if not c & ~x:
                break
        else:
            keep.append(c)
    for x in rb:
        for c in ra:
            if not x & ~c and x != c:
                break
        else:
            keep.append(x)
    keep.sort()
    return tuple(keep)


def build_Q_poset(
    graph: Graph, *, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> AnalysisPoset:
    """Poset of iterated sums of the minimal primes, under reverse inclusion.

    Every accumulated prime is summed with every other; non-prime sums are
    decomposed and their minimal primes join the pool, so the result is
    closed under the whole sum-then-decompose loop.  A decomposition
    depends only on the kill set and the maximal residual cliques, so it is
    computed once per such pair.
    """
    n = graph.n
    full = (1 << n) - 1
    ring = ring_for(graph)
    decomposed: dict[tuple[int, tuple[int, ...]], tuple[MaskPrime, ...]] = {}

    def primes_of_sum(a: MaskPrime, b: MaskPrime) -> tuple[MaskPrime, ...]:
        kill, blocks, ra, rb = _sum(a, b)
        if blocks is not None:
            return ((kill, blocks),)
        key = (kill, _maximal_cliques(ra, rb))
        pieces = decomposed.get(key)
        if pieces is None:
            adj = _clique_adjacency(n, key[1])
            pieces = tuple(_admissible_primes(n, kill, adj, full & ~kill))
            decomposed[key] = pieces
        return pieces

    def build_node(rep: MaskPrime, node_id: str) -> IdealNode:
        cp = _from_masks(n, rep)
        return IdealNode(id=node_id, ideal=cp, dim=cp.dim, height=cp.height)

    return join_closure(
        [_to_masks(p) for p in minimal_primes_graph(graph)],
        primes_of_sum,
        node_builder=build_node,
        ring=ring,
        provenance="binomial-edge",
        max_elements=max_elements,
    )
