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

Inside the sum closure a prime is a pair of ints, (kill mask, R), with
bit v - 1 of a mask standing for vertex v.  R packs the same-block
relation: row v takes n + 1 bits, n for the vertices and a guard bit on
top, and bit v*(n+1) + u is set when u and v are unkilled and share a
block; each unkilled vertex is related to itself.  A sum of two primes
kills k, the union of the kill masks, and masking both relations to the
rows and columns of the unkilled vertices leaves A and B, whose rows are
the residual blocks.  The overlay is prime exactly when, at every vertex,
one residual block contains the other, and its relation is then A | B:
nesting everywhere makes A | B transitive, so its components are cliques,
while at a vertex v with u only in v's block of a and w only in v's block
of b, the path u - v - w has no edge u - w.  Adding 2^n - 1 to a row
carries into its guard bit exactly when the row is nonempty, so with M
that value in every row, all n rows are tested at once: (A & ~B) + M and
(B & ~A) + M must share no guard bit.  A non-prime sum
decomposes by the cut set rule applied to the overlay graph, whose
adjacency is A | B itself, computed once per (k, A | B).  The cut set walk
and the label order still work on block masks, packed once per generator
and per piece.  CliquePrime is built only at the edges: for the minimal
primes of the graph and for the node ideals of the finished poset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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


def _rows(n: int, mask: int) -> int:
    """One bit at the start of row v for each vertex bit v of mask."""
    spread = 0
    for v in _bits(mask):
        spread |= 1 << v * (n + 1)
    return spread


# A prime inside the closure: (kill mask, packed same-block relation).
PackedPrime = tuple[int, int]


def _pack(n: int, rep: MaskPrime) -> PackedPrime:
    kill, blocks = rep
    rel = 0
    for b in blocks:
        rel |= b * _rows(n, b)  # b copied into row v for each v in b
    return kill, rel


def _unpack(n: int, rep: PackedPrime) -> MaskPrime:
    kill, rel = rep
    full = (1 << n) - 1
    blocks = []
    for v in _bits(full & ~kill):
        row = rel >> v * (n + 1) & full
        if row & -row == 1 << v:  # v is the least vertex of its block
            blocks.append(row)
    blocks.sort()
    return kill, tuple(blocks)


def build_Q_poset(
    graph: Graph, *, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> AnalysisPoset:
    """Poset of iterated sums of the minimal primes, under reverse inclusion.

    Every accumulated prime is summed with every other; non-prime sums are
    decomposed and their minimal primes join the pool, so the result is
    closed under the whole sum-then-decompose loop.  A decomposition
    depends only on the kill set and the overlay graph, so it is computed
    once per such pair.
    """
    n = graph.n
    full = (1 << n) - 1
    ones = full * _rows(n, full)
    guards = _rows(n, full) << n
    ring = ring_for(graph)
    keeps: dict[int, int] = {}
    decomposed: dict[PackedPrime, tuple[PackedPrime, ...]] = {}

    def primes_of_sum(a: PackedPrime, b: PackedPrime) -> tuple[PackedPrime, ...]:
        ka, ra = a
        kb, rb = b
        k = ka | kb
        if ka != kb:
            keep = keeps.get(k)
            if keep is None:
                rest = full & ~k
                keep = keeps[k] = rest * _rows(n, rest)
            ra &= keep
            rb &= keep
        rel = ra | rb
        # a guard bit set on both sides marks a row where neither residual
        # block contains the other
        if not ((ra & ~rb) + ones) & ((rb & ~ra) + ones) & guards:
            return ((k, rel),)
        pieces = decomposed.get((k, rel))
        if pieces is None:
            adj = [rel >> v * (n + 1) & full for v in range(n)]
            pieces = tuple(
                _pack(n, rep) for rep in _admissible_primes(n, k, adj, full & ~k)
            )
            decomposed[k, rel] = pieces
        return pieces

    def build_node(rep: PackedPrime, node_id: str) -> IdealNode:
        cp = _from_masks(n, _unpack(n, rep))
        return IdealNode(id=node_id, ideal=cp, dim=cp.dim, height=cp.height)

    return join_closure(
        [_pack(n, _to_masks(p)) for p in minimal_primes_graph(graph)],
        primes_of_sum,
        node_builder=build_node,
        ring=ring,
        provenance="binomial-edge",
        max_elements=max_elements,
    )
