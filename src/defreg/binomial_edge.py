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

Inside the sum closure a prime is its same-block relation R, packed into
bytes, with bit v - 1 of a mask standing for vertex v.  Row v takes n + 1
bits, n for the vertices and a guard bit on top, and bit v*(n+1) + u is
set when u and v are unkilled and share a block; each unkilled vertex is
related to itself, so the killed vertices are those missing from the
diagonal.  A sum of two primes kills the union k of the kill sets, and
clearing the rows and columns of k in both relations leaves A and B, whose
rows are the residual blocks.  The overlay is prime exactly when, at every
vertex, one residual block contains the other, and its relation is then
A | B: nesting everywhere makes A | B transitive, so its components are
cliques, while at a vertex v with u only in v's block of a and w only in
v's block of b, the path u - v - w has no edge u - w.  Adding 2^n - 1 to
a row carries into its guard bit exactly when the row is nonempty, so
with M that value in every row, all n rows are tested at once: (A & ~B) + M
and (B & ~A) + M must share no guard bit.  A non-prime sum decomposes by
the cut set rule applied to the overlay graph, whose adjacency is A | B
itself, computed once per A | B.

A closure turn sums the new prime with every earlier one at once.  The
earlier primes sit in slots of one big int, slot i at bit 8 * i * s for
s = ceil(n(n+1) / 8) + 1 bytes:

    | R: n rows of n + 1 bits | padding to a byte | flag byte |

with a second big int holding, in the same slots, the rows and columns
of each prime's killed vertices.  Each prime is appended as a slot at
the end of its own turn, and slots are never rebuilt.  The new prime is
copied into every slot by one multiplication with the slot unit (a 1 at
the bottom of each slot), and the masking, the nesting test and A | B
then run on all slots together.  Three flags per slot come from carries:
adding 2^w - 1, w the bit of the flag byte, to a slot carries into w
exactly when the slot is nonzero.  Bit 0 of the flag byte marks a failed
nesting test, bit 1 a sum that differs from the earlier prime, bit 2 one
that differs from the new prime.  One to_bytes then yields every sum,
and a strided slice of it the flag bytes; only the non-prime slots go
through Python, to be decomposed.

Outside the slots a prime is masks: the cut set walk yields plain
(kill mask, block masks) tuples, which are packed once per generator and
per piece.  A node of the finished poset keeps its packed relation as its
ideal, with dim and height read off the killed vertices and the blocks
of the relation's rows.  CliquePrime holds the same masks in its kill
and blocks fields; it is built for the minimal primes, and from a node's
relation only by CliquePrime.from_relation.  Eight rows of n + 1 bits
fill n + 1 whole bytes, so a relation is packed and unpacked eight rows at
a time, O(n^2) bits in all.  The label order, which fixes the element ids,
reads the masks as sorted vertex tuples.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import partial
from itertools import chain, compress
from struct import iter_unpack

from ._record import Record
from .posets import (
    DEFAULT_MAX_ELEMENTS,
    AnalysisPoset,
    ClosureBudgetExceeded,
    IdealNode,
    RingContext,
    _bits,
    join_closure,
)


class Graph(Record):
    """A finite simple graph on vertices 1..n."""

    __slots__ = ("n", "edges")

    def __init__(self, n: int, edges: frozenset[tuple[int, int]]) -> None:
        if n < 1:
            raise ValueError("a graph needs at least one vertex")
        for u, v in edges:
            if not (1 <= u < v <= n):
                raise ValueError(f"edge ({u}, {v}) out of range or misordered")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)

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


def _label_key(kill: int, blocks: Iterable[int]) -> tuple:
    """The label order of clique primes, as sorted 1-based vertex tuples.

    The killed vertices come first, then the blocks, which compare by
    their vertex tuples, not by mask value: {1, 5} comes before {2}.
    """
    return (
        tuple(_bits(kill << 1)),
        tuple(sorted(tuple(_bits(b << 1)) for b in blocks)),
    )


class CliquePrime(Record):
    """A prime: killed vertices plus a partition of the rest into cliques.

    kill and every block are vertex masks, bit v - 1 standing for vertex v,
    and the blocks are kept in increasing mask order.
    """

    __slots__ = ("n", "kill", "blocks")

    def __init__(self, n: int, kill: int, blocks: Iterable[int]) -> None:
        blocks = tuple(sorted(blocks))
        _check_partition(n, kill, blocks)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "kill", kill)
        object.__setattr__(self, "blocks", blocks)
        assert self.dim + self.height == 2 * self.n

    @property
    def height(self) -> int:
        return 2 * self.kill.bit_count() + sum(b.bit_count() - 1 for b in self.blocks)

    @property
    def dim(self) -> int:
        return self.n - self.kill.bit_count() + len(self.blocks)

    def key(self) -> tuple:
        return _label_key(self.kill, self.blocks)

    @classmethod
    def from_relation(cls, n: int, rep: bytes) -> "CliquePrime":
        """The prime whose packed same-block relation on n vertices is rep.

        This is the form build_Q_poset keeps as each node's ideal.  A rep of
        the wrong length, one whose blocks do not partition the unkilled
        vertices, or one with any other bit than those its blocks set
        raises ValueError.
        """
        if len(rep) != _rep_bytes(n):
            raise ValueError(
                f"a relation on {n} vertices takes {_rep_bytes(n)} bytes, not {len(rep)}"
            )
        prime = cls(n, *_unpack(n, rep))
        if _pack(n, (prime.kill, prime.blocks)) != rep:
            raise ValueError("rep is not the packed relation of its blocks")
        return prime


def _check_partition(n: int, kill: int, blocks: Iterable[int]) -> None:
    """Raise ValueError unless the blocks partition the vertices kill leaves."""
    seen = kill
    for b in blocks:
        if not b:
            raise ValueError("empty block")
        if b & seen:
            raise ValueError("a vertex is in two blocks, or killed and in a block")
        seen |= b
    full = (1 << n) - 1
    if seen & ~full:
        raise ValueError(f"a killed or block vertex lies outside 1..{n}")
    if seen != full:
        raise ValueError("blocks must partition the unkilled vertices")


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
    n: int,
    base_kill: int,
    adj: Sequence[int],
    present: int,
    max_elements: int | None = None,
) -> list[tuple[int, tuple[int, ...]]]:
    """All primes from cut sets T of the graph (adj, present), over base_kill.

    A prime comes as (kill mask, block masks in increasing order).
    T qualifies when removing any single vertex of T gives strictly fewer
    components than removing all of T; the empty set always qualifies.
    Only vertices whose neighbourhood is not a clique are walked: putting
    back a vertex with a clique or empty neighbourhood joins at most one
    component, so the count never drops.  The primes come sorted by
    height, then by the label order.

    Inside the closure every prime found here becomes a poset element, so
    given a max_elements the walk stops with the closure's
    ClosureBudgetExceeded once more than that are found.  Subsets are
    walked smallest mask first, which meets the small cut sets, and so the
    budget, early.
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
    t = 0
    while True:
        rest = present & ~t
        base = len(components(rest))
        if all(len(components(rest | (1 << i))) < base for i in _bits(t)):
            if max_elements is not None and len(found) >= max_elements:
                raise ClosureBudgetExceeded(max_elements)
            found.append((base_kill | t, tuple(sorted(components(rest)))))
        if t == walk:
            break
        t = (t - walk) & walk
    found.sort(
        key=lambda rep: (n + rep[0].bit_count() - len(rep[1]), _label_key(*rep))
    )
    return found


def minimal_primes_graph(
    graph: Graph, *, max_elements: int | None = None
) -> list[CliquePrime]:
    """Minimal primes of the binomial edge ideal of the graph.

    There is no budget unless max_elements is given; then
    ClosureBudgetExceeded is raised once more than that are found.
    """
    n = graph.n
    adj = _clique_adjacency(n, (1 << u - 1 | 1 << v - 1 for u, v in graph.edges))
    return [
        CliquePrime(n, *rep)
        for rep in _admissible_primes(n, 0, adj, (1 << n) - 1, max_elements)
    ]


def _rep_bytes(n: int) -> int:
    """Bytes of a packed relation: n rows of n + 1 bits."""
    return (n * (n + 1) + 7) // 8


def _join(n: int, rows: Sequence[int]) -> bytes:
    """The packed relation with these n rows, row v at bit v * (n + 1).

    Rows go in eight at a time, into n + 1 whole bytes: one shift or OR of
    the whole relation per row would cost O(n^3) bits.
    """
    w = n + 1
    groups = []
    for at in range(0, n, 8):
        group = 0
        for row in reversed(rows[at:at + 8]):
            group = group << w | row
        groups.append(group.to_bytes(w, "little"))
    return b"".join(groups)[:_rep_bytes(n)]


def _split(n: int, rep: bytes) -> list[int]:
    """The n rows of a packed relation."""
    w = n + 1
    full = (1 << n) - 1
    rows = []
    for at in range(0, len(rep), w):
        group = int.from_bytes(rep[at:at + w], "little")
        for _ in range(8):
            rows.append(group & full)
            group >>= w
    return rows[:n]


def _pack(n: int, rep: tuple[int, tuple[int, ...]]) -> bytes:
    """The closure's form of a prime: its packed relation, little-endian."""
    rows = [0] * n
    for b in rep[1]:
        for v in _bits(b):
            rows[v] = b
    return _join(n, rows)


def _killed(n: int, rep: bytes) -> int:
    """The kill mask: the vertices missing from the relation's diagonal."""
    kill = 0
    for v, at in enumerate(range(0, n * (n + 2), n + 2)):
        if not rep[at >> 3] >> (at & 7) & 1:
            kill |= 1 << v
    return kill


def _unpack(n: int, rep: bytes) -> tuple[int, tuple[int, ...]]:
    """(kill mask, block masks in increasing order) of a packed relation."""
    # a row is a block where its vertex is the block's least
    blocks = [row for v, row in enumerate(_split(n, rep)) if row & -row == 1 << v]
    return _killed(n, rep), tuple(sorted(blocks))


# bytes.translate tables for the flag bytes, whose bit k reads (b >> k) & 1:
# a 0 or 1 byte per non-prime slot (bit 0 set), and the digit "1" per sum
# equal to the earlier prime (bit 1 clear) or to the new prime (bit 2 clear)
_NONPRIME = b"\0\1" * 128
_BELOW = b"1100" * 64
_ABOVE = b"11110000" * 32


def _clique_sums(n: int, max_elements: int | None = None):
    """The join_closure callback for clique primes on n vertices.

    The slot layout is in the module docstring: each call sums its prime
    with the primes in the slots, then appends the prime as the next slot.
    Decompositions raise ClosureBudgetExceeded past max_elements pieces.
    """
    full = (1 << n) - 1
    width = _rep_bytes(n)
    step = width + 1  # slot bytes: the relation and the flag byte
    shift = 8 * step
    record = f"{width}sx"  # a slot: the relation, then the flag byte
    starts = int.from_bytes(_join(n, [1] * n), "little")  # the first bit of every row
    unit = 0  # one bit at the start of every slot
    rels = kills = 0  # the relations and the killed rows and columns
    slots = 0
    decomposed: dict[bytes, tuple[bytes, ...]] = {}

    def decompose(key: bytes) -> tuple[bytes, ...]:
        pieces = decomposed.get(key)
        if pieces is None:
            kill = _killed(n, key)
            adj = _split(n, key)
            pieces = decomposed[key] = tuple(
                _pack(n, rep)
                for rep in _admissible_primes(n, kill, adj, full & ~kill, max_elements)
            )
        return pieces

    def sum_slots(x: int, cross: int) -> tuple[Iterable[bytes], int, int]:
        """The sums of relation x, killing cross, with every slot."""
        rows = starts * unit  # the first bit of every row
        ones = (rows << n) - rows  # 2^n - 1 in every row
        # 2^w - 1 in every slot carries into its flag bit w when the slot
        # is nonzero
        top = unit << 8 * width
        low = top - unit
        xr = x * unit
        xk = cross * unit
        a = rels ^ rels & xk  # each relation without the new prime's kills
        b = xr ^ xr & kills  # the new relation without each slot's kills
        ab = a & b
        # a guard bit set on both sides marks a row where neither residual
        # block contains the other: the sum is not prime
        bad = ((a ^ ab) + ones) & ((b ^ ab) + ones) & rows << n
        rel = a | b
        flags = (
            (bad + low) & top
            | ((rel ^ rels) + low & top) << 1
            | ((rel ^ xr) + low & top) << 2
        )
        buf = (rel | flags).to_bytes(slots * step, "little")
        marks = buf[width::step]
        below = int(marks.translate(_BELOW)[::-1], 2)
        above = int(marks.translate(_ABOVE)[::-1], 2)
        sums = list(iter_unpack(record, buf))  # (relation,) per slot
        for i in compress(range(slots), marks.translate(_NONPRIME)):
            sums[i] = decompose(sums[i][0])
        return chain.from_iterable(sums), below, above

    def sums_with(rep: bytes) -> tuple[Iterable[bytes], int, int]:
        nonlocal unit, rels, kills, slots
        x = int.from_bytes(rep, "little")
        kill = _killed(n, rep)
        killed_rows = [full if kill >> v & 1 else kill for v in range(n)]
        cross = int.from_bytes(_join(n, killed_rows), "little")  # rows and columns
        turn = sum_slots(x, cross) if slots else ((), 0, 0)
        at = slots * shift  # the prime takes the next slot
        rels |= x << at
        kills |= cross << at
        unit |= 1 << at
        slots += 1
        return turn

    return sums_with


def _clique_node(n: int, rep: bytes, node_id: str) -> IdealNode:
    """The poset element of a packed relation on n vertices.

    The node keeps rep as its ideal, and reads dim = n - k + b and
    height = n + k - b off its k killed vertices and b blocks; blocks that
    do not partition the unkilled vertices raise ValueError, as they do in
    CliquePrime.
    """
    kill, blocks = _unpack(n, rep)
    _check_partition(n, kill, blocks)
    k, b = kill.bit_count(), len(blocks)
    return IdealNode(id=node_id, ideal=rep, dim=n - k + b, height=n + k - b)


def build_Q_poset(
    graph: Graph, *, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> AnalysisPoset:
    """Poset of iterated sums of the minimal primes, under reverse inclusion.

    Every accumulated prime is summed with every other; non-prime sums are
    decomposed and their minimal primes join the pool, so the result is
    closed under the whole sum-then-decompose loop.  A decomposition
    depends only on the relation of the sum, so it is computed once per
    such relation.
    """
    n = graph.n
    return join_closure(
        [
            _pack(n, (p.kill, p.blocks))
            for p in minimal_primes_graph(graph, max_elements=max_elements)
        ],
        _clique_sums(n, max_elements),
        node_builder=partial(_clique_node, n),
        ring=ring_for(graph),
        provenance="binomial-edge",
        max_elements=max_elements,
    )
