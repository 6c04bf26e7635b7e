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
when every vertex of S raises the component count of what is left, that
is, when each is next to two or more of the components of G - S.

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

The cut set walk need only visit the non-simplicial vertices, those
whose closed neighbourhood, their row, is not a clique; it reads them
off its rows, for the graph and for an overlay alike.

A closure turn sums the new prime with every earlier one at once.  The
earlier primes sit in slots of one big int, slot i at bit 8 * i * s for
s = ceil(n(n+1) / 8) + 1 bytes:

    | R: n rows of n + 1 bits | padding to a byte | flag byte |

with a second big int holding, in the same slots, the rows and columns
of each prime's killed vertices.  Each prime is appended as a slot on
its own turn, once its sums with the earlier slots are taken, and slots
are never rebuilt.  The constants the tests below need in every slot
grow by one slot along with them: the slot unit (a 1 at the bottom of
each slot), the row guards, M, and 2^w - 1.  The new prime is copied
into every slot by one multiplication with the slot unit, and the
masking, the nesting test and A | B then run on all slots together.
Three flags per slot come from carries: adding 2^w - 1, w the bit of the
flag byte, to a slot carries into w exactly when the slot is nonzero.
Bit 0 of the flag byte marks a failed nesting test, bit 1 a sum that
differs from the earlier prime, bit 2 one that differs from the new
prime.  One to_bytes then yields every sum, and a strided slice of it
the flag bytes.  The kernel assembles the up-masks from the flags: bit 2
clear puts the earlier prime above the new one, which starts the new
prime's mask, and bit 1 clear puts it below, which sets the new prime's
bit in the earlier prime's mask; build_Q_poset hands the masks to the
constructor once the closure is done.  The below marks are not set pair
by pair.  A turn keeps its flag bytes translated to digits, "1" for a
slot below it, and every _FOLD turns, and once more when the order is
asked for, the kept rows, padded to the last one's length, are joined
into one byte matrix.  Column i, one strided slice, is slot i's digits
over those turns, and read reversed as a binary number and shifted to
the first of the turns it is ORed into slot i's mask; the OR of the
rows, read as ints, names the columns that hold a "1", and only those
are read.  The matrix takes at most _FOLD bytes per element.
join_closure needs the primes of a sum only once, so a turn reports only
the sum relations no turn met: the relations are unpacked and filtered
against the set of met relations (every prime handed in, every sum) in
C, and Python loops over the new ones alone, decomposing the non-prime
among them.  Each non-prime relation is thus decomposed at most once.

Most turns are quiet: they read only the flag bits 1 and 2, into the
up-masks, and report nothing, with no sum unpacked, no nesting test and
no decomposition.  The primes of a sum are the minimal primes of the sum
ideal, and as the variety of g + I is the union of those of the g + q_i,
for q_i the minimal primes of I, the primes of g + I lie among those of
the g + q_i.  join_closure hands in the minimal primes of the graph, an
antichain, and takes the next one, g, only once every earlier turn has
run; say the pool C is then closed, every prime of a sum of two of its
elements in it, as the empty pool is.  Every element of C contains an
earlier minimal prime, so g is not in C: g joins the pool, its turn sums
it with exactly C, and every element its block adds contains g.
Let x = g + c, c in C, be a prime sum that no turn met before g's turn;
it joins the pool, and its turn sums it with each earlier e:

- e in C: x + e = g + (c + e), and the primes q_i of c + e lie in C, so
  the primes of x + e are among the primes of the g + q_i, which g's
  turn met;
- e = g: x + e = x;
- e = g + c', another prime sum first met on g's turn: x + e = g + (c +
  c'), as in the first case;
- any other e of the block: e contains g, so x + e = c + e.  The block's
  only quiet elements are the prime sums of the case above, so e's turn,
  which summed e with every element of C, met c + e.

Every prime of x's sums is thus in the pool when x's turn runs, and
join_closure lets the turn leave them all out; by induction the pool is
closed again before the next minimal prime.  The same elements join in
the same order, so the labels and the up-masks do not move.  A quiet
turn adds nothing to the met relations, so a later turn that meets one
of its sums decomposes it then, still once at most.  Nor does a skipped
decomposition move the point where ClosureBudgetExceeded is raised: its
primes are all in the pool, which holds at most max_elements of them,
and a cut set walk raises only past max_elements.  On the 9-vertex path,
493 of the 577 turns are quiet and 263 sum relations are decomposed, as
many as when every turn reports.

Every prime the module hands out is in this packed form, the only one
it has: the cut set walk packs the primes it finds, so the minimal
primes of the graph and the pieces of a decomposition go into the
closure as they come.  A walk meets a prime as its kill mask and its
components, which come by least vertex, so the pair is canonical; the
closure's decompositions share one dict from that pair to the packed
relation, and each piece is packed once however many sums it comes
from.  Every piece joins the pool, so the dict holds at most one entry
per element.  Nor does a walk label its primes in full: their kill masks
are the vertices off the diagonal of its rows together with distinct
sets T of walked vertices, which lie on the diagonal, so the label order
never reaches their blocks, and sorting by height and then by the killed
vertices gives it.

Each relation is read once.  A turn unpacks its prime into the kill
mask, which gives the killed rows and columns, and the blocks, checks
that they partition the unkilled vertices, and keeps the dim and height
they give; a node of the finished poset keeps the packed relation as
its ideal, with the dim and height of its turn.  A decomposition splits
its sum into rows, and the walk reads the killed vertices off their
diagonal and the vertices it walks off the rows themselves.  Eight rows
of n + 1 bits fill n + 1 whole bytes, so a relation is packed eight
rows at a time, and read by shifting its rows off one int per group of
eight rows or more, up to 4096 bits (_group_rows): one int for a graph
under 64 vertices, and O(n^2) bits in all for a wide one.  The label order, which fixes the element ids,
reads the kill mask and the block masks as sorted vertex tuples.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import compress, filterfalse
from operator import itemgetter
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


# the killed vertices as a sorted tuple compare as the digits of 2 * kill + 1
# from bit 0, 0 and 1 swapped: at the least vertex in one mask only, that
# mask reads "0" against "1" and comes first, unless the other has no vertex
# beyond it, and so a digit string that is a prefix; the leading digit makes
# the empty mask "0", a prefix of every other
_SWAP = str.maketrans("01", "10")


def _non_simplicial(rows: Sequence[int]) -> int:
    """The vertices whose row, their closed neighbourhood, is not a clique.

    v is one when the row of some u in v's row lacks a vertex of v's:
    two neighbours of v are then not adjacent.  A killed vertex, whose
    row is empty, is not one.
    """
    walk = 0
    for v, row in enumerate(rows):
        rest = row
        while rest:
            low = rest & -rest
            if row & ~rows[low.bit_length() - 1]:
                walk |= 1 << v
                break
            rest ^= low
    return walk


def _admissible_primes(
    rows: Sequence[int],
    max_elements: int | None = None,
    packed: dict | None = None,
) -> list[bytes]:
    """All primes from cut sets T of the graph whose adjacency is rows.

    The graph has n = len(rows) vertices.  rows[v] is v's closed
    neighbourhood among the present vertices, those on the diagonal; a
    vertex off it has an empty row and is killed in every prime found.
    A prime comes as its packed relation.  T qualifies when putting back
    any single vertex of T leaves strictly fewer components than
    removing all of T; the empty set always qualifies.  Putting back t joins the components of present minus T
    that t is next to, and t alone, into one, so c(T - t) = c(T) + 1 -
    (the components t is next to), and T qualifies exactly when every
    vertex of T is next to two or more of them.  That is read off T's
    own components: each ORs in the rows it reads as it grows, the
    vertices next to it, and a vertex next to two lies in two of these
    ORs.  Only the non-simplicial vertices (_non_simplicial) are
    walked: a vertex with a clique or empty neighbourhood is next to at
    most one component.  The primes come sorted by height, then by the
    label order, which for distinct kill masks is the order of the
    killed vertices (_SWAP reads it off their digits); a walk that finds
    one prime has nothing to sort.

    Each component is grown from its least vertex a frontier at a time,
    stepping off the lowest bit of an int inline, with no generator per
    subset.  packed maps (kill, components by least vertex), a prime's
    canonical form here, to its packed relation; a caller that hands the
    same dict to every walk packs each prime once.

    Inside the closure every prime found here becomes a poset element, so
    given a max_elements the walk stops with the closure's
    ClosureBudgetExceeded once more than that are found.  Subsets are
    walked smallest mask first, which meets the small cut sets, and so
    the budget, early.
    """
    if packed is None:
        packed = {}
    n = len(rows)
    walk = _non_simplicial(rows)
    present = sum(row & 1 << v for v, row in enumerate(rows))  # the diagonal
    base_kill = (1 << n) - 1 & ~present
    found = []
    t = 0
    while True:
        # the components of present minus T, each grown from its least
        # vertex; near gathers the rows a component reads, and twice the
        # vertices next to two components so far
        components = []
        once = twice = 0
        rest = present & ~t
        while rest:
            comp = frontier = rest & -rest
            near = 0
            while frontier:
                while frontier:
                    low = frontier & -frontier
                    near |= rows[low.bit_length() - 1]
                    frontier ^= low
                frontier = near & rest & ~comp
                comp |= frontier
            components.append(comp)
            rest ^= comp
            twice |= once & near
            once |= near
        if twice & t == t:
            if max_elements is not None and len(found) >= max_elements:
                raise ClosureBudgetExceeded(max_elements)
            found.append((base_kill | t, tuple(components)))
        if t == walk:
            break
        t = (t - walk) & walk
    if len(found) > 1:
        found.sort(key=lambda rep: (
            n + rep[0].bit_count() - len(rep[1]),
            bin(2 * rep[0] + 1)[:1:-1].translate(_SWAP),
        ))
    for rep in found:
        if rep not in packed:
            packed[rep] = _pack(n, rep[1])
    return [packed[rep] for rep in found]


def minimal_primes_graph(
    graph: Graph, *, max_elements: int | None = None
) -> list[bytes]:
    """Minimal primes of the binomial edge ideal, as packed relations.

    They come by height, then in the label order.  A relation on n =
    graph.n vertices takes n rows of n + 1 bits, packed little-endian: row
    v sits at bit v*(n+1), bit v*(n+1) + u is set when u and v are
    unkilled and share a block, and a killed vertex's row is empty.  There
    is no budget unless max_elements is given; then ClosureBudgetExceeded
    is raised once more than that are found.
    """
    n = graph.n
    # closed neighbourhoods: every vertex is present
    adj = [1 << v for v in range(n)]
    for u, v in graph.edges:
        adj[u - 1] |= 1 << v - 1
        adj[v - 1] |= 1 << u - 1
    return _admissible_primes(adj, max_elements)


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


def _group_rows(w: int) -> int:
    """The rows of w bits a packed relation's reader shifts off one int.

    8k rows fill kw whole bytes: k is the most that keeps the int within
    4096 bits, or 1.  So a graph on under 64 vertices is read off one
    int, and a wide relation is not shifted whole once per row, which is
    O(n^3) bits.
    """
    return 8 * max(1, 512 // w)


def _split(n: int, rep: bytes) -> list[int]:
    """The n rows of a packed relation, one int per _group_rows rows."""
    w = n + 1
    full = (1 << n) - 1
    size = _group_rows(w)
    rows = []
    for first in range(0, n, size):
        group = int.from_bytes(rep[first * w >> 3:(first + size) * w >> 3], "little")
        for _ in range(min(size, n - first)):
            rows.append(group & full)
            group >>= w
    return rows


def _pack(n: int, blocks: Iterable[int]) -> bytes:
    """The closure's form of a prime: the packed relation of its blocks.

    The killed vertices are those in no block, and their rows stay empty.
    """
    rows = [0] * n
    for b in blocks:
        for v in _bits(b):
            rows[v] = b
    return _join(n, rows)


def _unpack(n: int, rep: bytes) -> tuple[int, list[int]]:
    """(kill mask, block masks by least vertex) of a packed relation.

    One pass over the rows, shifted off one int per _group_rows rows as
    in _split, with no list of rows: a row without its diagonal bit is a
    killed vertex, and a row whose lowest bit is its own vertex starts a
    block.  The blocks are not checked to partition the unkilled
    vertices.
    """
    w = n + 1
    full = (1 << n) - 1
    size = _group_rows(w)
    kill, blocks = 0, []
    bit, end = 1, 1 << n
    for first in range(0, n, size):
        group = int.from_bytes(rep[first * w >> 3:(first + size) * w >> 3], "little")
        stop = min(bit << size, end)
        while bit != stop:
            row = group & full
            if not row & bit:
                kill |= bit
            elif row & -row == bit:
                blocks.append(row)
            group >>= w
            bit <<= 1
    return kill, blocks


# bytes.translate tables for the flag bytes, whose bit k reads (b >> k) & 1:
# a 0 or 1 byte per non-prime slot (bit 0 set), and the digit "1" per sum
# equal to the earlier prime (bit 1 clear) or to the new prime (bit 2 clear);
# and for digits, a 1 byte per "1"
_NONPRIME = b"\0\1" * 128
_BELOW = b"1100" * 64
_ABOVE = b"11110000" * 32
_DIGIT = bytes(49) + b"\1" + bytes(206)

# turns whose below digits are kept, then folded into the up-masks at once
_FOLD = 64


def _clique_sums(
    n: int, generators: Iterable[bytes], max_elements: int | None = None
):
    """(sums_with, node_builder, order) for clique primes on n vertices.

    The slot layout is in the module docstring: each call of sums_with
    unpacks its prime, raising ValueError unless the blocks partition the
    unkilled vertices, and keeps the dim and height they give, which
    node_builder only looks up.  It then sums the prime with the primes
    in the slots, reads the order marks into the up-masks, and appends
    the prime as the next slot.  Each call reports only the sums no call
    met before, so each non-prime relation is decomposed at most once,
    by a cut set walk over the rows of its sum; decompositions raise
    ClosureBudgetExceeded past max_elements pieces.  generators are the
    minimal primes join_closure is given, an antichain: a prime sum first
    met on a generator's turn takes a quiet turn, which reads only the
    order marks of its sums and reports nothing (the proof is in the
    module docstring).  With no generators, every turn reports.  The
    killed rows and columns of a kill mask are built once per closure,
    on the first turn whose prime kills exactly those vertices.  order()
    returns the up-masks the turns built, in the order of the turns,
    which join_closure runs in label order.
    """
    full = (1 << n) - 1
    w = n + 1  # bits per row
    width = _rep_bytes(n)
    step = width + 1  # slot bytes: the relation and the flag byte
    shift = 8 * step
    record = f"{width}sx"  # a slot: the relation, then the flag byte
    starts = int.from_bytes(_join(n, [1] * n), "little")  # the first bit of every row
    # in one slot: the guard bit of every row, 2^n - 1 in every row, and
    # 2^w - 1, which carries into the flag bit w when the slot is nonzero
    slot_guards = starts << n
    slot_ones = slot_guards - starts
    slot_top = 1 << 8 * width
    slot_low = slot_top - 1
    # the same values in every slot, grown one slot per call
    unit = guards = ones = top = low = 0
    rels = kills = 0  # the relations and the killed rows and columns
    slots = 0
    met: set[bytes] = set()  # every prime handed in and every sum met
    generators = set(generators)
    quiet: set[bytes] = set()  # the prime sums first met on a generator's turn
    packed: dict = {}  # the decompositions' pieces, packed
    crosses: dict[int, int] = {}  # kill mask: its killed rows and columns
    shape: dict[bytes, tuple[int, int]] = {}  # each turn's (dim, height)
    up: list[int] = []  # up[i]: the slots at or above slot i, as far as known
    below: list[bytes] = []  # the below digits of the turns not yet folded

    def fold() -> None:
        # row r is turn x0 + r's digits, one per earlier slot; padded to
        # the last row's length, the rows are a byte matrix whose column i
        # is slot i's digits over the turns, read by one strided slice
        x0 = len(up) - len(below)
        cols = len(below[-1])
        matrix = b"".join(row.ljust(cols, b"0") for row in below)
        seen = 0
        for row in below:
            seen |= int.from_bytes(row, "little")
        hit = seen.to_bytes(cols, "little").translate(_DIGIT)
        for i in compress(range(cols), hit):
            up[i] |= int(matrix[i::cols][::-1], 2) << x0
        below.clear()

    def sums_with(rep: bytes) -> list[bytes]:
        nonlocal unit, guards, ones, top, low, rels, kills, slots
        kill, blocks = _unpack(n, rep)
        _check_partition(n, kill, blocks)
        # dim n - k + b and height n + k - b, for k killed vertices and b blocks
        k = kill.bit_count() - len(blocks)
        shape[rep] = n - k, n + k
        met.add(rep)
        x = int.from_bytes(rep, "little")
        cross = crosses.get(kill)
        if cross is None:
            # the rows and the columns of the killed vertices
            cross = crosses[kill] = kill * starts | sum(
                full << v * w for v in _bits(kill)
            )
        # the sums of rep, as relation x killing cross, with every slot
        xr = x * unit
        xk = cross * unit
        a = rels ^ rels & xk  # each relation without the new prime's kills
        b = xr ^ xr & kills  # the new relation without each slot's kills
        rel = a | b
        marks = ((rel ^ rels) + low & top) << 1 | ((rel ^ xr) + low & top) << 2
        loud = rep not in quiet
        if loud:
            ab = a & b
            # a guard bit set on both sides marks a row where neither
            # residual block contains the other: the sum is not prime
            bad = ((a ^ ab) + ones) & ((b ^ ab) + ones) & guards
            marks |= rel | (bad + low) & top
        buf = marks.to_bytes(slots * step, "little")
        flags = buf[width::step]
        # the leading 0 reads the first turn's empty flags as no slot
        up.append(int(b"0" + flags.translate(_ABOVE)[::-1], 2))
        below.append(flags.translate(_BELOW))
        if len(below) == _FOLD:
            fold()
        at = slots * shift  # the prime takes the next slot
        rels |= x << at
        kills |= cross << at
        unit |= 1 << at
        guards |= slot_guards << at
        ones |= slot_ones << at
        top |= slot_top << at
        low |= slot_low << at
        slots += 1
        if not loud:
            return []
        keys = list(map(itemgetter(0), iter_unpack(record, buf)))
        fresh = dict.fromkeys(filterfalse(met.__contains__, keys))
        met.update(fresh)
        nonprime = fresh.keys() & compress(keys, flags.translate(_NONPRIME))
        if rep in generators:
            quiet.update(fresh.keys() - nonprime)
        pieces: list[bytes] = []
        for key in fresh:
            if key in nonprime:
                pieces += _admissible_primes(_split(n, key), max_elements, packed)
            else:
                pieces.append(key)
        return pieces

    def node_builder(rep: bytes, node_id: str) -> IdealNode:
        dim, height = shape[rep]
        return IdealNode(id=node_id, ideal=rep, dim=dim, height=height)

    def order() -> list[int]:
        # up is the turns' once the last digits are folded
        if below:
            fold()
        return up

    return sums_with, node_builder, order


def build_Q_poset(
    graph: Graph, *, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> AnalysisPoset:
    """Poset of iterated sums of the minimal primes, under reverse inclusion.

    Every accumulated prime is summed with every other; non-prime sums are
    decomposed and their minimal primes join the pool, so the result is
    closed under the whole sum-then-decompose loop.  A decomposition
    depends only on the relation of the sum, so it is computed at most once
    per such relation.
    """
    n = graph.n
    primes = minimal_primes_graph(graph, max_elements=max_elements)
    sums_with, node_builder, order = _clique_sums(n, primes, max_elements)
    nodes = join_closure(
        primes, sums_with, node_builder=node_builder, max_elements=max_elements
    )
    return AnalysisPoset(
        nodes, order(), ring=ring_for(graph), provenance="binomial-edge"
    )
