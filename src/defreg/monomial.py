"""Squarefree monomial ideals and their poset of component sums.

A squarefree generator is kept as its variable mask: bit k stands for
ring.var_names[k].  The minimal primes of such an ideal are exactly the
inclusion-minimal vertex covers of the generator hypergraph, each read as
the face prime on the covering variables, and they come as masks too.
Face primes are closed under sums (the sum is the prime on the union of
the variables), so the closure needs no decomposition step and the poset
of sums embeds in the boolean lattice on the variables.

Inside the closure a face prime is the same mask: the sum is a | b, and a
contains b exactly when a | b == a.  A turn sums the new mask b with every
earlier mask at once.  The order is read once, after the last turn, off
per-variable columns: column v is the mask of the positions whose prime
holds variable v, one strided slice of the primes' binary digits joined
into one string.  The primes at or above b are those contained in b, and
for b inside c they are the primes inside c that miss c & ~b: a prime
inside b is inside c and misses c & ~b, and a prime inside c that misses
c & ~b is inside b.  So the up-masks are set largest prime first: up[b]
is up[b | v] minus column v, one operation on ints with one bit per
element, for the first variable v outside b whose b | v is an element.
Failing that, as for the union of all the primes, c is every variable,
whose up-mask is everyone, and up[b] costs at most nvars operations.

Only the turn of a minimal prime hands over sums; every other turn hands
over none, and join_closure's contract allows that, as | is a semilattice
join.  join_closure takes the next minimal prime g only once every
earlier turn has run; say the pool C is then closed under |, as the
empty pool is.  g's turn reports g | c for every c in C, and C' = C +
{g} + (g | C) is closed again, since (g | a) | b = g | (a | b) with a |
b in C.  Every later turn before the next minimal prime belongs to some
x in C', and each of its sums x | e lies in C' already.  So the same
elements join the pool in the same order, and the labels, the up-masks
and the point where ClosureBudgetExceeded is raised do not move.  This
needs no antichain: a minimal prime that first arrives as a sum still
reports all of its sums on its turn.  On 6 disjoint edges the closure is
handed 18,970 pieces for 729 elements, where every pair sum would be
265,356.  The graph closure's sums decompose, so a graph turn cannot
leave out every sum this way; only the turn of a prime sum first met on a
minimal prime's turn reports nothing there, by the proof in the
binomial_edge docstring.

Given a face budget, the closure tests it on label prefixes, as the
graph closure does.  The turns run in label order, so the masks of the
turns so far are a prefix of the labels, and the order among them is
final: whether one mask contains another does not depend on what joins
the pool later.  So every chain of an open interval (k, top) of the
prefix is a chain of (k, top) in the whole poset, and a prefix interval
over the budget proves one in the whole poset.  order() reads a prefix's
up-masks as it reads the whole poset's: up[b] = up[b | v] & ~column v
holds on any set of masks that holds b | v, and the fallback reads the
prefix's own columns.

Only the element budget could then still trip first, and often it
cannot.  Join two generators when they share a variable, and let V_i be
the variables of the i-th component.  A minimal prime is a minimal
cover, so it holds only variables of the generators and meets every
V_i; a sum is a union, so every element of the closure meets every V_i
and is the union of its restrictions to them.  The closure thus has at
most

    U(I) = product over i of (2^|V_i| - 1)

elements, exactly that many on disjoint edges: 729 for 6 and 6,561 for
8.  When U(I) <= max_elements, no ClosureBudgetExceeded can be raised,
and the turn on which the prefix reaches _FIRST_PREFIX elements, then 4
times as many each time, builds the prefix's nodes and up-masks,
constructs its poset, which checks its order, and counts its faces as
homology counts them.  The first prefix that passes the budget raises
FaceBudgetExceeded on its turn, with the bytes the whole build would
give.  A prefix longer than U(I) / 2 is more than half of the whole
poset, which homology sizes anyway, so it is not counted: on 8 disjoint
edges under a raised face budget, counting the 4,096-element prefix too
nearly doubles the build.  With each counted prefix 4 times as
long as the one before, a run that passes the budget pays for prefixes
whose lengths sum to at most 2/3 of U(I).  Where U(I) > max_elements, as
when --max-poset is below it, the build counts no prefix and only
homology counts faces.

A node of the finished poset keeps its mask as its ideal, with height its
popcount and dim nvars minus that.  Generators and minimal primes keep the
label order (height, variable names sorted as strings), so "x10" comes
before "x2".
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import reduce
from itertools import islice
from math import prod
from operator import or_

from ._record import Record
from .posets import (
    DEFAULT_MAX_ELEMENTS,
    _FIRST_PREFIX,
    AnalysisPoset,
    IdealNode,
    RingContext,
    _bits,
    join_closure,
)


class ZeroIdeal(ValueError):
    """The zero ideal has no primary decomposition to analyze."""


class SquarefreeIdeal(Record):
    """A nonzero squarefree monomial ideal with a minimal generating set.

    generators holds the variable masks of the minimal generators, in the
    label order.
    """

    __slots__ = ("ring", "generators")

    def __init__(self, ring: RingContext, generators: tuple[int, ...]) -> None:
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "generators", generators)

    @classmethod
    def create(
        cls, ring: RingContext, generators: Iterable[Iterable[str]]
    ) -> "SquarefreeIdeal":
        position = {v: k for k, v in enumerate(ring.var_names)}
        gens: list[int] = []
        for g in generators:
            gset = frozenset(g)
            if not gset:
                raise ValueError("a generator must mention at least one variable")
            extra = gset.difference(position)
            if extra:
                raise ValueError(f"unknown variables {sorted(extra)}")
            gens.append(sum(1 << position[v] for v in gset))
        if not gens:
            raise ZeroIdeal("no generators given")
        return cls(ring, tuple(_inclusion_minimal(ring.var_names, gens)))


def _inclusion_minimal(names: Sequence[str], masks: Iterable[int]) -> list[int]:
    """The inclusion-minimal masks, in the label order."""
    uniq = sorted(
        set(masks), key=lambda m: (m.bit_count(), sorted(names[k] for k in _bits(m)))
    )
    keep: list[int] = []
    for m in uniq:
        if not any(k & m == k for k in keep):
            keep.append(m)
    return keep


def minimal_primes(ideal: SquarefreeIdeal) -> list[int]:
    """Minimal primes as variable masks, in the label order.

    They are the inclusion-minimal covers of the generators.  Standard
    cover expansion: carry the current minimal covers and branch every
    cover that misses the next generator over that generator's variables,
    pruning non-minimal results after each step.
    """
    if not ideal.generators:
        raise ZeroIdeal("the zero ideal has no minimal primes here")
    covers = [0]
    for gen in ideal.generators:
        grown: list[int] = []
        for c in covers:
            if c & gen:
                grown.append(c)
            else:
                grown.extend(c | 1 << k for k in _bits(gen))
        covers = _inclusion_minimal(ideal.ring.var_names, grown)
    return covers


def _closure_bound(generators: Iterable[int]) -> int:
    """U(I), the product of 2^|V| - 1 over the generators' components.

    V is the variable mask of a component, two generators lying in one
    when they share a variable; the closure has at most U(I) elements
    (lemma in the module docstring).
    """
    parts: list[int] = []
    for g in generators:
        joined = [p for p in parts if p & g]
        parts = [p for p in parts if not p & g]
        parts.append(reduce(or_, joined, g))
    return prod((1 << p.bit_count()) - 1 for p in parts)


def build_monomial_poset(
    ideal: SquarefreeIdeal,
    *,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
    max_faces: int | None = None,
) -> AnalysisPoset:
    """Poset of all sums of the minimal primes, under reverse inclusion.

    ClosureBudgetExceeded is raised once the pool passes max_elements.
    Given a max_faces, when U(I), the product of 2^|V| - 1 over the
    variable masks V of the generators' components, is at most
    max_elements, no element budget can trip (lemma in the module
    docstring): the label prefix is then counted at _FIRST_PREFIX
    elements and at 4 times as many each time after, while it is at most
    U(I) / 2, and FaceBudgetExceeded is raised on the turn whose prefix
    has an interval of more than max_faces faces, as homology would
    raise on the whole poset.  Otherwise, or without a max_faces, only
    homology counts faces.
    """
    ring = ideal.ring
    names = ring.var_names

    def build_node(mask: int, node_id: str) -> IdealNode:
        height = mask.bit_count()
        return IdealNode(id=node_id, ideal=mask, dim=len(names) - height, height=height)

    primes = minimal_primes(ideal)
    minimal = set(primes)
    earlier: list[int] = []
    # the next label prefix whose faces are counted, if it is at most
    # limit: half of U(I) where U(I) certifies the element budget, else 0
    prefix, limit = _FIRST_PREFIX, 0
    if max_faces is not None:
        bound = _closure_bound(ideal.generators)
        if bound <= max_elements:
            limit = bound // 2

    def sums_with(b: int) -> Iterable[int]:
        nonlocal prefix
        # only a minimal prime's turn has sums outside the pool; they
        # come lazily, off the masks before b: appends leave those as
        # they are, so this is a snapshot that copies nothing
        pieces = map(b.__or__, islice(earlier, len(earlier))) if b in minimal else ()
        earlier.append(b)
        if len(earlier) == prefix <= limit:
            # the turns so far are a label prefix, whose order is final
            prefix *= 4
            nodes = [build_node(m, f"p_{k + 1}") for k, m in enumerate(earlier)]
            AnalysisPoset(nodes, order(), ring=ring)._check_faces(
                range(len(earlier)), max_faces
            )
        return pieces

    def order() -> list[int]:
        # the turns ran in label order, so earlier holds the primes in it
        n = len(names)
        # column v: the positions whose prime holds variable v, one strided
        # slice of the primes' digits, last prime first
        spec = f"0{n}b"
        digits = "".join([format(b, spec) for b in reversed(earlier)])
        columns = [int(digits[n - 1 - v::n], 2) for v in range(n)]
        everyone, full = (1 << len(earlier)) - 1, (1 << n) - 1
        index = {b: k for k, b in enumerate(earlier)}
        up = [0] * len(earlier)
        # largest prime first, so up[b | v] is set before up[b]
        for k in sorted(range(len(earlier)), key=lambda k: -earlier[k].bit_count()):
            b = earlier[k]
            rest = full & ~b
            while rest:
                bit = rest & -rest
                c = index.get(b | bit)
                if c is not None:
                    up[k] = up[c] & ~columns[bit.bit_length() - 1]
                    break
                rest ^= bit
            else:
                # no b | v is an element: c is every variable, up[c] everyone
                up[k] = everyone & ~reduce(or_, (columns[v] for v in _bits(full & ~b)), 0)
        return up

    nodes = join_closure(
        primes, sums_with, node_builder=build_node, max_elements=max_elements
    )
    return AnalysisPoset(nodes, order(), ring=ring, provenance="monomial")
