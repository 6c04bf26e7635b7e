"""Squarefree monomial ideals and their poset of component sums.

A squarefree generator is recorded as its set of variables.  The minimal
primes of such an ideal are exactly the inclusion-minimal vertex covers of
the generator hypergraph, each read as the face prime on the covering
variables.  Face primes are closed under sums (the sum is the prime on the
union of the variables), so the closure needs no decomposition step and the
poset of sums embeds in the boolean lattice on the variables.

Inside the closure a face prime is an int mask over the positions of
ring.var_names: the sum is a | b, and a contains b exactly when a | b == a.
A turn sums the new mask b with every earlier mask at once, and reads the
order off per-variable columns: column v is the mask of the earlier
positions whose prime holds variable v.  The earlier primes containing b
are those in every column of a variable of b, and those contained in b
are those in no column of a variable outside b, so a turn costs at most
nvars operations on ints with one bit per element.  A node of the
finished poset keeps its mask as its ideal, with height its popcount and
dim nvars minus that; FacePrime.from_mask turns a mask into a record on
request.  Generators keep the order (height, variable names sorted as
strings), so "x10" comes before "x2".
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from ._record import Record
from .posets import (
    DEFAULT_MAX_ELEMENTS,
    AnalysisPoset,
    IdealNode,
    RingContext,
    _bits,
    join_closure,
)


class ZeroIdeal(ValueError):
    """The zero ideal has no primary decomposition to analyze."""


class FacePrime(Record):
    """The prime generated by a subset of the variables."""

    __slots__ = ("variables",)

    def __init__(self, variables: frozenset[str]) -> None:
        object.__setattr__(self, "variables", variables)

    def key(self) -> tuple[str, ...]:
        return tuple(sorted(self.variables))

    @property
    def height(self) -> int:
        return len(self.variables)

    def dim_in(self, ring: RingContext) -> int:
        return ring.nvars - len(self.variables)

    @classmethod
    def from_mask(cls, ring: RingContext, mask: int) -> "FacePrime":
        """The prime on the variables at the set bits of mask.

        Bit k stands for ring.var_names[k], as in the masks that
        build_monomial_poset keeps as node ideals.  A bit outside the ring
        raises ValueError.
        """
        if mask < 0 or mask >> ring.nvars:
            raise ValueError(f"mask {mask} names a variable outside the ring")
        return cls(frozenset(v for k, v in enumerate(ring.var_names) if mask >> k & 1))


class SquarefreeIdeal(Record):
    """A nonzero squarefree monomial ideal with a minimal generating set."""

    __slots__ = ("ring", "generators")

    def __init__(
        self, ring: RingContext, generators: tuple[frozenset[str], ...]
    ) -> None:
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "generators", generators)

    @classmethod
    def create(
        cls, ring: RingContext, generators: Iterable[Iterable[str]]
    ) -> "SquarefreeIdeal":
        known = set(ring.var_names)
        gens: list[frozenset[str]] = []
        for g in generators:
            gset = frozenset(g)
            if not gset:
                raise ValueError("a generator must mention at least one variable")
            extra = gset - known
            if extra:
                raise ValueError(f"unknown variables {sorted(extra)}")
            gens.append(gset)
        if not gens:
            raise ZeroIdeal("no generators given")
        minimal = _inclusion_minimal(gens)
        return cls(ring, tuple(minimal))


def _inclusion_minimal(sets: Sequence[frozenset]) -> list[frozenset]:
    uniq = sorted(set(sets), key=lambda s: (len(s), tuple(sorted(s))))
    keep: list[frozenset] = []
    for s in uniq:
        if not any(k <= s for k in keep):
            keep.append(s)
    return keep


def minimal_primes(ideal: SquarefreeIdeal) -> list[FacePrime]:
    """Minimal primes, as the inclusion-minimal covers of the generators.

    Standard cover expansion: carry the current minimal covers and branch
    every cover that misses the next generator over that generator's
    variables, pruning non-minimal results after each step.
    """
    if not ideal.generators:
        raise ZeroIdeal("the zero ideal has no minimal primes here")
    covers: list[frozenset] = [frozenset()]
    for gen in ideal.generators:
        grown: list[frozenset] = []
        for c in covers:
            if c & gen:
                grown.append(c)
            else:
                grown.extend(c | {v} for v in sorted(gen))
        covers = _inclusion_minimal(grown)
    ordered = sorted(covers, key=lambda c: (len(c), tuple(sorted(c))))
    return [FacePrime(c) for c in ordered]


def build_monomial_poset(
    ideal: SquarefreeIdeal, *, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> AnalysisPoset:
    """Poset of all sums of the minimal primes, under reverse inclusion."""
    ring = ideal.ring
    names = ring.var_names
    position = {v: k for k, v in enumerate(names)}
    generators = [
        sum(1 << position[v] for v in fp.variables) for fp in minimal_primes(ideal)
    ]

    def build_node(mask: int, node_id: str) -> IdealNode:
        height = mask.bit_count()
        return IdealNode(id=node_id, ideal=mask, dim=len(names) - height, height=height)

    earlier: list[int] = []
    columns = [0] * len(names)

    def sums_with(b: int) -> tuple[list[int], int, int]:
        j = len(earlier)
        everyone = (1 << j) - 1
        below = everyone  # positions holding every variable of b
        outside = 0  # positions holding a variable outside b
        for k, column in enumerate(columns):
            if b >> k & 1:
                below &= column
            else:
                outside |= column
        pieces = list(map(b.__or__, earlier))
        earlier.append(b)
        for k in _bits(b):
            columns[k] |= 1 << j
        return pieces, below, everyone & ~outside

    return join_closure(
        generators,
        sums_with,
        node_builder=build_node,
        ring=ring,
        provenance="monomial",
        max_elements=max_elements,
    )
