"""Finite posets of ideal components ordered by reverse inclusion.

Throughout, p <= q means ideal(p) contains ideal(q).  Under this convention
the minimal primes are the maximal elements of the poset, sitting just below
a virtual top element that is never stored; all homology happens on the open
intervals (p, top), which are simply the strict up-sets.

The poset of sums is built by a worklist closure over canonical prime
representations, which are plain hashable values (int masks for face
primes, packed relation bytes for clique primes).  The closure runs one
turn per element, in label order: on its turn an element goes to one
callback, which sums it with every element it was handed before and
returns the minimal primes of all those sums, flattened in pair order,
plus two masks saying which earlier elements lie below and which lie
above it.  Unseen pieces join the pool in the order given until a
fixpoint.  Labels p_1, p_2, ... follow first-appearance order, with the
generators fed in one at a time so that sums of early generators are
labelled before later generators.
The order is read off the same sums: a + b = a says that ideal(a)
contains ideal(b), and every pair is summed exactly once, so no separate
containment test is needed.

Builders hand in the order as up[k] only, an int mask of the positions at
or above position k; the constructor derives down[k] from it once, for
chain enumeration and covers.  This module is the only place that builds,
closes or cycle-checks such masks.  The constructor checks the masks but
never closes them; relations given as id pairs, such as the covers of a
poset file, go through AnalysisPoset.from_relations, which closes them.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Sequence

from ._record import Record
from .complexes import DEFAULT_MAX_FACES, FaceBudgetExceeded

DEFAULT_MAX_ELEMENTS = 10_000


class ClosureBudgetExceeded(RuntimeError):
    """Raised when the sum closure would exceed the element budget."""

    def __init__(self, max_elements: int) -> None:
        super().__init__(f"sum closure passed the element budget of {max_elements}")
        self.max_elements = max_elements


class UnknownElement(KeyError):
    """Lookup of a poset element id that does not exist."""


class OrderCycle(ValueError):
    """Two distinct elements lie at or above each other."""

    def __init__(self, a: str, b: str) -> None:
        super().__init__(f"order relation has a cycle through {a} and {b}")
        self.ids = (a, b)


class RingContext(Record):
    """The ambient standard-graded polynomial ring, described by its variables."""

    __slots__ = ("var_names",)

    def __init__(self, var_names: tuple[str, ...]) -> None:
        if len(set(var_names)) != len(var_names):
            raise ValueError("variable names must be unique")
        object.__setattr__(self, "var_names", var_names)

    @property
    def nvars(self) -> int:
        return len(self.var_names)


class IdealNode(Record):
    """One poset element: a prime component together with its numeric data.

    height is optional because abstract inputs may omit it; dim never is,
    since every bound in the engine is a maximum of dims.
    """

    __slots__ = ("id", "ideal", "dim", "height", "is_cm")

    def __init__(
        self, id: str, ideal: object, dim: int,
        height: int | None = None, is_cm: bool = True,
    ) -> None:
        if dim < 0:
            raise ValueError(f"node {id}: dim must be nonnegative")
        if height is not None and height < 0:
            raise ValueError(f"node {id}: height must be nonnegative")
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "height", height)
        object.__setattr__(self, "is_cm", is_cm)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _close(up: Sequence[int]) -> list[int]:
    """Transitive closure of up-masks, by in-place passes to a fixpoint."""
    up = list(up)
    changed = True
    while changed:
        changed = False
        for i, m in enumerate(up):
            acc = m
            for j in _bits(m):
                acc |= up[j]
            if acc != m:
                up[i] = acc
                changed = True
    return up


class AnalysisPoset:
    """A finite poset of IdealNodes with a verified partial order.

    up[k] is the mask of positions at or above position k; the constructor
    adds the reflexive bit and verifies antisymmetry and transitivity, so a
    builder that derives its order (join_closure) is checked, never
    silently repaired.
    """

    __slots__ = ("_nodes", "_index", "_up", "_down", "ring", "provenance")

    def __init__(
        self,
        nodes: Sequence[IdealNode],
        up: Sequence[int],
        *,
        ring: RingContext | None = None,
        provenance: str = "abstract",
    ) -> None:
        self._nodes = tuple(nodes)
        ids = [nd.id for nd in self._nodes]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate node ids")
        self._index = {pid: k for k, pid in enumerate(ids)}
        n = len(self._nodes)
        if len(up) != n:
            raise ValueError(f"{len(up)} up-masks for {n} nodes")
        if any(m >> n for m in up):
            raise ValueError(f"up-mask names a position outside 0..{n - 1}")
        up = [m | 1 << k for k, m in enumerate(up)]
        down = [0] * n
        transitive = True
        for i, m in enumerate(up):
            bit = 1 << i
            closed = m
            for j in _bits(m):
                down[j] |= bit
                closed |= up[j]
            transitive = transitive and closed == m
        for i, m in enumerate(up):
            both = m & down[i] ^ 1 << i
            if both:
                raise OrderCycle(ids[i], ids[(both & -both).bit_length() - 1])
        if not transitive:
            raise ValueError("order relation is not transitively closed")
        self._up = tuple(up)
        self._down = down
        self.ring = ring
        self.provenance = provenance
        if ring is not None:
            for nd in self._nodes:
                if nd.dim > ring.nvars:
                    raise ValueError(
                        f"node {nd.id}: dim {nd.dim} exceeds the ambient {ring.nvars}"
                    )
                if nd.height is not None and nd.height + nd.dim != ring.nvars:
                    raise ValueError(
                        f"node {nd.id}: height {nd.height} + dim {nd.dim} "
                        f"differs from the ambient {ring.nvars}"
                    )

    @classmethod
    def from_relations(
        cls,
        nodes: Sequence[IdealNode],
        pairs: Iterable[tuple[str, str]],
        *,
        ring: RingContext | None = None,
        provenance: str = "abstract",
    ) -> "AnalysisPoset":
        """The poset generated by pairs (a, b) meaning a <= b, closed here."""
        index = {nd.id: k for k, nd in enumerate(nodes)}
        up = [0] * len(nodes)
        for a, b in pairs:
            ia = index.get(a)
            ib = index.get(b)
            if ia is None or ib is None:
                raise ValueError(f"order relation mentions unknown id in ({a}, {b})")
            up[ia] |= 1 << ib
        return cls(nodes, _close(up), ring=ring, provenance=provenance)

    @property
    def nodes(self) -> tuple[IdealNode, ...]:
        return self._nodes

    @property
    def up(self) -> tuple[int, ...]:
        """up[k]: the mask of positions at or above position k."""
        return self._up

    def ids(self) -> tuple[str, ...]:
        return tuple(nd.id for nd in self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def _pos(self, pid: str) -> int:
        k = self._index.get(pid)
        if k is None:
            raise UnknownElement(pid)
        return k

    def is_maximal(self, pid: str) -> bool:
        k = self._pos(pid)
        return self._up[k] == 1 << k

    def interval_chains(
        self, pid: str, *, max_faces: int = DEFAULT_MAX_FACES
    ) -> list[list[int]]:
        """Chains of the open interval (pid, top) as int masks of positions, by size.

        This is the order complex of the interval, faces grouped as
        homology_of_faces takes them, without building the interval poset
        or anything else of the poset's size.
        """
        k = self._pos(pid)
        return _chains(self._down, self._up[k] ^ 1 << k, max_faces)

    def hasse(self) -> list[tuple[str, str]]:
        """Cover pairs (lower, upper) of the transitive reduction."""
        n = len(self._nodes)
        covers = []
        for i in range(n):
            strict_up = self._up[i] & ~(1 << i)
            for j in _bits(strict_up):
                between = strict_up & self._down[j] & ~(1 << j)
                if between == 0:
                    covers.append((self._nodes[i].id, self._nodes[j].id))
        return covers


def _chains(down: Sequence[int], members: int, max_faces: int) -> list[list[int]]:
    """Chains of the elements in the mask members, as position masks grouped by size.

    A chain grows from its one-shorter prefix by a member y strictly below
    the prefix's bottom, so clearing any bit of a chain gives a mask listed
    one size down.  Each chain of the working size carries the mask
    down[y] & members ^ (1 << y) of what may still go below it, so
    extending it reads only the poset's own down-masks.  The lists come
    out grouped by top element, which leaves the column reduction less
    fill-in than grouping by bottom element (about 1.7x faster on the
    8-vertex path).  The empty chain counts toward max_faces, as it is a
    face too.
    """
    levels: list[list[int]] = []
    level, belows = [0], [members]
    count = 1
    while level:
        levels.append(level)
        longer: list[int] = []
        longer_belows: list[int] = []
        for chain, below in zip(level, belows):
            while below:
                low = below & -below
                below ^= low
                longer.append(chain | low)
                longer_belows.append(down[low.bit_length() - 1] & members ^ low)
            if count + len(longer) > max_faces:
                raise FaceBudgetExceeded(
                    f"chain enumeration passed the face budget of {max_faces}"
                )
        count += len(longer)
        level, belows = longer, longer_belows
    return levels


def join_closure(
    generators: Sequence[Hashable],
    sums_with: Callable[[Hashable], tuple[Iterable[Hashable], int, int]],
    *,
    node_builder: Callable,
    ring: RingContext | None = None,
    provenance: str,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> AnalysisPoset:
    """Close a family of primes under pairwise sums, ordered by the sums.

    generators are canonical prime representations, already sorted; they
    are fed in one at a time.  Each element takes one turn, in label
    order: sums_with(rep) is called once per element, so the elements it
    was handed before are exactly the earlier ones, e_0, e_1, ... in label
    order.  It sums rep with each of them, keeping whatever it needs of
    rep for the later turns, and returns (pieces, below, above):

    - pieces: the minimal primes of every sum e_i + rep in canonical
      form, flattened in the order of i;
    - below: the mask of the positions i with e_i <= rep, that is
      e_i + rep = e_i;
    - above: the mask of the positions i with rep <= e_i.

    Unseen pieces join the pool in the order given, and every accumulated
    prime is summed with every other until nothing new appears.  Every
    pair is summed once, on the turn of the later element, so the masks
    give the whole order with no separate containment test.
    node_builder(rep, id) turns each representation into its IdealNode.
    """
    if not generators:
        raise ValueError("closure needs at least one generator")
    reps: list = []
    index: dict = {}
    up: list[int] = []

    def insert(rep) -> None:
        if len(reps) >= max_elements:
            raise ClosureBudgetExceeded(max_elements)
        index[rep] = len(reps)
        reps.append(rep)
        up.append(0)

    j = 0
    for g in generators:
        if g not in index:
            insert(g)
        while j < len(reps):
            pieces, below, above = sums_with(reps[j])
            up[j] |= above
            bit = 1 << j
            for i in _bits(below):
                up[i] |= bit
            for piece in [p for p in dict.fromkeys(pieces) if p not in index]:
                insert(piece)
            j += 1

    nodes = [node_builder(rep, f"p_{k + 1}") for k, rep in enumerate(reps)]
    return AnalysisPoset(nodes, up, ring=ring, provenance=provenance)
