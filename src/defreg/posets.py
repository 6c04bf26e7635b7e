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
chain enumeration.  This module is the only place that builds, closes or
cycle-checks such masks.  The constructor checks the masks but never
closes them, and its transitivity check leaves each element's covers as
a mask, which hasse() reads.  Relations given as id pairs, such as the
covers of a poset file, go through AnalysisPoset.from_relations, which
closes them in one pass over a topological order.  The interval methods
address an element by its position k, never by its id: is_maximal(k),
interval_chains(k) and graph_homology(k) read the open interval
(k, top), and graph_homology(k) returns None when that interval has a
chain of three elements.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Sequence

from ._record import Record

DEFAULT_MAX_ELEMENTS = 10_000
DEFAULT_MAX_FACES = 200_000


# The exceptions keep their constructor arguments as args and format the
# message in __str__: pickle and copy call the class again with args.
class ClosureBudgetExceeded(RuntimeError):
    """Raised when the sum closure would exceed the element budget."""

    def __init__(self, max_elements: int) -> None:
        super().__init__(max_elements)
        self.max_elements = max_elements

    def __str__(self) -> str:
        return f"sum closure passed the element budget of {self.max_elements}"


class FaceBudgetExceeded(RuntimeError):
    """Raised when an interval's order complex would exceed the face budget."""

    def __init__(self, max_faces: int) -> None:
        super().__init__(max_faces)
        self.max_faces = max_faces

    def __str__(self) -> str:
        return f"chain enumeration passed the face budget of {self.max_faces}"


class OrderCycle(ValueError):
    """Two distinct elements lie at or above each other."""

    def __init__(self, a: str, b: str) -> None:
        super().__init__(a, b)
        self.ids = (a, b)

    def __str__(self) -> str:
        a, b = self.ids
        return f"order relation has a cycle through {a} and {b}"


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

    ideal is the component in its builder's own form, which the engine
    never reads: the packed same-block relation (bytes) from build_Q_poset,
    the variable mask (an int) from build_monomial_poset, None from a poset
    file.  CliquePrime.from_relation and FacePrime.from_mask turn the first
    two into records.  height is optional because abstract inputs may omit
    it; dim never is, since every bound in the engine is a maximum of dims.
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
    """Transitive closure of up-masks, in one pass over a topological order.

    Kahn's algorithm, run from the top: an element is closed once every
    element its mask names is closed, and its closed mask is then ORed
    into each element that names it, one OR per listed pair.  Elements
    that a cycle leaves unclosed (a self-bit counts as a cycle) finish by
    in-place passes to a fixpoint.  The closure is unique, so the masks
    do not depend on the route.
    """
    up = list(up)
    below: list[list[int]] = [[] for _ in up]
    waiting = []
    for i, m in enumerate(up):
        waiting.append(m.bit_count())
        for j in _bits(m):
            below[j].append(i)
    done = [i for i, w in enumerate(waiting) if not w]
    for j in done:
        m = up[j]
        for i in below[j]:
            up[i] |= m
            waiting[i] -= 1
            if not waiting[i]:
                done.append(i)
    rest = [i for i, w in enumerate(waiting) if w]
    changed = True
    while changed:
        changed = False
        for i in rest:
            m = up[i]
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
    silently repaired.  The check ORs the strict up-sets of each strict
    up-set, one OR per comparable pair: that union stays inside up[k]
    exactly when the masks are closed, and what it leaves out of k's
    strict up-set are k's covers.
    """

    __slots__ = (
        "_nodes", "_up", "_down", "_covers", "ring", "provenance",
    )

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
        n = len(self._nodes)
        if len(up) != n:
            raise ValueError(f"{len(up)} up-masks for {n} nodes")
        if any(m >> n for m in up):
            raise ValueError(f"up-mask names a position outside 0..{n - 1}")
        up = [m | 1 << k for k, m in enumerate(up)]
        strict = [m ^ 1 << k for k, m in enumerate(up)]
        down = [1 << k for k in range(n)]
        covers = []
        transitive = True
        for i, m in enumerate(strict):
            bit = 1 << i
            # what lies strictly above something strictly above i
            acc = 0
            for j in _bits(m):
                down[j] |= bit
                acc |= strict[j]
            covers.append(m & ~acc)
            transitive = transitive and acc | up[i] == up[i]
        for i, m in enumerate(up):
            both = m & down[i] ^ 1 << i
            if both:
                raise OrderCycle(ids[i], ids[(both & -both).bit_length() - 1])
        if not transitive:
            raise ValueError("order relation is not transitively closed")
        self._up = tuple(up)
        self._down = down
        self._covers = covers
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
            # the constructor adds the reflexive bits; left in, a self-pair
            # would read as a cycle to _close's topological pass
            if ia != ib:
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

    def is_maximal(self, k: int) -> bool:
        """Whether position k has nothing strictly above it."""
        return self._up[k] == 1 << k

    def interval_chains(
        self, k: int, *, max_faces: int = DEFAULT_MAX_FACES
    ) -> list[list[int]]:
        """Chains of the open interval (k, top) as int masks of positions, by size.

        This is the order complex of the interval above position k, faces
        grouped as homology_of_faces takes them, without building the
        interval poset or anything else of the poset's size.
        """
        return _chains(self._down, self._up[k] ^ 1 << k, max_faces)

    def graph_homology(
        self, k: int, *, max_faces: int = DEFAULT_MAX_FACES
    ) -> dict[int, int] | None:
        """Reduced homology of (k, top) read off its comparability graph, or None.

        An interval with no chain of three elements has that graph as its
        order complex.  The walk over the interval's components finds any
        chain of three as a non-maximal member with another member below
        it, and then returns None at once, before the face budget is
        checked, leaving the interval to interval_chains.  Otherwise V
        members, E comparable pairs and c components give H_0 = c - 1 and
        H_1 = E - V + c, and with V = 0 a class in degree -1 (Björner,
        Topological methods, 1995, §9).  A graph's homology is free, so
        this holds over every field.  1 + V + E is the face count
        interval_chains would reach, and it is held to max_faces with the
        same message.
        """
        up, down = self._up, self._down
        members = rest = up[k] ^ 1 << k
        pairs = comps = 0
        while rest:
            comps += 1
            reached = frontier = rest & -rest
            while frontier:
                near = 0
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    x = low.bit_length() - 1
                    above = up[x].bit_count() - 1
                    if above and (down[x] & members).bit_count() > 1:
                        return None
                    pairs += above
                    near |= up[x] | down[x]
                frontier = near & rest & ~reached
                reached |= frontier
            rest ^= reached
        nverts = members.bit_count()
        if 1 + nverts + pairs > max_faces:
            raise FaceBudgetExceeded(max_faces)
        if not nverts:
            return {-1: 1}
        dims = {0: comps - 1, 1: pairs - nverts + comps}
        return {d: v for d, v in dims.items() if v}

    def hasse(self) -> list[tuple[str, str]]:
        """Cover pairs (lower, upper) of the transitive reduction.

        Lower elements in node order, each one's covers by ascending
        position, read off the cover masks the constructor recorded.
        """
        ids = self.ids()
        return [(a, ids[j]) for a, c in zip(ids, self._covers) for j in _bits(c)]


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
                raise FaceBudgetExceeded(max_faces)
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
