"""Finite posets of ideal components ordered by reverse inclusion.

Throughout, p <= q means ideal(p) contains ideal(q).  Under this convention
the minimal primes are the maximal elements of the poset, sitting just below
a virtual top element that is never stored; all homology happens on the open
intervals (p, top), which are simply the strict up-sets.

The elements of the poset of sums come from join_closure, which grows
the pool and names its elements; each builder then hands the constructor
the order it read off its own turns: a + b = a says that ideal(a)
contains ideal(b), and each builder reads that off its own form.

The order is given as up[k] only, an int mask of the positions at or
above position k.  This module is the only place that closes or checks
such masks.  The constructor checks them, never closes them, and
keeps each element's covers as a mask, which hasse() and homology read,
and their OR, the elements that cover something.
Id pairs, such as the covers of a poset file, go through
AnalysisPoset.from_relations, which closes them in one pass over their
strongly connected components.  is_maximal and homology address an
element by its position k, never by its id; homology answers every open
interval (k, top) in one call.

Set bits are read by _bits, narrow and wide masks alike.  Four hot loops
step off the lowest bit inline instead, each for its own reason: _close
leaves a mask partway to walk an element and resumes it later; the
constructor's order check picks from either end of a mask that shrinks
by whole up-sets; _graph_sweep walks a set that grows as it is walked;
and hasse() runs once per cover pair, where a generator per element
costs more than the pairs.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Iterator, Sequence
from itertools import filterfalse

from ._record import Record

DEFAULT_MAX_ELEMENTS = 10_000
DEFAULT_MAX_FACES = 200_000

# the first label prefix whose faces a builder counts under a face budget;
# each later one is 4 times as long
_FIRST_PREFIX = 64


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below MAX_CHARACTERISTIC, the least strong pseudoprime to all of them
# (Sorenson and Webster, Strong pseudoprimes to twelve prime bases, 2017).
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_CHARACTERISTIC = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < MAX_CHARACTERISTIC."""
    if n < 2 or any(n % a == 0 for a in _WITNESSES):
        return n in _WITNESSES
    # n - 1 = d * 2^s, d odd; base a passes if a^d = 1 or a^(d * 2^r) = -1, r < s
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _WITNESSES:
        if pow(a, d, n) != 1 and all(pow(a, d << r, n) != n - 1 for r in range(s)):
            return False
    return True


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
    """Raised when an interval's order complex would exceed the face budget.

    The message keeps the words "chain enumeration", though no chains are
    listed: the CLI prints it, and report text stays byte-stable.
    """

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

    ideal is in its builder's own form, which the engine never reads:
    packed same-block relation bytes from build_Q_poset, a variable mask
    (bit k for ring.var_names[k]) from build_monomial_poset, None from a
    poset file.  height is optional, as abstract inputs may omit it; dim
    is not, since every bound in the engine is a maximum of dims.
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


def _bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, lowest first.

    Below 64 set bits each step takes off the lowest bit.  That costs a
    pass over the whole int per bit, quadratic in a wide mask, so from 64
    set bits up the positions are read off the digits of bin(mask), one
    pass per mask.  Each bit is yielded as it is found, so a reader that
    stops early reads no further.
    """
    if mask.bit_count() < 64:
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low
        return
    digits = bin(mask)[:1:-1]
    k = digits.find("1")
    while k >= 0:
        yield k
        k = digits.find("1", k + 1)


def _close(up: Sequence[int]) -> tuple[list[int], int]:
    """Transitive closure of up-masks, and the mask of the positions on a cycle.

    One iterative Tarjan walk up the listed pairs finishes each strongly
    connected component after every component above it.  acc[v] ORs v's
    mask with acc of each element it names, one OR per listed pair; one
    still on the stack is in v's component, whose closed mask ORs its
    members' acc.  A component of two or more elements is a cycle.
    """
    n, acc, rest = len(up), list(up), list(up)  # rest[v]: names left to walk
    order, low = [0] * n, [0] * n  # visits from 1; 0: unvisited, n + 1: done
    stack, walk, seen, cyclic = [], [], 0, 0
    for root in range(n):
        if not order[root]:
            walk.append(root)
        while walk:
            v = walk[-1]
            if not order[v]:
                seen += 1
                order[v] = low[v] = seen
                stack.append(v)
            m = rest[v]
            while m:
                bit = m & -m
                m ^= bit
                w = bit.bit_length() - 1
                if not order[w]:
                    rest[v] = m
                    walk.append(w)
                    break
                acc[v] |= acc[w]
                if order[w] < low[v]:
                    low[v] = order[w]
            else:
                walk.pop()
                if low[v] == order[v] and stack[-1] == v:
                    stack.pop()
                    order[v] = n + 1
                elif low[v] == order[v]:
                    members, w = [], -1
                    while w != v:
                        w = stack.pop()
                        members.append(w)
                        acc[v] |= acc[w]
                    for w in members:
                        acc[w], order[w] = acc[v], n + 1
                        cyclic |= 1 << w
                if walk:
                    u = walk[-1]
                    acc[u] |= acc[v]
                    if low[v] < low[u]:
                        low[u] = low[v]
    return acc, cyclic


def _unique_ids(nodes: Sequence[IdealNode]) -> list[str]:
    ids = [nd.id for nd in nodes]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate node ids")
    return ids


def _cycle(up: Sequence[int], among: int) -> tuple[int, int] | None:
    """The per-pair check's cycle (a, b), if any.

    a is the least position in among with some b != a both ways, b the
    least such; in a closed order those a are the positions on a cycle.
    """
    for a in _bits(among):
        for b in _bits(up[a] & ~(1 << a)):
            if up[b] >> a & 1:
                return a, b
    return None


class AnalysisPoset:
    """A finite poset of IdealNodes with a verified partial order.

    up[k] is the mask of positions at or above position k; the constructor
    adds the reflexive bit and verifies antisymmetry and transitivity, so a
    builder that derives its order from its closure turns is checked,
    never silently repaired.  With S(i) the strict up-set of i, the check
    picks from rest, the members of S(i) that are not maximal, until it
    is empty, whichever end (highest or lowest position) has the larger
    S(j); a pick ORs S(j) into acc and drops S(j) and j from rest.  i
    fails when acc leaves S(i).

    That is as strong as a check of every comparable pair.  Were there k
    in S(i) and l in S(k) outside S(i), l = i included, with every i
    passing, k, not maximal as S(k) holds l, would start in rest but be
    no pick, as S(k) would lie in acc; so k lies in S(j) for a pick j,
    and S(j), inside acc but missing j, is a proper subset of S(i): (j,
    k, l) is a violation with a smaller strict up-set, and these cannot
    shrink forever.  Conversely, in a partial order each k in S(i) that
    is not maximal is a pick or in a pick's S(j), which holds S(k), so
    every member of S(i) above another lies in acc, and S(i) & ~acc are
    i's covers; _covered is the OR of them all.  On a failure _cycle's
    pass over the comparable pairs names the per-pair check's cycle, if
    there is one.
    """

    __slots__ = ("_nodes", "_up", "_size", "_covers", "_covered", "_maximal", "ring", "provenance")

    def __init__(
        self,
        nodes: Sequence[IdealNode],
        up: Sequence[int],
        *,
        ring: RingContext | None = None,
        provenance: str = "abstract",
    ) -> None:
        self._nodes = tuple(nodes)
        ids = _unique_ids(self._nodes)
        n = len(self._nodes)
        if len(up) != n:
            raise ValueError(f"{len(up)} up-masks for {n} nodes")
        if any(m >> n for m in up):
            raise ValueError(f"up-mask names a position outside 0..{n - 1}")
        up = [m | 1 << k for k, m in enumerate(up)]
        strict = [m ^ 1 << k for k, m in enumerate(up)]
        size = [m.bit_count() for m in strict]
        # one digit per position, the last first; the leading 0 reads no nodes
        maximal = int("0" + "".join(["0" if m else "1" for m in reversed(strict)]), 2)
        nonmaximal = ~maximal
        covers, covered = [], 0
        for i, m in enumerate(strict):
            acc, rest = 0, m & nonmaximal
            while rest:
                j = rest.bit_length() - 1
                low = (rest & -rest).bit_length() - 1
                if size[low] > size[j]:
                    j = low
                acc |= strict[j]
                rest &= ~up[j]
            if acc & ~m:
                cycle = _cycle(up, (1 << n) - 1)
                if cycle:
                    raise OrderCycle(ids[cycle[0]], ids[cycle[1]])
                raise ValueError("order relation is not transitively closed")
            c = m & ~acc
            covers.append(c)
            covered |= c
        self._up = tuple(up)
        self._size = size
        self._covers = covers
        self._covered = covered
        self._maximal = maximal
        self.ring = ring
        self.provenance = provenance
        if ring is not None:
            ambient = ring.nvars
            for nd in self._nodes:
                if nd.dim > ambient:
                    raise ValueError(
                        f"node {nd.id}: dim {nd.dim} exceeds the ambient {ambient}"
                    )
                if nd.height is not None and nd.height + nd.dim != ambient:
                    raise ValueError(
                        f"node {nd.id}: height {nd.height} + dim {nd.dim} "
                        f"differs from the ambient {ambient}"
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
        """The poset generated by pairs (a, b) meaning a <= b, closed here.

        A cycle raises here what the constructor would raise, duplicate
        ids first (_unique_ids), but _cycle reads the ids off the cycle's
        positions alone, not off every comparable pair of the closure.
        """
        index = {nd.id: k for k, nd in enumerate(nodes)}
        up = [0] * len(nodes)
        for a, b in pairs:
            ia, ib = index.get(a), index.get(b)
            if ia is None or ib is None:
                raise ValueError(f"order relation mentions unknown id in ({a}, {b})")
            up[ia] |= 1 << ib
        up, cyclic = _close(up)
        if cyclic:
            a, b = _cycle(up, cyclic)
            ids = _unique_ids(nodes)
            raise OrderCycle(ids[a], ids[b])
        return cls(nodes, up, ring=ring, provenance=provenance)

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
        return bool(self._maximal >> k & 1)

    def homology(
        self, p: int, *, max_faces: int = DEFAULT_MAX_FACES
    ) -> list[dict[int, int]]:
        """Nonzero reduced dims of every open interval (k, top), by position.

        The field is GF(p), or Q when p is 0; any other p that is no prime
        below MAX_CHARACTERISTIC raises ValueError.  Every interval is held
        to max_faces faces first, in position order.  Some interval holds a
        chain of three exactly when some a in _covered, the mask of the
        elements that cover something, has a cover b that is not maximal:
        k < x < y < z refines into covers k < a < b <= z, and k < a < b <
        z puts a < b < z in (k, top).  Without one, one _graph_sweep
        answers every interval, over every field; with one,
        _resolution_homology answers all of them at once.  Either way,
        exactly the maximal elements hold a class in degree -1.

        Over Q the resolution runs over GF(2) first.  An order complex's
        augmented chain complex is free over Z, so dim_GF(2) H_i = r_i +
        s_i + s_{i-1}, with r_i = dim_Q H_i and s_i the number of torsion
        summands of even order in H_i(Z) (Hatcher, Algebraic Topology,
        2002, Thm 3A.3).  Reduced H_{-1} and H_0 are free, so Q differs
        from GF(2) only where some interval's GF(2) homology is nonzero in
        degrees d and d + 1 with d >= 1: only then does Q resolve again.
        """
        if p and not (p < MAX_CHARACTERISTIC and _is_prime(p)):
            raise ValueError(f"characteristic {p} is neither 0 nor a prime")
        covers, nonmaximal = self._covers, ~self._maximal
        self._check_faces(range(len(covers)), max_faces)
        if not any(covers[a] & nonmaximal for a in _bits(self._covered)):
            dims = self._graph_sweep()
        else:
            dims = self._resolution_homology(p or 2)
            if not p and any(d > 0 and d + 1 in h for h in dims for d in h):
                two, dims = dims, self._resolution_homology(0)
                assert all(v <= two[k].get(d, 0)
                           for k, h in enumerate(dims) for d, v in h.items())
        assert int(
            "0" + "".join(["1" if -1 in h else "0" for h in reversed(dims)]), 2
        ) == self._maximal
        return dims

    def _graph_sweep(self) -> list[dict[int, int]]:
        """Reduced homology of every (k, top) when no interval has a chain of three.

        The order complex of (k, top) is then its comparability graph: V
        members, E pairs and c components give H_0 = c - 1 and H_1 = E -
        V + c, and V = 0 a class in degree -1 (Björner, Topological
        methods, 1995, §9), over every field, as a graph's homology is
        free.  Two facts turn most of these counts into popcounts.

        1. A non-maximal cover a of k has only maximal covers: a b > a
           below some z would make a < b < z a chain of three in (k,
           top).  So everything above a is maximal and covers a, and
           size[a] counts a's covers.
        2. A maximal cover m of k is an isolated vertex of (k, top):
           nothing lies above m, and an x in (k, top) below m would lie
           between k and its cover m.

        Every member of (k, top) lies at or above a cover of k, so by 1
        it is a cover of k or a cover of a non-maximal one, an a.  In a
        pair x < y of members x is an a, as an x above some a would make
        a < x < y a chain of three.  So V = size[k] and E sums size[a]
        over the a.  By 2 each maximal cover of k is a component of its
        own; every other component holds an a, and two a share one
        exactly when a chain of a joins them, each sharing a maximal
        cover with the next.  A maximal k has V = 0, and a k with no a
        has c covers, V = c and E = 0, so {0: c - 1}.  Every other k
        walks its a alone, each step ORing in sibling[a]: the elements
        that cover something and share a maximal cover with a, built
        once from the down-covers of the maximal elements.
        """
        covers, size, nonmaximal = self._covers, self._size, ~self._maximal
        middle = list(_bits(self._covered & nonmaximal))
        tops = [list(_bits(covers[a])) for a in middle]
        down, sibling = [0] * len(covers), [0] * len(covers)
        for a, ms in zip(middle, tops):
            for m in ms:
                down[m] |= 1 << a
        for a, ms in zip(middle, tops):
            for m in ms:
                sibling[a] |= down[m]
        dims = []
        for k, c in enumerate(covers):
            rest = c & nonmaximal
            if not rest:
                comps = c.bit_count() - 1
                dims.append({0: comps} if comps > 0 else {} if c else {-1: 1})
                continue
            comps, pairs = (c ^ rest).bit_count(), 0
            while rest:
                comps += 1
                todo = rest & -rest
                while todo:
                    rest &= ~todo
                    a = (todo & -todo).bit_length() - 1
                    todo &= todo - 1
                    pairs += size[a]
                    todo |= sibling[a] & rest
            h = (0, comps - 1), (1, pairs - size[k] + comps)
            dims.append({d: v for d, v in h if v})
        return dims

    def _check_faces(self, positions: Iterable[int], max_faces: int) -> None:
        """Raise FaceBudgetExceeded if some listed interval has over max_faces faces.

        The open interval (k, top) has c(k) = 1 + Σ_{y > k} c(y) faces,
        the empty one included, as c(y) counts the chains with bottom y.
        An interval of m members has at most 2^m faces, so one with m <
        max_faces.bit_length() is passed over uncounted.  The others are
        counted in one memo, each element after the smaller up-sets of
        everything above it, and every sum stops at max_faces + 1.  The
        raise comes at the first listed interval over budget.
        """
        up, size = self._up, self._size
        cap = max_faces + 1
        small = max_faces.bit_length() - 1
        count: dict[int, int] = {}
        for k in positions:
            if size[k] <= small:
                continue
            todo = filterfalse(count.__contains__, _bits(up[k]))
            for y in sorted(todo, key=size.__getitem__):
                c = 1
                for z in _bits(up[y] ^ 1 << y):
                    c += count[z]
                    if c >= cap:
                        c = cap
                        break
                count[y] = c
            if count[k] > max_faces:
                raise FaceBudgetExceeded(max_faces)

    def _resolution_homology(self, p: int) -> list[dict[int, int]]:
        """Reduced homology over GF(p), or Q when p is 0, of every (k, top).

        By Cibils (Cohomology of incidence algebras and simplicial
        complexes, J. Pure Appl. Algebra 56, 1989), dim Ext^i(S_x, S_y) =
        dim H~_{i-2}((x, y)) over the incidence algebra over any field, so
        the minimal projective resolution of the simple module at the
        virtual top holds the projective of k in term d + 2 exactly
        dim H~_d((k, top)) times.  Over the opposite order every module is
        a subspace of coordinate space at each element and every map a
        coordinate inclusion.  A generator of degree d sits at an element
        x with a vector over the generators of degree d - 1; the module at
        y is spanned by the generators at or above y.  Degree -1 has one
        generator at each maximal element, the top's coordinate.  In each degree:

        1. at each element y, the vectors of the generators at or above y
           are eliminated, each carrying a tag for its generator; the
           tags of those that reduce to 0 are a basis of the kernel K_y;
        2. at each element x, a basis of K_x modulo the span of K_a over
           the covers a of x are the generators of the next degree at x.

        Only the arithmetic depends on the field: int bitsets over GF(2),
        else sparse rows {coordinate: coefficient} of ints mod p or
        Fractions, pivoting on their largest coordinate.  An element's
        generators in degree d number its multiplicity in degree d, and
        the resolution ends at a degree with none.
        """
        # unit(i) is the vector with the single coordinate i
        if p == 2:
            unit, zero, reduce = (1).__lshift__, 0, _reduce_bits
        else:
            unit, zero, reduce = _unit_row, {}, _row_reducer(p)
        up, covers = self._up, self._covers
        dims: list[dict[int, int]] = [{} for _ in up]
        gens = [[unit(0)] if m == 1 << x else [] for x, m in enumerate(up)]
        d = -1
        while True:
            # at: positions holding a generator; tagged[x]: (vector, tag)
            # of the generators at x, tags numbered across the degree
            at = tag = 0
            tagged = []
            for x, vectors in enumerate(gens):
                if vectors:
                    at |= 1 << x
                    dims[x][d] = len(vectors)
                row = []
                for v in vectors:
                    row.append((v, unit(tag)))
                    tag += 1
                tagged.append(row)
            if not at:
                break
            kernels = []
            for y, m in enumerate(up):
                pivots: dict = {}
                kernel = []
                for x in _bits(m & at):
                    for v, t in tagged[x]:
                        t = reduce(pivots, v, t)
                        if t is not None:
                            kernel.append(t)
                kernels.append(kernel)
            gens = []
            for kernel, c in zip(kernels, covers):
                new = []
                if kernel:
                    # only whether a vector is new counts: its tag is zero
                    span: dict = {}
                    for a in _bits(c):
                        for t in kernels[a]:
                            reduce(span, t, zero)
                    new = [t for t in kernel if reduce(span, t, zero) is None]
                gens.append(new)
            d += 1
        assert _hall_holds(up, dims)
        return dims

    def hasse(self) -> list[tuple[str, str]]:
        """Cover pairs (lower, upper), by lower position, then upper position."""
        ids, pairs = [nd.id for nd in self._nodes], []
        for a, c in zip(ids, self._covers):
            while c:
                low = c & -c
                pairs.append((a, ids[low.bit_length() - 1]))
                c ^= low
        return pairs


def _reduce_bits(pivots: dict, v: int, t: int) -> int | None:
    """Reduce v over GF(2) by the echelon rows pivots, carrying the tag t.

    Return t reduced with it when v reduces to 0, else keep (v, t) under
    v's pivot, its bit_length, and return None.
    """
    while v:
        top = v.bit_length()
        hit = pivots.get(top)
        if hit is None:
            pivots[top] = v, t
            return None
        v ^= hit[0]
        t ^= hit[1]
    return t


def _unit_row(i: int) -> dict:
    return {i: 1}


def _row_reducer(p: int) -> Callable:
    """_reduce_bits for sparse rows, of ints mod p, or of Fractions when p is 0.

    A kept row is scaled so that its pivot entry is 1.
    """
    if p:
        def inverse(c):
            return pow(c, -1, p)
    else:
        from fractions import Fraction

        inverse = Fraction(1).__truediv__

    def minus(row: dict, c, other: dict) -> dict:
        """row - c * other, without its zero entries."""
        out = dict(row)
        for k, y in other.items():
            x = out.pop(k, 0) - c * y
            if p:
                x %= p
            if x:
                out[k] = x
        return out

    def reduce(pivots: dict, v: dict, t: dict) -> dict | None:
        while v:
            top = max(v)
            hit = pivots.get(top)
            if hit is None:
                # c * v and c * t, as 0 - (-c) * v and 0 - (-c) * t
                c = inverse(v[top])
                pivots[top] = minus({}, -c, v), minus({}, -c, t)
                return None
            c = v[top]
            v = minus(v, c, hit[0])
            t = minus(t, c, hit[1])
        return t

    return reduce


def _hall_holds(up: Sequence[int], dims: Sequence[dict[int, int]]) -> bool:
    """Philip Hall's theorem on every interval (k, top): χ̃ = μ(k, top).

    With e(x) = 1 - Σ_{y > x} e(y), μ(k, top) = -e(k) (Rota, On the
    foundations of combinatorial theory I, 1964).  An element comes after
    everything above it when the up-sets are taken by size.
    """
    e = [0] * len(up)
    for x in sorted(range(len(up)), key=lambda x: up[x].bit_count()):
        e[x] = 1 - sum(e[y] for y in _bits(up[x] ^ 1 << x))
    return all(
        sum(-v if d & 1 else v for d, v in h.items()) == -e[k]
        for k, h in enumerate(dims)
    )


def join_closure(
    generators: Sequence[Hashable],
    sums_with: Callable[[Hashable], Iterable[Hashable]],
    *,
    node_builder: Callable[[Hashable, str], IdealNode],
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> list[IdealNode]:
    """Close a family of primes under pairwise sums, and name the elements.

    generators are canonical prime representations, already sorted, fed
    in one at a time.  Each element takes one turn, in label order:
    sums_with(rep) is called once per element, so the elements it was
    handed before are exactly the earlier ones, e_0, e_1, ...  It sums
    rep with each of them, keeping whatever it needs of rep for the later
    turns, and returns the minimal primes of the sums e_i + rep in
    canonical form, in the order of i.  The primes of a sum already in
    the pool may be left out: one the callback met on an earlier turn or
    earlier on this one, or one equal to an element it was handed.  That
    moves no first appearance, so the labels stay the same.

    Unseen pieces join the pool in the order given until nothing new
    appears.  node_builder(rep, id) then turns each element, in label
    order, into its IdealNode, named p_1, p_2, ...; the nodes come back
    in that order.  The order is the builder's own: its turns have seen
    every element, so it hands the constructor their up-masks itself.
    """
    if not generators:
        raise ValueError("closure needs at least one generator")
    reps: list = []
    index: dict = {}

    def insert(rep) -> None:
        if len(reps) >= max_elements:
            raise ClosureBudgetExceeded(max_elements)
        index[rep] = len(reps)
        reps.append(rep)

    j = 0
    for g in generators:
        if g not in index:
            insert(g)
        while j < len(reps):
            pieces = sums_with(reps[j])
            for piece in dict.fromkeys(filterfalse(index.__contains__, pieces)):
                insert(piece)
            j += 1

    return [node_builder(rep, f"p_{k + 1}") for k, rep in enumerate(reps)]
