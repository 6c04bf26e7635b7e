"""Independent references, used only by the tests.

The order is read off the up-masks one comparison at a time: covers by
leq, and the closure of a relation by in-place passes to a fixpoint
rather than the engine's topological pass.  Faces are sorted tuples of
vertex labels, and a poset's chains are read off its order one
comparison at a time.  Homology is f_i - rank d_i - rank d_{i+1}, from
one full boundary map per degree: no resolution, no masks and no GF(2)
certificate for Q.  Each rank comes from dense Gaussian elimination over
Fraction or mod p, which test_complexes checks against ranks from
minors.  Nothing here imports from the package.

The graph and monomial references work on plain sets.  A vertex is
1..n and a binomial edge prime is a pair (killed, blocks): the
frozenset of killed vertices and a tuple of frozensets partitioning the
rest.

- components(vertices, edges): the connected components, by a set walk;
- contains(p, q) and prime_key(p): containment of two primes' ideals, and
  the label order (height, killed, blocks);
- graph_primes_by_enumeration(n, edges, killed): every kill set's prime,
  kept when no smaller kill set's prime lies inside it;
- cut_set_primes(killed, vertices, edges): the primes of the cut sets;
- cover_primes(ring, generators): the inclusion-minimal variable sets
  meeting every generator;
- cycle_edges(n): the edges of the n-cycle;
- check_order(ids, up), chains_by_sets(above, k) and
  graph_homology_by_sets(above, k): up-masks checked as an order one
  comparable pair at a time, an interval's chains listed one at a time,
  and its homology read off its comparability graph as sets.
"""

import itertools
from fractions import Fraction


def leq(poset, a, b):
    """a <= b in the poset, read off its up-masks."""
    ids = poset.ids()
    return poset.up[ids.index(a)] >> ids.index(b) & 1 == 1


def covers_by_leq(poset):
    """Cover pairs (a, b) in hasse() order: a < b with nothing strictly between."""
    ids = poset.ids()
    above = {a: [b for b in ids if b != a and leq(poset, a, b)] for a in ids}
    return [
        (a, b)
        for a in ids
        for b in above[a]
        if not any(b in above[c] for c in above[a])
    ]


def close_by_passes(up):
    """Transitive closure of up-masks, by in-place passes to a fixpoint."""
    up = list(up)
    changed = True
    while changed:
        changed = False
        for i, m in enumerate(up):
            acc = m
            for j in range(len(up)):
                if m >> j & 1:
                    acc |= up[j]
            if acc != m:
                up[i] = acc
                changed = True
    return up


def chains_by_leq(poset, pid):
    """Every chain of the open interval (pid, top), the empty one included."""
    members = [b for b in poset.ids() if b != pid and leq(poset, pid, b)]
    below = {b: [c for c in members if c != b and leq(poset, c, b)] for b in members}
    out = []
    stack = [()]
    while stack:
        chain = stack.pop()
        out.append(tuple(sorted(chain)))
        stack += [chain + (c,) for c in (below[chain[-1]] if chain else members)]
    return out


def rank_oracle(faces, field):
    """Nonzero reduced homology dims, by ascending degree, of these faces.

    faces are sorted tuples, closed under taking subsets, the empty face
    included; dropping the k-th vertex of a face has sign (-1)^k.  field
    is read only for its characteristic.
    """
    by_size = {}
    for f in faces:
        by_size.setdefault(len(f), set()).add(f)
    top = max(by_size)
    ranks = {}
    for k in range(1, top + 1):
        rows = {f: r for r, f in enumerate(sorted(by_size[k - 1]))}
        matrix = []
        for f in sorted(by_size[k]):
            column = [0] * len(rows)
            for i in range(k):
                column[rows[f[:i] + f[i + 1:]]] = -1 if i & 1 else 1
            matrix.append(column)
        ranks[k] = matrix_rank(matrix, field.characteristic)
    dims = {
        k - 1: len(by_size[k]) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        for k in range(top + 1)
    }
    return {d: v for d, v in dims.items() if v}


def matrix_rank(rows, p):
    """Rank of a dense matrix, given by its rows, over Q (p = 0) or GF(p).

    Gaussian elimination, column by column: a row with a nonzero entry in
    the column is swapped up to be the pivot and cancels that entry from
    every row below it.  Entries are ints mod p, or over Q ints until an
    elimination makes them Fractions.
    """
    rows = [[x % p for x in row] if p else list(row) for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        hit = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if hit is None:
            continue
        pivot = rows[hit]
        rows[hit] = rows[rank]
        rows[rank] = pivot
        inv = pow(pivot[c], -1, p) if p else Fraction(1) / pivot[c]
        support = [(j, b) for j, b in enumerate(pivot) if b]
        for row in rows[rank + 1:]:
            f = row[c] * inv
            if f:
                for j, b in support:
                    row[j] = (row[j] - f * b) % p if p else row[j] - f * b
        rank += 1
    return rank


def closure(facets):
    """Every face of the complex with these facets, the empty one included."""
    return {
        face
        for facet in facets
        for k in range(len(facet) + 1)
        for face in itertools.combinations(sorted(facet), k)
    }


def components(vertices, edges):
    """The connected components of (vertices, edges) as frozensets, by least vertex.

    An edge with an end outside vertices is left out.
    """
    adj = {v: set() for v in vertices}
    for u, v in edges:
        if u in adj and v in adj:
            adj[u].add(v)
            adj[v].add(u)
    comps, seen = [], set()
    for start in sorted(adj):
        if start in seen:
            continue
        comp, queue = {start}, [start]
        while queue:
            for y in adj[queue.pop()]:
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
        seen |= comp
        comps.append(frozenset(comp))
    return tuple(comps)


def contains(p, q):
    """Whether the ideal of prime p contains that of prime q.

    A variable lies in p exactly when its vertex is killed, and the minor
    on vertices i, j lies in p exactly when i or j is killed or both share
    a block of p.
    """
    p_killed, p_blocks = p
    q_killed, q_blocks = q
    if not q_killed <= p_killed:
        return False
    return all(
        any(b - p_killed <= c for c in p_blocks)
        for b in q_blocks
        if len(b - p_killed) > 1
    )


def prime_key(p):
    """(height, killed vertices, blocks), each sorted: the label order."""
    killed, blocks = p
    height = 2 * len(killed) + sum(len(b) - 1 for b in blocks)
    return height, tuple(sorted(killed)), tuple(sorted(tuple(sorted(b)) for b in blocks))


def graph_primes_by_enumeration(n, edges, killed=frozenset()):
    """Minimal primes of the killed vertices' variables plus the graph's ideal.

    Every kill set S holding killed has the prime (S, components of the
    rest).  Two kill sets never give one ideal, and only a subset's prime
    can lie inside S's, so S's prime is minimal exactly when no proper
    subset of S holding killed has its prime inside it.  In prime_key order.
    """
    every = frozenset(range(1, n + 1))
    rest = sorted(every - killed)
    prime_of = {}
    for r in range(len(rest) + 1):
        for t in itertools.combinations(rest, r):
            gone = killed | frozenset(t)
            prime_of[gone] = gone, components(every - gone, edges)
    kept = [
        p
        for gone, p in prime_of.items()
        if not any(
            contains(p, prime_of[killed | frozenset(t)])
            for r in range(len(gone) - len(killed))
            for t in itertools.combinations(sorted(gone - killed), r)
        )
    ]
    return sorted(kept, key=prime_key)


def cut_set_primes(killed, vertices, edges):
    """The primes of the cut sets T of (vertices, edges), in prime_key order.

    T is a cut set when putting back any one of its vertices joins
    components; its prime kills killed and T, with the components of the
    rest as blocks.
    """
    found = []
    for r in range(len(vertices) + 1):
        for t in itertools.combinations(sorted(vertices), r):
            rest = set(vertices) - set(t)
            base = len(components(rest, edges))
            if all(len(components(rest | {v}, edges)) < base for v in t):
                found.append((killed | frozenset(t), components(rest, edges)))
    return sorted(found, key=prime_key)


def cover_primes(ring, generators):
    """The inclusion-minimal sets of ring.var_names meeting every generator.

    generators are sets of variable names; the answer is sorted by size,
    then by sorted names.
    """
    names = ring.var_names
    subsets = (
        frozenset(combo)
        for r in range(len(names) + 1)
        for combo in itertools.combinations(names, r)
    )
    hitting = [s for s in subsets if all(s & g for g in generators)]
    minimal = [s for s in hitting if not any(t < s for t in hitting)]
    return sorted(minimal, key=lambda s: (len(s), tuple(sorted(s))))


def cycle_edges(n):
    """The edges of the cycle on vertices 1..n."""
    return [(i, i % n + 1) for i in range(1, n + 1)]


def check_order(ids, up):
    """The outcome of checking up-masks as an order, one comparable pair at a time.

    up[a] names the positions at or above a; the reflexive bits are
    implied.  The outcome is ("cycle", ids[a], ids[b]) for the first
    position a that has some other b both above and below it, b the
    least such; else ("not closed",) when some c above some b above a is
    not above a; else ("ok", above), above[a] the set of positions
    strictly above a.
    """
    n = len(up)
    above = [{b for b in range(n) if b != a and up[a] >> b & 1} for a in range(n)]
    for a in range(n):
        for b in sorted(above[a]):
            if a in above[b]:
                return ("cycle", ids[a], ids[b])
    if any(not above[b] <= above[a] for a in range(n) for b in above[a]):
        return ("not closed",)
    return ("ok", above)


def chains_by_sets(above, k):
    """The chains of the open interval above k, the empty one included.

    above[a] is the set strictly above a, in a partial order; a chain is
    a tuple, listed from its least element up.
    """
    out, longer = [()], [(y,) for y in above[k]]
    while longer:
        out += longer
        longer = [c + (z,) for c in longer for z in above[c[-1]]]
    return out


def graph_homology_by_sets(above, k):
    """Reduced homology of the open interval above k, from its comparability graph.

    above[a] is the set strictly above a, in a partial order.  The
    outcome is None when the interval holds a chain of three, and
    otherwise the nonzero dims: {0: c - 1, 1: E - V + c}, or {-1: 1}
    when V = 0.
    """
    members = above[k]
    if any(above[y] and any(y in above[x] for x in members) for y in members):
        return None
    edges = [(x, y) for x in members for y in above[x]]
    if not members:
        return {-1: 1}
    c = len(components(members, edges))
    dims = {0: c - 1, 1: len(edges) - len(members) + c}
    return {d: v for d, v in dims.items() if v}
