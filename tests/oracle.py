"""Independent references for the order and homology, used only by the tests.

The order is read off the up-masks one comparison at a time: covers by
leq, and the closure of a relation by in-place passes to a fixpoint
rather than the engine's topological pass.  Faces are sorted tuples of
vertex labels, and a poset's chains are read off its order one
comparison at a time.  Homology is f_i - rank d_i - rank d_{i+1}, from
one full boundary map per degree: no clearing, no masks and no GF(2)
certificate for Q.  The one piece shared with the engine is
complexes.pivot_rows, whose ranks test_complexes checks against ranks
from minors.
"""

import itertools

from defreg.complexes import pivot_rows


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
    included; dropping the k-th vertex of a face has sign (-1)^k.
    """
    by_size = {}
    for f in faces:
        by_size.setdefault(len(f), set()).add(f)
    rows = {f: r for size in by_size.values() for r, f in enumerate(sorted(size))}
    top = max(by_size)
    ranks = {
        k: len(pivot_rows(
            ({rows[f[:i] + f[i + 1:]]: -1 if i & 1 else 1 for i in range(k)}
             for f in by_size[k]),
            field,
        ))
        for k in range(1, top + 1)
    }
    dims = {
        k - 1: len(by_size[k]) - ranks.get(k, 0) - ranks.get(k + 1, 0)
        for k in range(top + 1)
    }
    return {d: v for d, v in dims.items() if v}


def closure(facets):
    """Every face of the complex with these facets, the empty one included."""
    return {
        face
        for facet in facets
        for k in range(len(facet) + 1)
        for face in itertools.combinations(sorted(facet), k)
    }


def faces_by_size(facets):
    """The closure of facets in the form homology_of_faces takes.

    A face is the mask of its vertices' positions in sorted order, and
    entry k lists the faces with k vertices, so entry 0 is [0].
    """
    faces = closure(facets)
    pos = {v: k for k, v in enumerate(sorted({v for f in faces for v in f}))}
    out = [[] for _ in range(max(map(len, faces)) + 1)]
    for face in sorted(faces):
        out[len(face)].append(sum(1 << pos[v] for v in face))
    return out
