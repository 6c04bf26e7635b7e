"""Read a node's ideal in the closure's form, used only by the tests.

A graph node's ideal is its packed same-block relation and a monomial
node's ideal is its variable mask; these helpers check one and hand back
its parts.  clique() makes every check that lets a relation stand for a
prime: its length, that its blocks partition the unkilled vertices, and
that it is exactly the packed relation of those blocks.

The rest convert between those parts and the plain sets of the
references in oracle.py: bit v - 1 of a vertex mask stands for vertex v,
and bit k of a variable mask for ring.var_names[k].
"""

from defreg.binomial_edge import _check_partition, _pack, _rep_bytes, _unpack


def clique(n, rep):
    """(kill mask, block masks sorted by mask) of a packed relation on n vertices.

    Bit v - 1 of a mask stands for vertex v.  A rep of the wrong length,
    one whose blocks do not partition the unkilled vertices, or one with
    any other bit than those its blocks set raises ValueError.
    """
    if len(rep) != _rep_bytes(n):
        raise ValueError(
            f"a relation on {n} vertices takes {_rep_bytes(n)} bytes, not {len(rep)}"
        )
    kill, blocks = _unpack(n, rep)
    _check_partition(n, kill, blocks)
    if _pack(n, blocks) != rep:
        raise ValueError("rep is not the packed relation of its blocks")
    return kill, tuple(sorted(blocks))


def clique_height(prime):
    """The height of a (kill, blocks) prime on n vertices; its dim is 2n minus that."""
    kill, blocks = prime
    return 2 * kill.bit_count() + sum(b.bit_count() - 1 for b in blocks)


def face(ring, mask):
    """The variables at the set bits of mask, bit k for ring.var_names[k].

    A bit outside the ring raises ValueError.
    """
    if mask < 0 or mask >> ring.nvars:
        raise ValueError(f"mask {mask} names a variable outside the ring")
    return frozenset(v for k, v in enumerate(ring.var_names) if mask >> k & 1)


def face_primes(ring, masks):
    """The variable sets of masks."""
    return [face(ring, m) for m in masks]


def vertex_mask(vertices):
    return sum(1 << v - 1 for v in vertices)


def vertices(n, mask):
    """The vertices at the set bits of mask, ascending."""
    return tuple(v for v in range(1, n + 1) if mask >> v - 1 & 1)


def as_masks(prime):
    """The engine's (kill, blocks) masks, blocks sorted by mask, for an oracle prime."""
    killed, blocks = prime
    return vertex_mask(killed), tuple(sorted(vertex_mask(b) for b in blocks))


def as_sets(n, prime):
    """The oracle's (killed, blocks) for the engine's masks on n vertices."""
    kill, blocks = prime
    return frozenset(vertices(n, kill)), tuple(frozenset(vertices(n, b)) for b in blocks)


def plain_primes(n, primes):
    """The engine's (kill, blocks) masks on n vertices as sorted vertex tuples.

    The list is sorted too, and a prime p of the oracle's reads
    prime_key(p)[1:] in this form, so two lists are equal exactly when
    they hold the same primes, whatever order they came in.
    """
    return sorted(
        (vertices(n, kill), tuple(sorted(vertices(n, b) for b in blocks)))
        for kill, blocks in primes
    )
