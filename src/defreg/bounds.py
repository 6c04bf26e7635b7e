"""Regularity bounds for deficiency modules, read off a component poset.

Everything here consumes an AnalysisPoset whose nodes carry dimensions.
For each element q the open interval above q (excluding q, with the
virtual top left implicit) has an order complex; the multiplicity of q in
degree d is the reduced homology dimension of that complex in degree d,
over the field a FieldSpec names.  multiplicities reads it, exactly, off
one call to AnalysisPoset.homology, which holds every interval to the
face budget and then answers them all: off their comparability graphs
when no interval holds a chain of three elements, else by one minimal
resolution, over Q through a GF(2) certificate.

For a cohomological degree j, the contributing set S_j collects the
elements p with dim p <= j and nonzero multiplicity in degree
j - dim p - 1.  The bound for K^j is the largest dimension over S_j,
never more than j itself, and minus infinity when S_j is empty.

A regularity-like invariant of a graded module takes values in Z with
-inf adjoined, the value of the zero module.  On a filtered module it is
bounded by the maximum of its values on the successive quotients.  The
filtration of K^j has layers indexed by k, where layer k holds the
members of S_j of dimension j - k, so the bound is j minus the first
nonempty layer, and -inf when every layer is empty.

analyze reads every degree off the multiplicities in one pass, in node
order: an element p with multiplicity m in degree d lies in S_j for
j = dim p + d + 1, where it enters layer d + 1 of the filtration of K^j
with exponent m.  Only the nonempty layers are stored.  Layer 0 holds
the maximal elements of dimension j, which witness that K^j itself is
nonzero.
"""

from __future__ import annotations

from collections.abc import Mapping

from ._record import Record
from .posets import DEFAULT_MAX_FACES, MAX_CHARACTERISTIC, AnalysisPoset, _is_prime

NEG_INF = float("-inf")  # reg of the zero module: below every integer

ASSUMPTION_TEXT = {
    "binomial-edge": (
        "limit acyclicity of the inverse system over the iterated sum poset:"
        " assumed, not verified"
    ),
    "abstract": (
        "distributive-lattice membership of the supplied components:"
        " assumed, not checked"
    ),
}


class FieldSpec(Record):
    """Coefficient field for homology: characteristic 0 is Q, p is GF(p)."""

    __slots__ = ("characteristic",)

    def __init__(self, characteristic: int = 0) -> None:
        c = characteristic
        if type(c) is not int:
            raise ValueError(f"characteristic {c!r} is not an int")
        if c >= MAX_CHARACTERISTIC:
            raise ValueError(
                f"characteristic {c} is too large: primality is decided"
                f" exactly only below {MAX_CHARACTERISTIC}"
            )
        if c != 0 and not _is_prime(c):
            raise ValueError(f"{c} is not prime")
        object.__setattr__(self, "characteristic", c)

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(0)

    @classmethod
    def prime_field(cls, p: int) -> "FieldSpec":
        if p == 0:
            raise ValueError("0 is not prime")
        return cls(p)

    @property
    def is_rationals(self) -> bool:
        return self.characteristic == 0

    def label(self) -> str:
        return "rational" if self.is_rationals else f"gf({self.characteristic})"


def multiplicities(
    poset: AnalysisPoset,
    field: FieldSpec | None = None,
    *,
    max_faces: int = DEFAULT_MAX_FACES,
) -> dict[str, dict[int, int]]:
    """Nonzero reduced Betti numbers of the open interval above each element.

    The result maps each id, in node order, to its nonzero dims by
    ascending degree.  The interval excludes the element itself; the
    virtual maximum above everything is never materialized, so a maximal
    element gets the empty complex and multiplicity 1 in degree -1.

    One call, poset.homology(p, max_faces=max_faces) with p the field's
    characteristic, computes them all.
    """
    if field is None:
        field = FieldSpec.rationals()
    homology = poset.homology(field.characteristic, max_faces=max_faces)
    return {node.id: dims for node, dims in zip(poset.nodes, homology)}


class ConditionReport(Record):
    """Status of the three hypotheses behind the bound.

    distributive_lattice is "verified-structural" for monomial input,
    where sums of face primes are again face primes and the closure is
    automatic, and "assumed" otherwise.  strict_heights is None when some
    heights are missing, which blocks certification.
    """

    __slots__ = ("distributive_lattice", "cohen_macaulay", "strict_heights", "notes")

    def __init__(
        self, distributive_lattice: str, cohen_macaulay: bool,
        strict_heights: bool | None, notes: tuple[str, ...] = (),
    ) -> None:
        object.__setattr__(self, "distributive_lattice", distributive_lattice)
        object.__setattr__(self, "cohen_macaulay", cohen_macaulay)
        object.__setattr__(self, "strict_heights", strict_heights)
        object.__setattr__(self, "notes", notes)

    @property
    def certified(self) -> bool:
        return self.cohen_macaulay and self.strict_heights is True


def check_conditions(poset: AnalysisPoset) -> ConditionReport:
    notes = []
    if poset.provenance == "monomial":
        lattice = "verified-structural"
        notes.append(
            "sums of face primes are face primes, so the closure is exact"
        )
    else:
        lattice = "assumed"
    cm = all(node.is_cm for node in poset.nodes)
    if not cm:
        notes.append("some component is not Cohen-Macaulay")
    heights = [node.height for node in poset.nodes]
    if None in heights:
        strict: bool | None = None
        notes.append("heights missing on some elements; not checkable")
    else:
        # at_least[h]: the positions of height h or more
        at_least: dict[int, int] = {}
        for k, h in enumerate(heights):
            at_least[h] = at_least.get(h, 0) | 1 << k
        acc = 0
        for h in sorted(at_least, reverse=True):
            acc = at_least[h] = acc | at_least[h]
        strict = True
        for a, (up, h) in enumerate(zip(poset.up, heights)):
            bad = up & at_least[h] ^ 1 << a
            if bad:
                strict = False
                b = (bad & -bad).bit_length() - 1
                notes.append(
                    f"height does not drop strictly from {poset.nodes[a].id}"
                    f" to {poset.nodes[b].id}"
                )
                break
    return ConditionReport(
        distributive_lattice=lattice,
        cohen_macaulay=cm,
        strict_heights=strict,
        notes=tuple(notes),
    )


def murai_terai_level(
    bounds_by_j: Mapping[int, int | float], ambient_dim: int
) -> tuple[int, bool]:
    """Smallest gap j - bound over j < ambient_dim; capped when vacuous."""
    gaps = [
        j - b
        for j, b in bounds_by_j.items()
        if j < ambient_dim and b != NEG_INF
    ]
    if not gaps:
        return ambient_dim, True
    level = min(gaps)
    assert level >= 0
    return level, False


class BoundEntry(Record):
    """The bound for K^j and the filtration behind it.

    layers maps k to the (element, exponent) pairs of the members of S_j
    of dimension j - k, for the nonempty layers only, k ascending.  The
    bound is j - min(layers), or NEG_INF when there are no layers.
    """

    __slots__ = ("j", "members", "bound", "layers")

    def __init__(
        self, j: int, members: tuple[str, ...], bound: int | float,
        layers: Mapping[int, tuple[tuple[str, int], ...]],
    ) -> None:
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "layers", layers)


class BoundReport(Record):
    """Everything the analysis produces for one poset over one field."""

    __slots__ = (
        "poset", "field", "multiplicities", "entries", "conditions",
        "mt_level", "mt_capped", "assumptions",
    )

    def __init__(
        self, poset: AnalysisPoset, field: FieldSpec,
        multiplicities: Mapping[str, Mapping[int, int]],
        entries: tuple[BoundEntry, ...], conditions: ConditionReport,
        mt_level: int, mt_capped: bool, assumptions: tuple[str, ...] = (),
    ) -> None:
        object.__setattr__(self, "poset", poset)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "multiplicities", multiplicities)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "conditions", conditions)
        object.__setattr__(self, "mt_level", mt_level)
        object.__setattr__(self, "mt_capped", mt_capped)
        object.__setattr__(self, "assumptions", assumptions)


def analyze(
    poset: AnalysisPoset,
    field: FieldSpec | None = None,
    *,
    max_faces: int = DEFAULT_MAX_FACES,
) -> BoundReport:
    """Bounds for K^j, j = 0..max dim, from one pass over the multiplicities."""
    if field is None:
        field = FieldSpec.rationals()
    if not len(poset):
        raise ValueError("cannot analyze an empty poset")
    mults = multiplicities(poset, field, max_faces=max_faces)
    ambient = max(node.dim for node in poset.nodes)
    members: list[list[str]] = [[] for _ in range(ambient + 1)]
    layers: list[dict[int, list[tuple[str, int]]]] = [
        {} for _ in range(ambient + 1)
    ]
    for node in poset.nodes:
        for d, exp in mults[node.id].items():
            j = node.dim + d + 1
            if j <= ambient:
                members[j].append(node.id)
                layers[j].setdefault(d + 1, []).append((node.id, exp))
    entries = []
    for j, by_k in enumerate(layers):
        bound = j - min(by_k) if by_k else NEG_INF
        assert bound <= j
        entries.append(
            BoundEntry(
                j=j,
                members=tuple(members[j]),
                bound=bound,
                layers={k: tuple(by_k[k]) for k in sorted(by_k)},
            )
        )
    mt_level, mt_capped = murai_terai_level(
        {e.j: e.bound for e in entries}, ambient
    )
    assumptions = ASSUMPTION_TEXT.get(poset.provenance)
    return BoundReport(
        poset=poset,
        field=field,
        multiplicities=mults,
        entries=tuple(entries),
        conditions=check_conditions(poset),
        mt_level=mt_level,
        mt_capped=mt_capped,
        assumptions=(assumptions,) if assumptions else (),
    )
