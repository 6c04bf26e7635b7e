"""Regularity bounds for deficiency modules, read off a component poset.

Everything here consumes an AnalysisPoset whose nodes carry dimensions.
For each element q the open interval above q (excluding q, with the
virtual top left implicit) has an order complex; the multiplicity of q in
degree d is the reduced homology dimension of that complex in degree d.

For a cohomological degree j, the contributing set S_j collects the
elements p with dim p <= j and nonzero multiplicity in degree
j - dim p - 1.  The bound for K^j is the largest dimension over S_j,
never more than j itself, and minus infinity when S_j is empty.

analyze reads every degree off the table in one pass, in node order: an
element p with multiplicity m in degree d lies in S_j for
j = dim p + d + 1, where it enters layer d + 1 of the filtration of K^j
with exponent m.  Layer 0 holds the maximal elements of dimension j,
which witness that K^j itself is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .complexes import DEFAULT_MAX_FACES, HomologyProfile, homology_of_faces
from .exactfield import FieldSpec
from .posets import AnalysisPoset
from .ultrametric import NEG_INF, ExtendedInt

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


@dataclass(frozen=True)
class MultiplicityTable:
    """Reduced homology of every open interval, one profile per element."""

    field: FieldSpec
    profiles: Mapping[str, HomologyProfile]


def multiplicities(
    poset: AnalysisPoset,
    field: Optional[FieldSpec] = None,
    *,
    max_faces: int = DEFAULT_MAX_FACES,
) -> MultiplicityTable:
    """Homology of the open interval above each element.

    The interval excludes the element itself; the virtual maximum above
    everything is never materialized, so a maximal element gets the empty
    complex and multiplicity 1 in degree -1.
    """
    if field is None:
        field = FieldSpec.rationals()
    profiles = {}
    for node in poset.nodes:
        chains = poset.interval_chains(node.id, max_faces=max_faces)
        profile = homology_of_faces(chains, field)
        assert (profile.dim(-1) != 0) == poset.is_maximal(node.id)
        profiles[node.id] = profile
    return MultiplicityTable(field=field, profiles=profiles)


@dataclass(frozen=True)
class ConditionReport:
    """Status of the three hypotheses behind the bound.

    distributive_lattice is "verified-structural" for monomial input,
    where sums of face primes are again face primes and the closure is
    automatic, and "assumed" otherwise.  strict_heights is None when some
    heights are missing, which blocks certification.
    """

    distributive_lattice: str
    cohen_macaulay: bool
    strict_heights: Optional[bool]
    notes: tuple[str, ...] = ()

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
        strict: Optional[bool] = None
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
    bounds_by_j: Mapping[int, ExtendedInt], ambient_dim: int
) -> tuple[int, bool]:
    """Smallest gap j - bound over j < ambient_dim; capped when vacuous."""
    gaps = [
        j - b
        for j, b in bounds_by_j.items()
        if j < ambient_dim and b is not NEG_INF
    ]
    if not gaps:
        return ambient_dim, True
    level = min(gaps)
    assert level >= 0
    return level, False


@dataclass(frozen=True)
class BoundEntry:
    """The bound for K^j and the filtration behind it.

    layers[k] lists (element, exponent) for the members of S_j of
    dimension j - k, and witnesses are the ids in layers[0].
    """

    j: int
    members: tuple[str, ...]
    bound: ExtendedInt
    cap: int
    certified: bool
    witnesses: tuple[str, ...]
    layers: tuple[tuple[tuple[str, int], ...], ...]


@dataclass(frozen=True)
class BoundReport:
    """Everything the analysis produces for one poset over one field."""

    poset: AnalysisPoset
    field: FieldSpec
    table: MultiplicityTable
    entries: tuple[BoundEntry, ...]
    conditions: ConditionReport
    ambient_dim: int
    mt_level: int
    mt_capped: bool
    assumptions: tuple[str, ...] = ()


def analyze(
    poset: AnalysisPoset,
    field: Optional[FieldSpec] = None,
    *,
    max_faces: int = DEFAULT_MAX_FACES,
) -> BoundReport:
    """Bounds for K^j, j = 0..max dim, from one pass over the multiplicities."""
    if field is None:
        field = FieldSpec.rationals()
    if not len(poset):
        raise ValueError("cannot analyze an empty poset")
    table = multiplicities(poset, field, max_faces=max_faces)
    ambient = max(node.dim for node in poset.nodes)
    conditions = check_conditions(poset)
    members: list[list[str]] = [[] for _ in range(ambient + 1)]
    layers: list[list[list[tuple[str, int]]]] = [
        [[] for _ in range(j + 1)] for j in range(ambient + 1)
    ]
    for node in poset.nodes:
        for d, exp in table.profiles[node.id].dims.items():
            j = node.dim + d + 1
            if exp and j <= ambient:
                members[j].append(node.id)
                layers[j][d + 1].append((node.id, exp))
    entries = []
    for j, by_k in enumerate(layers):
        bound = next((j - k for k, layer in enumerate(by_k) if layer), NEG_INF)
        assert bound is NEG_INF or bound <= j
        entries.append(
            BoundEntry(
                j=j,
                members=tuple(members[j]),
                bound=bound,
                cap=j,
                certified=conditions.certified,
                witnesses=tuple(pid for pid, _ in by_k[0]),
                layers=tuple(map(tuple, by_k)),
            )
        )
    mt_level, mt_capped = murai_terai_level(
        {e.j: e.bound for e in entries}, ambient
    )
    assumptions = ASSUMPTION_TEXT.get(poset.provenance)
    return BoundReport(
        poset=poset,
        field=field,
        table=table,
        entries=tuple(entries),
        conditions=conditions,
        ambient_dim=ambient,
        mt_level=mt_level,
        mt_capped=mt_capped,
        assumptions=(assumptions,) if assumptions else (),
    )
