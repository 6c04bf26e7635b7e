"""Regularity bounds for deficiency modules, read off a component poset.

Everything here consumes an AnalysisPoset whose nodes carry dimensions.
For each element q the open interval above q (excluding q, with the
virtual top left implicit) has an order complex; the multiplicity of q in
degree d is the reduced homology dimension of that complex in degree d.

For a cohomological degree j, the contributing set S_j collects the
elements p with dim p <= j and nonzero multiplicity in degree
j - dim p - 1.  The bound for K^j is the largest dimension over S_j,
never more than j itself, and minus infinity when S_j is empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

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

    def mult(self, pid: str, degree: int) -> int:
        return self.profiles[pid].dim(degree)


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
class SJSet:
    """The elements contributing to the bound for K^j."""

    j: int
    members: tuple[str, ...]


def s_set(poset: AnalysisPoset, table: MultiplicityTable, j: int) -> SJSet:
    members = []
    for node in poset.nodes:
        if node.dim <= j and table.mult(node.id, j - node.dim - 1) != 0:
            members.append(node.id)
    return SJSet(j=j, members=tuple(members))


def regularity_bound(
    poset: AnalysisPoset, sj: SJSet
) -> tuple[ExtendedInt, int]:
    """(bound, cap) for K^j: max dimension over S_j, at most j."""
    bound = max((poset.node(pid).dim for pid in sj.members), default=NEG_INF)
    assert bound is NEG_INF or bound <= sj.j
    return bound, sj.j


@dataclass(frozen=True)
class FiltrationLayer:
    """Layer k of the filtration of K^j: components of dimension j - k."""

    j: int
    k: int
    summands: tuple[tuple[str, int], ...]


def filtration_report(
    poset: AnalysisPoset, table: MultiplicityTable, j: int
) -> tuple[FiltrationLayer, ...]:
    """Layers 0..j; layer k lists (element, exponent) with exponent > 0."""
    layers = []
    for k in range(j + 1):
        summands = []
        for node in poset.nodes:
            if node.dim != j - k:
                continue
            exp = table.mult(node.id, j - node.dim - 1)
            if exp > 0:
                summands.append((node.id, exp))
        layers.append(FiltrationLayer(j=j, k=k, summands=tuple(summands)))
    return tuple(layers)


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
    heights = {node.id: node.height for node in poset.nodes}
    if any(h is None for h in heights.values()):
        strict: Optional[bool] = None
        notes.append("heights missing on some elements; not checkable")
    else:
        strict = True
        for a in poset.ids():
            b = next(
                (b for b in poset.strictly_above(a) if heights[a] <= heights[b]),
                None,
            )
            if b is not None:
                strict = False
                notes.append(f"height does not drop strictly from {a} to {b}")
                break
    return ConditionReport(
        distributive_lattice=lattice,
        cohen_macaulay=cm,
        strict_heights=strict,
        notes=tuple(notes),
    )


def nonvanishing_witnesses(poset: AnalysisPoset, j: int) -> tuple[str, ...]:
    """Maximal elements of dimension j: they force K^j itself nonzero."""
    return tuple(
        node.id
        for node in poset.nodes
        if node.dim == j and poset.is_maximal(node.id)
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
    j: int
    members: tuple[str, ...]
    bound: ExtendedInt
    cap: int
    certified: bool
    witnesses: Optional[tuple[str, ...]] = None
    layers: Optional[tuple[FiltrationLayer, ...]] = None


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
    js: Optional[Sequence[int]] = None,
    include_layers: bool = False,
    include_witnesses: bool = False,
    max_faces: int = DEFAULT_MAX_FACES,
) -> BoundReport:
    """Bounds for K^j over the requested degrees (default: 0..max dim)."""
    if field is None:
        field = FieldSpec.rationals()
    if not len(poset):
        raise ValueError("cannot analyze an empty poset")
    table = multiplicities(poset, field, max_faces=max_faces)
    ambient = max(node.dim for node in poset.nodes)
    conditions = check_conditions(poset)

    def entry(j: int) -> BoundEntry:
        sj = s_set(poset, table, j)
        bound, cap = regularity_bound(poset, sj)
        return BoundEntry(
            j=j,
            members=sj.members,
            bound=bound,
            cap=cap,
            certified=conditions.certified,
            witnesses=(
                nonvanishing_witnesses(poset, j) if include_witnesses else None
            ),
            layers=(
                filtration_report(poset, table, j) if include_layers else None
            ),
        )

    entries_by_j = {j: entry(j) for j in range(ambient + 1)}
    mt_level, mt_capped = murai_terai_level(
        {j: e.bound for j, e in entries_by_j.items()}, ambient
    )
    wanted = entries_by_j if js is None else js
    entries = [entries_by_j[j] if j in entries_by_j else entry(j) for j in wanted]
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
