"""Spans and counts around the program's layers, recorded from outside it.

``Hooks.install`` replaces each target function with a wrapper at the name
its callers look up (``defreg.bounds.order_complex``, not
``defreg.posets.order_complex``), so the program itself is unchanged.
Timed targets record a span (name, start, end, parent); the hot callbacks
of the sum closure are only counted, which keeps the overhead down, so
their time stays in the self time of ``join_closure``.  A target missing
from the program is reported as absent instead of failing the run.

Spans are kept in memory and reduced when a round ends: a span's self time
is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter

# (module, attribute, span name); methods are "Class.method".
TIMED = (
    ("defreg.cli", "parse_graph_file", "cli.parse"),
    ("defreg.cli", "parse_poset_doc", "cli.parse"),
    ("defreg.cli", "parse_monomial", "cli.parse"),
    ("defreg.cli", "render_text", "cli.render"),
    ("defreg.cli", "render_json", "cli.render"),
    ("defreg.cli", "build_Q_poset", "cli.build"),
    ("defreg.cli", "build_monomial_poset", "cli.build"),
    ("defreg.cli", "analyze", "bounds.report"),
    ("defreg.monomial", "minimal_primes", "monomial.minimal_primes"),
    ("defreg.monomial", "join_closure", "posets.closure"),
    ("defreg.binomial_edge", "minimal_primes_graph", "binomial_edge.minimal_primes"),
    ("defreg.binomial_edge", "decompose", "binomial_edge.decompose"),
    ("defreg.binomial_edge", "join_closure", "posets.closure"),
    ("defreg.bounds", "multiplicities", "bounds.multiplicities"),
    ("defreg.bounds", "check_conditions", "bounds.check_conditions"),
    ("defreg.bounds", "order_complex", "posets.chains"),
    ("defreg.bounds", "reduced_homology", "complexes.homology"),
    ("defreg.complexes", "boundary_matrix", "complexes.boundary"),
    ("defreg.complexes", "rank", "exactfield.rank"),
    ("defreg.posets", "AnalysisPoset.__init__", "posets.order_init"),
    ("defreg.posets", "AnalysisPoset.open_interval_above", "posets.interval"),
    ("defreg.complexes", "SimplicialComplex.__init__", "complexes.complex_init"),
)

# (module, attribute, count name): called too often to time.
COUNTED = (
    ("defreg.monomial", "face_sum", "monomial.sums"),
    ("defreg.binomial_edge", "sum_ideals", "binomial_edge.sums"),
    ("defreg.binomial_edge", "as_prime", "binomial_edge.prime_sums"),
    ("defreg.binomial_edge", "contains", "binomial_edge.contains_calls"),
)

ROOT = "cli.main"  # one root span per input: the whole main(argv) call


def _cells(matrix) -> int:
    return matrix.rows * matrix.cols


def _observe(span: str, counts: Counter, args, out) -> None:
    """Sizes taken from the arguments and results of one timed call."""
    if span == "monomial.minimal_primes":
        counts["monomial.minimal_primes"] += len(out)
    elif span == "binomial_edge.minimal_primes":
        counts["binomial_edge.minimal_primes"] += len(out)
    elif span == "binomial_edge.decompose":
        counts["binomial_edge.decompositions"] += 1
        counts["binomial_edge.decompose_pieces"] += len(out)
    elif span == "posets.closure":
        counts["posets.elements"] += len(out)
        counts["posets.generators"] += len(args[0])
    elif span == "posets.order_init":
        counts["posets.order_init_calls"] += 1
    elif span == "posets.chains":
        counts["posets.faces"] += len(out)
        counts["posets.max_interval_faces"] = max(
            counts["posets.max_interval_faces"], len(out))
    elif span == "complexes.boundary":
        counts["complexes.boundary_cells"] += _cells(out)
    elif span.startswith("exactfield.rank"):
        counts["exactfield.rank_calls"] += 1
        counts["exactfield.rank_cells"] += _cells(args[0])
        counts["exactfield.rank_sum"] += out


class Recorder:
    """Spans and counts of one traced round."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.broken: set[str] = set()

    def open(self, name: str) -> int:
        k = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(k)
        self.starts.append(perf_counter())
        return k

    def close(self, k: int) -> None:
        self.ends[k] = perf_counter()
        self.stack.pop()

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.names)
        for k, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[k] - self.starts[k]
        out: dict[str, float] = {}
        for k, name in enumerate(self.names):
            out[name] = out.get(name, 0.0) + self.ends[k] - self.starts[k] - child[k]
        return out


def _resolve(module: str, attr: str):
    """(owner, name) of a hook target, or None when it no longer exists."""
    try:
        owner = importlib.import_module(module)
    except ModuleNotFoundError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


class Hooks:
    """Wrappers around the targets above, installed only for traced rounds."""

    def __init__(self) -> None:
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._targets = []
        for module, attr, span in TIMED + COUNTED:
            found = _resolve(module, attr)
            if found is None:
                self.absent.append(f"{module}.{attr}")
            else:
                self._targets.append((found, span, (module, attr, span) in COUNTED))

    def install(self) -> Recorder:
        """Wrap every target; the returned recorder collects one round."""
        rec = Recorder()
        for (owner, name), span, counted in self._targets:
            fn = getattr(owner, name)
            self._saved.append((owner, name, fn))
            wrap = _counted if counted else _timed
            setattr(owner, name, wrap(rec, fn, span))
        return rec

    def uninstall(self) -> None:
        while self._saved:
            owner, name, fn = self._saved.pop()
            setattr(owner, name, fn)


def _counted(rec: Recorder, fn, name: str):
    counts = rec.counts

    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def _timed(rec: Recorder, fn, name: str):
    def wrapper(*args, **kwargs):
        span = name
        if name == "exactfield.rank":
            field = args[1] if len(args) > 1 else kwargs.get("field")
            span = "exactfield.rank_q" if getattr(field, "is_rationals", True) \
                else "exactfield.rank_gfp"
        k = rec.open(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.close(k)
        try:
            _observe(span, rec.counts, args, out)
        except (AttributeError, TypeError, IndexError):
            rec.broken.add(span)
        return out

    return wrapper


# Per-layer metrics: name -> (unit, where the value comes from).  "self:"
# sums the self time of the listed spans; "count:" reads a counter.
LAYER_METRICS = {
    "cli.parse_s": ("s", "self:cli.parse"),
    "cli.render_s": ("s", "self:cli.render"),
    "cli.output_bytes": ("bytes", "count:cli.output_bytes"),
    "monomial.minimal_primes_s": ("s", "self:monomial.minimal_primes"),
    "monomial.minimal_primes": ("count", "count:monomial.minimal_primes"),
    "monomial.sums": ("count", "count:monomial.sums"),
    "binomial_edge.minimal_primes_s": ("s", "self:binomial_edge.minimal_primes"),
    "binomial_edge.minimal_primes": ("count", "count:binomial_edge.minimal_primes"),
    "binomial_edge.sums": ("count", "count:binomial_edge.sums"),
    "binomial_edge.prime_sums": ("count", "count:binomial_edge.prime_sums"),
    "binomial_edge.decompositions": ("count", "count:binomial_edge.decompositions"),
    "binomial_edge.decompose_pieces": ("count", "count:binomial_edge.decompose_pieces"),
    "binomial_edge.decompose_s": ("s", "self:binomial_edge.decompose"),
    "binomial_edge.contains_calls": ("count", "count:binomial_edge.contains_calls"),
    "posets.closure_s": ("s", "self:posets.closure"),
    "posets.elements": ("count", "count:posets.elements"),
    "posets.order_init_s": ("s", "self:posets.order_init"),
    "posets.order_init_calls": ("count", "count:posets.order_init_calls"),
    "posets.interval_s": ("s", "self:posets.interval"),
    "posets.chains_s": ("s", "self:posets.chains"),
    "posets.faces": ("count", "count:posets.faces"),
    "posets.max_interval_faces": ("count", "count:posets.max_interval_faces"),
    "complexes.complex_init_s": ("s", "self:complexes.complex_init"),
    "complexes.boundary_s": ("s", "self:complexes.boundary"),
    "complexes.boundary_cells": ("count", "count:complexes.boundary_cells"),
    "complexes.homology_s": ("s", "self:complexes.homology"),
    "exactfield.rank_q_s": ("s", "self:exactfield.rank_q"),
    "exactfield.rank_gfp_s": ("s", "self:exactfield.rank_gfp"),
    "exactfield.rank_calls": ("count", "count:exactfield.rank_calls"),
    "exactfield.rank_cells": ("count", "count:exactfield.rank_cells"),
    "exactfield.rank_sum": ("count", "count:exactfield.rank_sum"),
    "bounds.multiplicities_s": ("s", "self:bounds.multiplicities"),
    "bounds.check_conditions_s": ("s", "self:bounds.check_conditions"),
    "bounds.report_s": ("s", "self:bounds.report"),
}


def round_summary(rec: Recorder, output_bytes: int) -> dict:
    """What one traced round reports: self times by span, and counts."""
    counts = dict(rec.counts)
    counts["cli.output_bytes"] = output_bytes
    return {"self": rec.self_times(), "counts": counts, "broken": sorted(rec.broken)}
