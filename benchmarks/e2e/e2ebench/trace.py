"""Outside-in layer trace: spans recorded from the benchmark's own files.

:data:`TABLE` is the fixed list of public callables that mark a layer
boundary.  :meth:`LayerTracer.install` replaces each one — on its class, or
in the module namespace where its callers look it up — with a wrapper that
records a span ``[entry, start_ns, end_ns, parent]`` on an in-memory
stack; :meth:`LayerTracer.uninstall` puts the originals back.  Nothing
under ``src/`` is edited and the program's own ``repro.obs`` spans are
not used.

A span's *self time* is its duration minus the part its child spans
cover; a layer's self time is the sum over its spans.  The protocol opens
one root span per op, so the roots' own self time is exactly the wall
time no named layer accounts for.

Counts are taken at the same boundaries, from the public objects the
calls return (``ReformulationResult``, ``ExecutionStats``, ``Delta``,
``MappingIndex.stats_snapshot()``, ``ServingStats``).

``TripleStore.match`` is a generator: a wrapper would time its creation,
not its iteration, so its time stays with the layer that consumes it.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

ROOT = -1  # parent of a root span
_MARK = "__e2e_traced__"


# -- count hooks: (counters, args, result) at the boundary -----------------
def _index_built(counters, args, _result) -> None:
    snapshot = args[0].stats_snapshot()
    counters["index.rules"] += snapshot["rules"]
    counters["index.dead_rules"] += snapshot["dead_rules"]


def _reformulated(counters, _args, result) -> None:
    counters["reformulate.calls"] += 1
    counters["reformulate.nodes_expanded"] += result.nodes_expanded
    counters["reformulate.nodes_pruned"] += result.nodes_pruned
    counters["reformulate.rewritings"] += len(result.rewritings)


def _minimized(counters, args, result) -> None:
    counters["minimize.in"] += len(args[0])
    counters["minimize.kept"] += len(result)


def _executed(counters, _args, result) -> None:
    counters["execute.view_hits"] += result.view_hits
    counters["execute.tuples_shipped"] += result.tuples_shipped


def _sent(counters, args, result) -> None:
    if args[1] != args[2]:  # local transfers are free and unrecorded
        counters["network.messages"] += 1
    counters["network.modeled_ms"] += result


def _sent_batch(counters, args, result) -> None:
    counters["network.messages"] += sum(len(trip) for trip in args[1])
    counters["network.modeled_ms"] += result


def _served(counters, args, _result) -> None:
    counters["serving.stale_refusals"] = args[0].stats.stale_refusals


def _maintained(counters, _args, result) -> None:
    counters["maintain.incremental"] += result[0] == "incremental"


def _replaced(counters, _args, result) -> None:
    counters["replace.delta_triples"] += len(result.added) + len(result.removed)


def _wal_appended(counters, _args, result) -> None:
    counters["wal.bytes"] += result


@dataclass(frozen=True)
class Entry:
    """One wrapped callable: ``module.owner.attr`` (owner ``""`` = module)."""

    layer: str
    key: str  # groups entries into one metric, e.g. "lookup"
    module: str
    owner: str
    attr: str
    hook: Callable | None = None


TABLE: tuple[Entry, ...] = (
    # piazza.mapping_index
    Entry("piazza.mapping_index", "build", "repro.piazza.mapping_index", "MappingIndex", "__init__", _index_built),
    Entry("piazza.mapping_index", "lookup", "repro.piazza.mapping_index", "MappingIndex", "rules_for"),
    Entry("piazza.mapping_index", "lookup", "repro.piazza.mapping_index", "MappingIndex", "reachable"),
    Entry("piazza.mapping_index", "lookup", "repro.piazza.mapping_index", "MappingIndex", "relevant_edb"),
    # piazza.reformulation
    Entry("piazza.reformulation", "reformulate", "repro.piazza.peer", "PDMS", "reformulate", _reformulated),
    Entry("piazza.reformulation", "reformulate", "repro.piazza.peer", "", "reformulate"),
    # piazza.datalog, patched where reformulation/execution/peer look them up
    Entry("piazza.datalog", "minimize", "repro.piazza.reformulation", "", "minimize_union", _minimized),
    Entry("piazza.datalog", "evaluate", "repro.piazza.execution", "", "evaluate_union"),
    Entry("piazza.datalog", "evaluate", "repro.piazza.peer", "", "evaluate_union"),
    # piazza.execution
    Entry("piazza.execution", "execute", "repro.piazza.execution", "DistributedExecutor", "execute", _executed),
    # piazza.network
    Entry("piazza.network", "send", "repro.piazza.network", "SimulatedNetwork", "send", _sent),
    Entry("piazza.network", "send", "repro.piazza.network", "SimulatedNetwork", "round_trip"),
    Entry("piazza.network", "send", "repro.piazza.network", "SimulatedNetwork", "concurrent_round_trips", _sent_batch),
    # piazza.peer
    Entry("piazza.peer", "topology", "repro.piazza.peer", "PDMS", "add_peer"),
    Entry("piazza.peer", "topology", "repro.piazza.peer", "PDMS", "add_storage"),
    Entry("piazza.peer", "topology", "repro.piazza.peer", "PDMS", "add_mapping"),
    Entry("piazza.peer", "update", "repro.piazza.peer", "PDMS", "apply_updategram"),
    # the repository -> peer-relation bridge of a join; nobody's otherwise
    Entry("piazza.peer", "export", "repro.core.revere", "RevereNode", "export_entities"),
    # piazza.serving
    Entry("piazza.serving", "register", "repro.piazza.serving", "ViewServer", "register"),
    Entry("piazza.serving", "serve", "repro.piazza.serving", "ViewServer", "serve", _served),
    # piazza.updates
    Entry("piazza.updates", "maintain", "repro.piazza.updates", "IncrementalView", "maintain", _maintained),
    # runtime
    Entry("runtime", "map", "repro.runtime.pools", "SerialRuntime", "map"),
    # mangrove
    Entry("mangrove.publish", "publish", "repro.mangrove.publish", "Publisher", "publish"),
    Entry("mangrove.apps", "refresh", "repro.mangrove.apps", "InstantApp", "refresh"),
    Entry("mangrove.apps", "search", "repro.mangrove.apps", "SemanticSearch", "search"),
    Entry("mangrove.integrity", "check", "repro.mangrove.integrity", "ConstraintChecker", "violations"),
    # rdf.store
    Entry("rdf.store", "replace", "repro.rdf.store", "TripleStore", "replace_source", _replaced),
    # text.tfidf
    Entry("text.tfidf", "fit", "repro.text.tfidf", "TfIdfVectorizer", "fit"),
    Entry("text.tfidf", "search", "repro.text.tfidf", "CosineIndex", "search"),
    # storage
    Entry("storage", "engine", "repro.storage.log", "LogEngine", "append"),
    Entry("storage", "engine", "repro.storage.log", "LogEngine", "replace"),
    Entry("storage", "engine", "repro.storage.log", "LogEngine", "delete"),
    Entry("storage", "wal", "repro.storage.wal", "WriteAheadLog", "append", _wal_appended),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(entry.layer for entry in TABLE))


def _target(entry: Entry):
    module = importlib.import_module(entry.module)
    return getattr(module, entry.owner) if entry.owner else module


def installed_wrappers() -> list[str]:
    """Names in :data:`TABLE` that currently resolve to a trace wrapper."""
    return [
        f"{entry.module}.{entry.owner}.{entry.attr}"
        for entry in TABLE
        if getattr(getattr(_target(entry), entry.attr), _MARK, False)
    ]


class LayerTracer:
    """In-memory span recorder over :data:`TABLE`."""

    def __init__(self) -> None:
        # span = [entry index (None for an op's root), start_ns, end_ns, parent]
        self.spans: list[list] = []
        self._stack: list[int] = []
        # counts taken inside op roots, and outside them (build, warm round)
        self.op_counts: dict[str, float] = defaultdict(float)
        self.other_counts: dict[str, float] = defaultdict(float)
        self._counts = self.other_counts
        self._originals: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        """Wrap every callable in :data:`TABLE`; undo with :meth:`uninstall`,
        which also restores a partial install after a failed lookup."""
        for index, entry in enumerate(TABLE):
            target = _target(entry)
            original = vars(target)[entry.attr]
            self._originals.append((target, entry.attr, original))
            setattr(target, entry.attr, self._wrap(index, original, entry.hook))

    def uninstall(self) -> None:
        """Restore every original, in reverse order."""
        while self._originals:
            target, attr, original = self._originals.pop()
            setattr(target, attr, original)

    def _wrap(self, index: int, original, hook):
        spans, stack, tracer = self.spans, self._stack, self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = [index, 0, 0, stack[-1] if stack else ROOT]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(tracer._counts, args, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    @contextmanager
    def op(self):
        """The root span of one op; counts inside go to ``op_counts``."""
        self._counts = self.op_counts
        span = [None, 0, 0, ROOT]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        try:
            yield
        finally:
            span[2] = perf_counter_ns()
            self._stack.pop()
            self._counts = self.other_counts

    # -- aggregation -------------------------------------------------------
    def fold(self) -> "Profile":
        """Self time and call counts of the spans under the op roots."""
        spans = self.spans
        covered = [0] * len(spans)
        in_op = [False] * len(spans)
        for position, (head, start, end, parent) in enumerate(spans):
            if parent == ROOT:
                in_op[position] = head is None
            else:  # parents always precede their children
                in_op[position] = in_op[parent]
                covered[parent] += end - start
        profile = Profile()
        for position, (head, start, end, parent) in enumerate(spans):
            if not in_op[position]:
                continue
            self_ns = end - start - covered[position]
            if parent == ROOT:
                profile.root_ns += end - start
                profile.unattributed_ns += self_ns
            else:
                entry = TABLE[head]
                profile.self_ns[(entry.layer, entry.key)] += self_ns
                profile.calls[(entry.layer, entry.key)] += 1
        return profile


class Profile:
    """Folded op spans: per (layer, key) self time and calls."""

    def __init__(self) -> None:
        self.root_ns = 0
        self.unattributed_ns = 0
        self.self_ns: dict[tuple[str, str], int] = defaultdict(int)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)

    def ms(self, layer: str, key: str | None = None) -> float:
        """Self milliseconds of a layer (or of one of its keys)."""
        total = sum(
            ns for (name, k), ns in self.self_ns.items()
            if name == layer and (key is None or k == key)
        )
        return total / 1e6

    def count(self, layer: str, key: str) -> int:
        """Number of spans recorded for ``(layer, key)``."""
        return self.calls.get((layer, key), 0)

    @property
    def unattributed_ratio(self) -> float:
        """Root self time over root time: what no layer accounts for."""
        return self.unattributed_ns / self.root_ns if self.root_ns else 0.0
