"""Span-profile aggregation: fold trace trees into a flame-graph table.

One trace tree answers "what did *this* query do"; a profile answers
"where does the time go across *all* of them".  :func:`profile_spans`
folds any number of completed span trees by **path** — the tuple of
span names from the root down, the same identity a flame graph stacks
on — and accumulates per path:

* ``calls`` — how many spans closed at this path;
* ``cum_ms`` — cumulative wall-time (the span's whole duration,
  children included);
* ``self_ms`` — time not attributed to any child span (clamped at
  zero, so clock rounding never reports negative work);
* ``errors`` — spans that closed with the error flag set;
* a fixed-bucket latency :class:`~repro.obs.metrics.Histogram` of the
  per-call durations, for per-path p50/p95 quantiles.

Every aggregate is a commutative fold, so the profile is invariant
under permutation of span completion order — ``tests/test_obs_export.py``
pins this property-style.  Input nodes may be live
:class:`~repro.obs.trace.Span` objects or the plain dicts the export
layer round-trips (:func:`repro.obs.export.assemble_traces`), so
profiles work equally on a live tracer and on a JSONL file read back
by the ``python -m repro.obs profile`` CLI.

:func:`render_profile` renders the table sorted by cumulative time,
self time or call count; :func:`folded_stacks` emits the classic
``root;child;leaf <self_ms>`` folded-stack lines external flame-graph
tooling consumes.
"""

from __future__ import annotations

from repro.obs.metrics import DEFAULT_BUCKETS_MS, Histogram


class PathProfile:
    """Accumulated statistics for one span path (see module docstring)."""

    __slots__ = ("path", "calls", "cum_ms", "self_ms", "errors", "latency")

    def __init__(self, path: tuple, bounds: tuple):  # noqa: D107
        self.path = path
        self.calls = 0
        self.cum_ms = 0.0
        self.self_ms = 0.0
        self.errors = 0
        self.latency = Histogram(";".join(path), bounds)

    @property
    def depth(self) -> int:
        """How deep this path sits (1 for roots)."""
        return len(self.path)

    def to_dict(self) -> dict:
        """Plain-dict form (folded path string, stats, p50/p95)."""
        return {
            "path": ";".join(self.path),
            "calls": self.calls,
            "cum_ms": self.cum_ms,
            "self_ms": self.self_ms,
            "errors": self.errors,
            "p50_ms": self.latency.quantile(0.50),
            "p95_ms": self.latency.quantile(0.95),
        }


def _node_fields(node) -> tuple:
    """``(name, duration_ms, children, error)`` for a Span or a dict."""
    if isinstance(node, dict):
        return (
            node.get("name", "?"),
            node.get("duration_ms") or 0.0,
            node.get("children") or (),
            bool(node.get("error")),
        )
    return (node.name, node.duration_ms or 0.0, node.children, node.error)


def _fold(node, prefix: tuple, table: dict, bounds: tuple) -> None:
    name, duration, children, error = _node_fields(node)
    path = prefix + (name,)
    stats = table.get(path)
    if stats is None:
        stats = table[path] = PathProfile(path, bounds)
    stats.calls += 1
    stats.cum_ms += duration
    if error:
        stats.errors += 1
    stats.latency.observe(duration)
    child_ms = 0.0
    for child in children:
        child_ms += _node_fields(child)[1]
        _fold(child, path, table, bounds)
    stats.self_ms += max(0.0, duration - child_ms)


def profile_spans(roots, bounds: tuple = DEFAULT_BUCKETS_MS) -> dict:
    """Fold completed span trees into ``{path tuple: PathProfile}``.

    ``roots`` is any iterable of completed root spans (or exported
    dict trees); pass ``tracer.root_list()`` to profile a live tracer.
    """
    table: dict[tuple, PathProfile] = {}
    for root in roots:
        _fold(root, (), table, bounds)
    return table


_SORT_KEYS = {
    "cum": lambda p: (-p.cum_ms, p.path),
    "self": lambda p: (-p.self_ms, p.path),
    "calls": lambda p: (-p.calls, p.path),
}


def render_profile(table: dict, sort: str = "cum",
                   limit: int | None = None) -> str:
    """The profile as a sorted text report (the CLI's output).

    ``sort`` is ``cum`` (default), ``self`` or ``calls``; ties break
    by path so the report is deterministic.  ``limit`` keeps the top
    rows only.
    """
    if sort not in _SORT_KEYS:
        raise ValueError(f"sort must be one of {sorted(_SORT_KEYS)}, got {sort!r}")
    profiles = sorted(table.values(), key=_SORT_KEYS[sort])
    if limit is not None:
        profiles = profiles[:limit]
    total_spans = sum(p.calls for p in table.values())
    header = (
        f"span profile: {len(table)} paths, {total_spans} spans "
        f"(sorted by {sort})"
    )
    lines = [header,
             f"{'calls':>7}  {'cum(ms)':>10}  {'self(ms)':>10}  "
             f"{'p50(ms)':>8}  {'p95(ms)':>8}  {'err':>4}  path"]
    for profile in profiles:
        p50 = profile.latency.quantile(0.50) or 0.0
        p95 = profile.latency.quantile(0.95) or 0.0
        lines.append(
            f"{profile.calls:>7}  {profile.cum_ms:>10.3f}  "
            f"{profile.self_ms:>10.3f}  {p50:>8.3f}  {p95:>8.3f}  "
            f"{profile.errors:>4}  {';'.join(profile.path)}"
        )
    return "\n".join(lines)


def folded_stacks(table: dict, scale: float = 1000.0) -> list[str]:
    """``path;to;span <weight>`` lines for external flame-graph tools.

    Weights are self-times scaled to integer microseconds by default
    (folded-stack consumers want integers); zero-weight paths are kept
    so the call structure survives even for sub-microsecond spans.
    """
    return [
        f"{';'.join(profile.path)} {int(profile.self_ms * scale)}"
        for profile in sorted(table.values(), key=lambda p: p.path)
    ]
