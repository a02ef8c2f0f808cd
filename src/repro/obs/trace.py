"""Hierarchical spans (`repro.obs`).

A :class:`Tracer` produces a tree of :class:`Span`\\ s per top-level
operation: the instrumented hot paths open spans with ``with
tracer.span("pdms.reformulate", ...)`` and nesting follows the call
stack automatically (the tracer keeps the current-span stack, so a
per-peer fetch span opened inside an execute span becomes its child
without any plumbing).  One served continuous query therefore yields
one tree covering reformulation → per-peer execution round trips →
view maintenance decisions — the end-to-end visibility ISSUE 6 asks
for.

Cost discipline:

* **Disabled is the default and near-free.**  ``Tracer(enabled=False)``
  (what :func:`repro.obs.default` hands out) returns one shared
  :data:`NOOP_SPAN` from every ``span()`` call — no allocation, no
  clock read.  Benchmark C15 asserts the *enabled* tracer stays within
  5% on the C11/C14 workloads; disabled it is a single attribute test.
* **Spans always close.**  ``Span.__exit__`` stamps the duration and
  pops the stack even when the body raises; the span's ``error`` flag
  is set and ``error_type`` attribute recorded, then the exception
  propagates (``tests/test_obs.py`` pins this).
* **Bounded retention.**  Finished root spans are kept on
  ``Tracer.roots`` up to ``max_roots`` (oldest dropped) so a
  long-running traced process cannot leak its whole history.

Ids: every span carries ``trace_id`` / ``span_id``, assigned *lazily*
— on stamp or export rather than on open — so the id machinery costs
the traced hot loops nothing (the C15 gate).
:meth:`Tracer.current_ids` is the cheap id-only hook the simulated
network uses to stamp messages with the emitting span.  Root retention
is safe under concurrent filing: closing spans file with a GIL-atomic
``deque.append`` and readers retry the copy, so a caller tracing from
several threads of its own may file roots while another thread
renders or exports.

Rendering: :meth:`Tracer.render` draws an indented ASCII tree with
per-span durations and attributes; :meth:`Tracer.to_json` exports the
same trees as plain dicts.  The flat-record JSONL exporter and the
path-folding profiler live in :mod:`repro.obs.export` and
:mod:`repro.obs.profile`.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from itertools import count
from time import perf_counter


class _NoopSpan:
    """The shared do-nothing span the disabled tracer hands out."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False  # never swallow exceptions

    def annotate(self, **attrs) -> None:
        """Ignore attributes (no span is being recorded)."""


#: Singleton returned by ``Tracer.span`` when tracing is disabled.
NOOP_SPAN = _NoopSpan()


class _TracerLocal(threading.local):
    """Per-thread tracer state: the thread's current-span stack."""

    def __init__(self):  # noqa: D107 -- runs once per thread
        self.stack: list = []


class Span:
    """One timed, attributed node in a trace tree.

    Use as a context manager (via :meth:`Tracer.span`); entering pushes
    it onto the tracer's current-span stack, exiting stamps the
    duration, records any exception on the ``error``/``error_type``
    fields, pops the stack, and files root spans on ``Tracer.roots``.
    """

    __slots__ = ("name", "attrs", "error", "trace_id", "span_id",
                 "_tracer", "_children", "_started", "_duration", "_is_root")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):  # noqa: D107
        self.name = name
        self.attrs = attrs
        self.error = False
        # Ids are lazy (the C15 gate rules the open/close path): they
        # are assigned only on stamp or export, and the parent link is
        # recovered from the tree walk.
        self.trace_id: str | None = None
        self.span_id: str | None = None
        self._tracer = tracer
        # Lazily allocated on first child — most spans are leaves, and
        # the hot paths open thousands of them.
        self._children: list[Span] | None = None
        self._started = 0.0
        self._duration: float | None = None
        self._is_root = False

    @property
    def children(self) -> tuple:
        """Child spans in open order (empty for leaves)."""
        return tuple(self._children) if self._children else ()

    @property
    def duration_ms(self) -> float | None:
        """Wall-clock duration in ms; ``None`` while the span is open."""
        return self._duration

    @property
    def closed(self) -> bool:
        """Whether the span has finished (exited its ``with`` block)."""
        return self._duration is not None

    def annotate(self, **attrs) -> None:
        """Attach attributes discovered mid-span (view hits, payloads)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        stack = self._tracer._local.stack
        if stack:
            # Same-thread nesting: the classic call-stack parent.  Ids
            # stay unassigned — the C15 overhead gate rules this path,
            # and most spans are never stamped or exported.
            # ``trace_id`` is recoverable from the stack root and the
            # parent link from the tree walk (see ``Tracer.current_ids``
            # and ``export.span_records``), so nothing is lost.
            parent = stack[-1]
            if parent._children is None:
                parent._children = [self]
            else:
                parent._children.append(self)
        else:
            # A brand-new trace on this thread; its trace_id is
            # assigned on first stamp/export.
            self._is_root = True
        stack.append(self)
        self._started = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._duration = (perf_counter() - self._started) * 1000.0
        if exc_type is not None:
            self.error = True
            self.attrs["error_type"] = exc_type.__name__
        stack = self._tracer._local.stack
        if stack and stack[-1] is self:
            stack.pop()
        if not stack and self._is_root:
            # deque.append is atomic under the GIL (and maxlen evicts
            # atomically), so filing needs no lock even when several
            # threads file roots at once; concurrent *readers* retry
            # instead (see Tracer.root_list).
            self._tracer.roots.append(self)
        return False  # propagate exceptions

    # -- export ------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form of this span's subtree."""
        node: dict = {"name": self.name, "duration_ms": self._duration}
        if self.attrs:
            node["attrs"] = dict(self.attrs)
        if self.error:
            node["error"] = True
        if self._children:
            node["children"] = [child.to_dict() for child in self._children]
        return node

    def render(self, indent: int = 0) -> str:
        """Indented ASCII rendering of this span's subtree."""
        duration = (
            f"{self._duration:.3f} ms" if self._duration is not None else "open"
        )
        attrs = "".join(
            f" {key}={value}" for key, value in self.attrs.items()
        )
        flag = " !ERROR" if self.error else ""
        lines = [f"{'  ' * indent}- {self.name} [{duration}]{attrs}{flag}"]
        lines.extend(child.render(indent + 1) for child in self._children or ())
        return "\n".join(lines)

    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in this subtree (depth-first)."""
        if self.name == name:
            return self
        for child in self._children or ():
            found = child.find(name)
            if found is not None:
                return found
        return None

    def names(self) -> list[str]:
        """Every span name in this subtree, depth-first preorder."""
        collected = [self.name]
        for child in self._children or ():
            collected.extend(child.names())
        return collected


class Tracer:
    """Produces span trees; disabled (the default) it is a no-op.

    **One current-span stack per thread.**  Context propagation is call
    nesting, and call stacks are per-thread: a span opened on another
    thread nests under whatever *that* thread has open, or becomes its
    own root, so concurrent callers cannot corrupt each other's trees
    (``tests/test_runtime.py`` stress-asserts this).  Root filing stays
    a bare GIL-atomic deque append (the C15 bar charges every root for
    it); renderers and exporters read through retrying copies.
    """

    def __init__(self, enabled: bool = False, max_roots: int = 64):  # noqa: D107
        self.enabled = enabled
        self.max_roots = max_roots
        # deque(maxlen=...) makes root filing O(1) with automatic
        # oldest-first eviction — no per-span list shifting.
        self.roots: deque[Span] = deque(maxlen=max_roots)
        self._local = _TracerLocal()
        # itertools.count.__next__ is atomic under the GIL, so id
        # assignment needs no lock even across threads.
        self._span_ids = count(1)
        self._trace_ids = count(1)

    def _next_span_id(self) -> str:
        return f"s{next(self._span_ids)}"

    def _next_trace_id(self) -> str:
        return f"t{next(self._trace_ids)}"

    def span(self, name: str, **attrs):
        """Open a span (context manager); shared no-op when disabled."""
        if not self.enabled:
            return NOOP_SPAN
        return Span(self, name, attrs)

    def current(self) -> Span | None:
        """The innermost open span, if any."""
        stack = self._local.stack
        return stack[-1] if stack else None

    # -- ids ---------------------------------------------------------------
    def _ensure_ids(self, span: Span, stack: list) -> None:
        """Assign ``span``'s lazy ids (spans skip them on open)."""
        if span.span_id is None:
            span.span_id = self._next_span_id()
        if span.trace_id is None:
            root = stack[0]
            if root.trace_id is None:
                root.trace_id = self._next_trace_id()
            span.trace_id = root.trace_id

    def current_ids(self) -> tuple[str, str] | None:
        """``(trace_id, span_id)`` of the ambient span, id-only.

        The cheap per-event hook (no object allocation beyond the
        tuple) the simulated network uses to stamp every message with
        the span that emitted it.
        """
        stack = self._local.stack
        if not stack:
            return None
        span = stack[-1]
        if span.span_id is None or span.trace_id is None:
            self._ensure_ids(span, stack)
        return span.trace_id, span.span_id

    # -- root retention ------------------------------------------------------
    # Filing is a bare (GIL-atomic) deque.append on the hot close path;
    # readers absorb the concurrency instead.  Copying a deque while
    # another thread appends raises RuntimeError, so the readers retry —
    # the copy is at most ``max_roots`` elements, so a retry wins the
    # race after a step or two (tests/test_runtime.py hammers this).

    def last_root(self) -> Span | None:
        """The most recently finished top-level span."""
        try:
            return self.roots[-1]
        except IndexError:
            return None

    def root_list(self) -> list[Span]:
        """A consistent copy of the retained roots, oldest first."""
        while True:
            try:
                return list(self.roots)
            except RuntimeError:  # a root was filed mid-copy; retry
                continue

    def clear(self) -> None:
        """Drop retained root spans (open spans are unaffected)."""
        self.roots.clear()

    # -- export ------------------------------------------------------------
    def render(self, span: Span | None = None) -> str:
        """ASCII tree of ``span`` (default: the last finished root)."""
        span = span or self.last_root()
        if span is None:
            return "(no finished traces)"
        return span.render()

    def to_json(self, indent: int | None = None) -> str:
        """All retained root trees as JSON."""
        return json.dumps(
            [root.to_dict() for root in self.root_list()], indent=indent
        )
