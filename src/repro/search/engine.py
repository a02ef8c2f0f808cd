"""CorpusSearchEngine: the retrieval substrate under the corpus tools.

Ties the pieces of :mod:`repro.search` together over one
:class:`~repro.corpus.stats.BasicStatistics` instance:

* a :class:`~repro.search.vectors.SparseVectorStore` over term
  co-occurrence profiles (powers ``similar_names`` — top-k cosine with
  posting-list candidate pruning instead of a vocabulary scan);
* an :class:`~repro.search.postings.InvertedIndex` from attribute terms
  to relation-signature rows (powers ``relation_name_for`` — only
  signatures sharing an attribute can clear the 0.5 Jaccard bar);
* an inverted index from relation concepts to schemas (powers the
  DesignAdvisor's popularity preference);
* a :class:`~repro.search.vectors.SparseVectorStore` over whole-schema
  name/instance term profiles (powers ``similar_schemas`` — the
  matching pipeline's candidate blocking);
* a :class:`~repro.search.dense.DenseVectorStore` of seeded
  random-projection embeddings over the same schema profiles, plus an
  exact signature index — together with the sparse store these form
  the **tiered router** (``search_schemas``): exact structured lookup
  → sparse top-k → corpus-expanded dense scoring, fused by
  reciprocal-rank fusion (:mod:`repro.search.fusion`), each tier
  selectable per query and measured by the IR harness in
  :mod:`repro.eval`;
* an epoch-validated :class:`~repro.search.cache.LRUQueryCache` over
  all of the above (retrieval strategy is part of every cache key).

The engine *pulls* from the statistics lazily: nothing is indexed until
the first query, and after incremental schema adds only the dirty terms
and new rows are re-indexed (``BasicStatistics.drain_index_updates`` is
the producer side of that protocol).  Every ranked result is bitwise
identical to the brute-force scans it replaces — see the parity notes
in :mod:`repro.search.vectors` and the ``*_brute_force`` references in
:mod:`repro.corpus.stats`.
"""

from __future__ import annotations

import threading
import time
import typing
from collections import Counter

from repro import obs as _obs
from repro.search.cache import LRUQueryCache
from repro.search.dense import DEFAULT_DENSE_DIM, DEFAULT_DENSE_SEED, DenseVectorStore
from repro.search.fusion import DEFAULT_RRF_K, reciprocal_rank_fusion
from repro.search.postings import InvertedIndex
from repro.search.vectors import SparseVectorStore

if typing.TYPE_CHECKING:  # circularity guard: stats owns its engine
    from repro.corpus.stats import BasicStatistics

#: The retrieval strategies ``search_schemas`` routes between.
STRATEGIES = ("exact", "sparse", "dense", "hybrid")


class CorpusSearchEngine:
    """Indexed retrieval over one corpus's statistics.

    Obtain via ``BasicStatistics.engine`` — the statistics object owns
    exactly one engine, and the incremental-update drain protocol
    assumes a single consumer.
    """

    def __init__(
        self,
        stats: "BasicStatistics",
        cache_size: int = 1024,
        obs: "_obs.Observability | None" = None,
        dense_dim: int = DEFAULT_DENSE_DIM,
        dense_seed: str = DEFAULT_DENSE_SEED,
        expansion_terms: int = 3,
        expansion_weight: float = 0.1,
        rrf_k: int = DEFAULT_RRF_K,
        sparse_weight: int = 2,
        dense_weight: int = 1,
    ):  # noqa: D107
        self.stats = stats
        self.obs = obs or _obs.default()
        self.cache = LRUQueryCache(cache_size, obs=self.obs)
        metrics = self.obs.metrics
        self._m_queries = metrics.counter("search.queries")
        self._m_syncs = metrics.counter("search.syncs")
        # Per-tier routing counters + per-strategy latency histograms:
        # the router's traffic split and cost show up in explain()
        # alongside the cache and reformulation counters.
        self._m_route = {
            strategy: metrics.counter(f"search.route.{strategy}")
            for strategy in STRATEGIES
        }
        self._m_exact_hits = metrics.counter("search.route.exact_hits")
        self._m_strategy_ms = {
            strategy: metrics.histogram(f"search.{strategy}.ms")
            for strategy in STRATEGIES
        }
        self._terms = SparseVectorStore()
        self._signatures = InvertedIndex()
        self._signature_rows: list[tuple[str, frozenset]] = []
        self._schema_names = InvertedIndex()
        self._schema_relation_terms: dict[str, frozenset] = {}
        self._schema_profiles = SparseVectorStore()
        # Dense tier: seeded random-projection embeddings of the same
        # schema profiles the sparse store indexes.  The named seed is
        # part of the engine's identity — see repro.search.dense for
        # the determinism contract.
        self.dense_seed = dense_seed
        self._schema_dense = DenseVectorStore(dense_dim, dense_seed)
        # Exact tier: structural signature (relation term + attribute
        # set per relation) -> schemas, for the "this exact design is
        # already in the corpus" hit.
        self._signature_schemas: dict[frozenset, list[str]] = {}
        self.expansion_terms = expansion_terms
        self.expansion_weight = expansion_weight
        self.rrf_k = rrf_k
        # Hybrid fusion votes: sparse gets the heavier vote because
        # token overlap, when present, is the stronger signal; dense
        # still decides queries where sparse has little to go on.
        self.sparse_weight = sparse_weight
        self.dense_weight = dense_weight
        self._synced_version = -1
        # Callers on several threads may query one shared engine; the
        # lazy catch-up must not run twice nor expose half-built
        # indexes to a reader that raced past the version check.
        self._sync_lock = threading.Lock()
        # Constant per engine (one stats instance, one options object);
        # kept in cache keys so entries can never collide across engines
        # that might one day share a cache.
        self._options_fingerprint = stats.options.fingerprint()

    # -- synchronisation ------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Statistics version this engine last indexed (cache token)."""
        return self._synced_version

    def sync(self) -> None:
        """Catch the indexes up with the statistics, incrementally.

        First call builds everything (the statistics build lazily too,
        so corpus ingestion costs nothing until a query arrives); later
        calls only re-index terms whose co-occurrence rows changed and
        append the new signature/schema rows.
        """
        stats = self.stats
        with self._sync_lock:
            stats.ensure_built()
            if self._synced_version == stats.version:
                return
            self._m_syncs.inc()
            dirty_terms, new_rows, new_schemas = stats.drain_index_updates()
            for term in dirty_terms:
                self._terms.put(term, stats.profile_row_for(term))
            for name, signature in new_rows:
                self._signature_rows.append((name, signature))
                self._signatures.add(len(self._signature_rows) - 1, signature)
            for name, relation_terms, signature, profile in new_schemas:
                self._schema_relation_terms[name] = relation_terms
                self._schema_names.add(name, relation_terms)
                self._schema_profiles.put(name, profile)
                self._schema_dense.put(name, profile)
                self._signature_schemas.setdefault(signature, []).append(name)
            self._synced_version = stats.version

    def _fingerprint(self) -> tuple:
        return self._options_fingerprint

    # -- similar names --------------------------------------------------------
    def similar_terms(self, term: str, limit: int = 5) -> list[tuple[str, float]]:
        """Top ``limit`` terms by co-occurrence-profile cosine.

        ``term`` must already be normalized (``BasicStatistics``
        normalizes before routing here).  Results match the brute-force
        vocabulary scan exactly, ties broken by term.
        """
        self.sync()
        self._m_queries.inc()
        key = ("similar", term, limit, self._fingerprint())
        cached = self.cache.get(key, self._synced_version)
        if cached is not None:
            return list(cached)
        vector = self._terms.vector(term)
        if vector is None:
            # Not a vocabulary term, but its alias row may still exist
            # (brute force scores any term through its alias profile).
            vector = self.stats.profile_row_for(term)
        if not vector:
            result: list[tuple[str, float]] = []
        else:
            result = self._terms.top_k(vector, limit, exclude=(term,))
        self.cache.put(key, self._synced_version, result)
        return list(result)

    # -- relation names for an attribute set ----------------------------------
    def relation_names_for(self, attributes: frozenset) -> list[tuple[str, int]]:
        """Corpus relation names used for similar attribute sets.

        Candidate signatures come from the attribute-term postings; the
        Jaccard >= 0.5 vote and the ``Counter.most_common`` tie order
        (first corpus appearance) replicate the brute-force scan.
        """
        self.sync()
        self._m_queries.inc()
        key = ("relation-names", tuple(sorted(attributes)), self._fingerprint())
        cached = self.cache.get(key, self._synced_version)
        if cached is not None:
            return list(cached)
        votes: Counter = Counter()
        if attributes:
            # Ascending row order preserves first-seen Counter insertion,
            # hence most_common tie-breaking, exactly as the full scan.
            for row in sorted(self._signatures.candidates(attributes)):
                relation_term, signature = self._signature_rows[row]
                overlap = len(attributes & signature) / len(attributes | signature)
                if overlap >= 0.5:
                    votes[relation_term] += 1
        result = votes.most_common()
        self.cache.put(key, self._synced_version, result)
        return list(result)

    # -- schema similarity ----------------------------------------------------
    def similar_schemas(self, profile, limit: int = 5, exclude=()) -> list[tuple[str, float]]:
        """Top ``limit`` corpus schemas by term-profile cosine.

        ``profile`` is a normalized term -> weight mapping (see
        ``BasicStatistics.schema_profile``).  Uncached: query profiles
        are ad-hoc vectors (one per incoming schema) and rarely repeat.
        Only schemas sharing at least one posting term with the query
        are scored — the matching pipeline's candidate blocking.
        """
        self.sync()
        self._m_queries.inc()
        return self._schema_profiles.top_k(profile, limit, exclude=exclude)

    # -- tiered schema retrieval ----------------------------------------------
    def dense_vector(self, schema_name: str):
        """The dense embedding of one indexed schema (None if absent)."""
        self.sync()
        return self._schema_dense.vector(schema_name)

    def _expand_profile(self, profile) -> dict:
        """Corpus-statistics query expansion of a schema profile.

        For every profile term that has a co-occurrence row (i.e. is a
        corpus attribute term), the top ``expansion_terms`` similar
        names are folded in at ``expansion_weight * weight * cosine``.
        This is the paper's bet made operational: the corpus knows that
        "teacher" keeps the same company as "instructor", so a query
        using one can reach schemas using the other even with zero
        token overlap.  The expanded vector is high-dimensional — it is
        scored in the dense tier, where dimensionality is fixed.
        """
        expanded = dict(profile)
        if not self.expansion_terms or self.expansion_weight <= 0.0:
            return expanded
        for term, weight in profile.items():
            row = self._terms.vector(term)
            if not row:
                continue
            for similar, score in self._terms.top_k(
                row, self.expansion_terms, exclude=(term,)
            ):
                expanded[similar] = (
                    expanded.get(similar, 0.0)
                    + self.expansion_weight * weight * score
                )
        return expanded

    def _exact_matches(self, signature: frozenset | None, exclude) -> list[str]:
        """Schemas whose structural signature equals the query's."""
        if not signature:
            return []
        names = self._signature_schemas.get(frozenset(signature), ())
        excluded = set(exclude)
        return sorted(name for name in names if name not in excluded)

    def search_schemas(
        self,
        profile,
        limit: int = 5,
        strategy: str = "hybrid",
        exclude=(),
        signature: frozenset | None = None,
    ) -> list[tuple[str, float]]:
        """Tiered top-``limit`` schema retrieval.

        ``strategy`` selects the tier stack per query:

        * ``"exact"`` — structured lookup only: schemas whose
          structural signature (``BasicStatistics.schema_signature``)
          equals ``signature`` (score 1.0 each);
        * ``"sparse"`` — the token-overlap cosine tier (identical
          ranking to :meth:`similar_schemas`);
        * ``"dense"`` — expanded-query embedding cosine over the dense
          store (full fixed-dim scan: with ``dim`` columns the whole
          store *is* the candidate set, so the scan and the rerank are
          the same pass);
        * ``"hybrid"`` — exact hits pinned first, then reciprocal-rank
          fusion of the sparse and dense runs (depth ``3 * limit``).

        Scores are tier-native (cosines for sparse/dense, RRF sums for
        the fused tail) — comparable within one result list, not across
        strategies.  Results are cached with the strategy in the key,
        so switching strategies for the same profile can never serve
        the other tier's ranking.
        """
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
        self.sync()
        self._m_queries.inc()
        self._m_route[strategy].inc()
        signature = frozenset(signature) if signature else None
        key = (
            "search-schemas",
            strategy,
            limit,
            tuple(sorted(profile.items())),
            signature,
            tuple(sorted(exclude)),
            self._fingerprint(),
        )
        cached = self.cache.get(key, self._synced_version)
        if cached is not None:
            return list(cached)
        # The first tracer span in the search layer: uncached tiered
        # retrievals show up in traces (and the path profile) next to
        # the fetch/propagation spans — a match_corpus worker's lookups
        # re-parent under its match.source span automatically.
        with self.obs.tracer.span(
            "search.schemas", strategy=strategy, limit=limit
        ) as span:
            started = time.perf_counter()
            exact = self._exact_matches(signature, exclude)
            if exact:
                self._m_exact_hits.inc(len(exact))
            if strategy == "exact":
                result = [(name, 1.0) for name in exact[:limit]]
            elif strategy == "sparse":
                result = self._schema_profiles.top_k(profile, limit, exclude=exclude)
            elif strategy == "dense":
                expanded = self._expand_profile(profile)
                result = self._schema_dense.top_k(expanded, limit, exclude=exclude)
            else:  # hybrid
                depth = max(3 * limit, 10)
                sparse_run = self._schema_profiles.top_k(profile, depth, exclude=exclude)
                expanded = self._expand_profile(profile)
                dense_run = self._schema_dense.top_k(expanded, depth, exclude=exclude)
                fused = reciprocal_rank_fusion(
                    (sparse_run, dense_run),
                    k=self.rrf_k,
                    limit=limit,
                    weights=(self.sparse_weight, self.dense_weight),
                )
                pinned = [(name, 1.0) for name in exact]
                pinned_names = set(exact)
                result = pinned + [item for item in fused if item[0] not in pinned_names]
                result = result[:limit]
            self._m_strategy_ms[strategy].observe(
                (time.perf_counter() - started) * 1000.0
            )
            span.annotate(exact_hits=len(exact), results=len(result))
        self.cache.put(key, self._synced_version, result)
        return list(result)

    # -- schema popularity ----------------------------------------------------
    def schema_popularity(self, schema_name: str) -> float:
        """Fraction of other corpus schemas sharing most relation concepts
        (Jaccard >= 0.5 over normalized relation-name sets)."""
        self.sync()
        self._m_queries.inc()
        key = ("popularity", schema_name, self._fingerprint())
        cached = self.cache.get(key, self._synced_version)
        if cached is not None:
            return cached
        names = self._schema_relation_terms.get(schema_name, frozenset())
        total = len(self._schema_relation_terms)
        if not names or total <= 1:
            result = 0.0
        else:
            similar = 0
            for other in self._schema_names.candidates(names):
                if other == schema_name:
                    continue
                other_names = self._schema_relation_terms[other]
                overlap = len(names & other_names) / len(names | other_names)
                if overlap >= 0.5:
                    similar += 1
            result = similar / (total - 1)
        self.cache.put(key, self._synced_version, result)
        return result

    # -- introspection --------------------------------------------------------
    def stats_snapshot(self) -> dict:
        """Index sizes and cache counters (benchmarks / telemetry)."""
        return {
            "epoch": self._synced_version,
            "term_vectors": len(self._terms),
            "signature_rows": len(self._signature_rows),
            "schema_profiles": len(self._schema_profiles),
            "schema_dense_vectors": len(self._schema_dense),
            "dense_dim": self._schema_dense.embedder.dim,
            "dense_seed": self.dense_seed,
            "schemas": len(self._schema_relation_terms),
            "cache_entries": len(self.cache),
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
        }
