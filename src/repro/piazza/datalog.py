"""Conjunctive queries, unification, evaluation and the chase.

This is the logical core of Piazza.  The GLAV formalism the paper adopts
([19], Section 3.1.1) relates conjunctive queries over different peers'
schemas; we compile every mapping into *inverse rules* (Duschka &
Genesereth) whose heads may contain Skolem terms (:class:`Func`).  The
same rule set drives both:

* top-down reformulation (:mod:`repro.piazza.reformulation`), and
* the bottom-up chase here, which computes **certain answers** — the
  ground truth reformulation is measured against.

Terms are plain Python values (constants), :class:`Var` or :class:`Func`
(Skolem functions standing for unknown existential values).

Evaluation comes in two flavours with a parity contract between them
(``tests/test_pdms_scale.py``):

* :func:`evaluate_query` — **hash-join** evaluation: per body atom, a
  hash table over the facts keyed on the argument positions already
  bound, probed once per pending substitution.  This is the scale path;
  a shared table cache (:func:`evaluate_union`) lets a UCQ's rewritings
  reuse each other's tables.
* :func:`evaluate_query_brute_force` — the original nested-loop join,
  kept as the oracle the hash path is proven identical to.

Facts are always ground (stored tuples, chase-derived tuples whose
groundness is checked before insertion, or frozen canonical databases),
which is what makes position-level hash keys sound.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property

Instance = dict[str, set[tuple]]


@dataclass(frozen=True)
class Var:
    """A logical variable."""

    name: str

    def __post_init__(self) -> None:
        # Variables live in substitution dicts on the hottest paths;
        # caching the hash beats re-hashing the name tuple every lookup.
        object.__setattr__(self, "_hash", hash(("Var", self.name)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return self.name.upper() if self.name.islower() else f"?{self.name}"


@dataclass(frozen=True)
class Const:
    """Explicit constant wrapper (bare Python values also work as terms)."""

    value: object

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Func:
    """A (possibly partially ground) Skolem term ``f(args...)``."""

    name: str
    args: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(("Func", self.name, self.args)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"{self.name}({', '.join(map(repr, self.args))})"


Term = object  # Var | Func | Const | any hashable Python value


def _unconst(term: Term) -> Term:
    return term.value if isinstance(term, Const) else term


def is_ground(term: Term) -> bool:
    """True if the term contains no variables."""
    term = _unconst(term)
    if isinstance(term, Var):
        return False
    if isinstance(term, Func):
        return all(is_ground(arg) for arg in term.args)
    return True


def has_skolem(term: Term) -> bool:
    """True if the term is or contains a Skolem function."""
    term = _unconst(term)
    if isinstance(term, Func):
        return True
    return False


def term_depth(term: Term) -> int:
    """Nesting depth of Skolem terms (constants/vars are depth 0)."""
    term = _unconst(term)
    if isinstance(term, Func):
        return 1 + max((term_depth(arg) for arg in term.args), default=0)
    return 0


@dataclass(frozen=True)
class Atom:
    """A predicate applied to terms, e.g. ``Berkeley.course(X, Y)``."""

    predicate: str
    args: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "args", tuple(self.args))

    def variables(self) -> set[Var]:
        """All variables occurring in the atom."""
        found: set[Var] = set()

        def walk(term: Term) -> None:
            term = _unconst(term)
            if isinstance(term, Var):
                found.add(term)
            elif isinstance(term, Func):
                for arg in term.args:
                    walk(arg)

        for arg in self.args:
            walk(arg)
        return found

    def __repr__(self) -> str:
        return f"{self.predicate}({', '.join(map(repr, self.args))})"


Subst = dict[Var, Term]


def walk(term: Term, subst: Subst) -> Term:
    """Resolve a term through the substitution (path compression free)."""
    term = _unconst(term)
    while isinstance(term, Var) and term in subst:
        term = _unconst(subst[term])
    return term


def apply_subst(term: Term, subst: Subst) -> Term:
    """Deep application of a substitution to a term."""
    term = walk(term, subst)
    if isinstance(term, Func):
        return Func(term.name, tuple(apply_subst(arg, subst) for arg in term.args))
    return term


def apply_subst_atom(atom: Atom, subst: Subst) -> Atom:
    """Apply a substitution to every argument of an atom."""
    return Atom(atom.predicate, tuple(apply_subst(arg, subst) for arg in atom.args))


def occurs(var: Var, term: Term, subst: Subst) -> bool:
    """Occurs check for unification soundness."""
    term = walk(term, subst)
    if term == var:
        return True
    if isinstance(term, Func):
        return any(occurs(var, arg, subst) for arg in term.args)
    return False


def _unify_into(a: Term, b: Term, subst: Subst) -> bool:
    """Unify two terms *into* ``subst``, mutating it.

    Internal fast path: the public entry points copy the caller's
    substitution exactly once and discard the copy on failure, instead
    of re-copying the (at scale, large) dict per variable binding.
    Partial bindings left behind by a failed branch are harmless because
    the whole copy is dropped.
    """
    a = walk(a, subst)
    b = walk(b, subst)
    if a == b:
        return True
    if isinstance(a, Var):
        if occurs(a, b, subst):
            return False
        subst[a] = b
        return True
    if isinstance(b, Var):
        return _unify_into(b, a, subst)
    if isinstance(a, Func) and isinstance(b, Func):
        if a.name != b.name or len(a.args) != len(b.args):
            return False
        return all(
            _unify_into(arg_a, arg_b, subst) for arg_a, arg_b in zip(a.args, b.args)
        )
    return False


def unify(a: Term, b: Term, subst: Subst | None = None) -> Subst | None:
    """Most general unifier of two terms, extending ``subst``.

    Returns ``None`` on failure; never mutates the input substitution.
    """
    extended = {} if subst is None else dict(subst)
    return extended if _unify_into(a, b, extended) else None


@dataclass(frozen=True)
class ConjunctiveQuery:
    """``head :- body`` where every head variable appears in the body.

    >>> q = ConjunctiveQuery(Atom("q", (Var("x"),)),
    ...                      (Atom("r", (Var("x"), Var("y"))),))
    >>> q.is_safe()
    True
    """

    head: Atom
    body: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))

    def is_safe(self) -> bool:
        """Safety: head variables all occur in the body."""
        body_vars: set[Var] = set()
        for atom in self.body:
            body_vars |= atom.variables()
        return self.head.variables() <= body_vars

    def variables(self) -> set[Var]:
        """All variables of head and body."""
        found = self.head.variables()
        for atom in self.body:
            found |= atom.variables()
        return found

    def predicates(self) -> set[str]:
        """Predicate names used in the body."""
        return {atom.predicate for atom in self.body}

    def rename(self, suffix: str) -> "ConjunctiveQuery":
        """Fresh-rename all variables with ``suffix``."""
        mapping: Subst = {var: Var(f"{var.name}#{suffix}") for var in self.variables()}
        return ConjunctiveQuery(
            apply_subst_atom(self.head, mapping),
            tuple(apply_subst_atom(atom, mapping) for atom in self.body),
        )

    def canonical(self) -> tuple:
        """A canonical fingerprint invariant under variable renaming."""
        numbering: dict[Var, tuple] = {}

        def normalize(term: Term):
            term = _unconst(term)
            if isinstance(term, Var):
                return numbering.setdefault(term, ("var", len(numbering)))
            if isinstance(term, Func):
                return ("func", term.name, tuple(normalize(arg) for arg in term.args))
            return ("const", term)

        def normalize_atom(atom: Atom):
            # Plain variables inline: every search state is fingerprinted here.
            return (atom.predicate, tuple([
                numbering.setdefault(arg, ("var", len(numbering)))
                if arg.__class__ is Var else normalize(arg)
                for arg in atom.args
            ]))

        head = normalize_atom(self.head)
        # Sort body atoms by a rename-independent key first; ties broken
        # by insertion order to keep this cheap.
        body = tuple(
            normalize_atom(atom)
            for atom in sorted(self.body, key=lambda a: (a.predicate, len(a.args)))
        )
        return (head, body)

    def __repr__(self) -> str:
        return f"{self.head!r} :- {', '.join(map(repr, self.body))}"


@dataclass(frozen=True)
class Rule:
    """A datalog rule; head may contain Skolem terms (inverse rules)."""

    head: Atom
    body: tuple
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))

    @cached_property
    def template(self) -> "RuleTemplate":
        """The rule compiled for expansion, once per rule object."""
        return RuleTemplate.compile(self)

    def __repr__(self) -> str:
        return f"{self.head!r} <- {', '.join(map(repr, self.body))}"


@dataclass(frozen=True)
class RuleTemplate:
    """A rule compiled for expansion, its variables numbered as *slots*.

    An argument template is a cell index or a Skolem ``(name, argument
    templates)``; ``cells`` holds ``None`` per slot and each constant.
    """

    arity: int
    cells: tuple
    binds: tuple[tuple[int, int], ...]  # (head position, slot) taking the goal's argument
    checks: tuple[tuple[int, object], ...]  # (head position, template) to unify
    fresh: tuple[tuple[int, str], ...]  # (slot, variable name) the head leaves unbound
    body: tuple[tuple[str, tuple], ...]  # (predicate, argument templates)

    @classmethod
    def compile(cls, rule: Rule) -> "RuleTemplate":
        """Number the rule's variables and constants into cells."""
        cells: list = []
        slots: dict[Var, int] = {}

        def template(term):
            if isinstance(term, Func):
                return (term.name, tuple(template(arg) for arg in term.args))
            if isinstance(term, Var):
                if term not in slots:
                    slots[term] = len(cells)
                    cells.append(None)
                return slots[term]
            cells.append(term)
            return len(cells) - 1

        head, body = apply_subst_atom(rule.head, {}), []  # strips Const wrappers
        binds, checks = [], []
        for position, arg in enumerate(head.args):
            plain = isinstance(arg, Var) and arg not in slots  # first, outside a Skolem
            (binds if plain else checks).append((position, template(arg)))
        for atom in rule.body:
            args = apply_subst_atom(atom, {}).args
            body.append((atom.predicate, tuple(template(arg) for arg in args)))
        bound = {slot for _, slot in binds}
        fresh = tuple((slot, var.name) for var, slot in slots.items() if slot not in bound)
        return cls(len(head.args), tuple(cells), tuple(binds), tuple(checks), fresh, tuple(body))


# -- evaluation ----------------------------------------------------------------


def _match_fact(atom: Atom, fact: tuple, subst: Subst) -> Subst | None:
    """Unify an atom against one ground fact tuple."""
    if len(atom.args) != len(fact):
        return None
    extended = dict(subst)
    for arg, value in zip(atom.args, fact):
        if not _unify_into(arg, value, extended):
            return None
    return extended


def _eval_body(
    body: tuple, instance: Instance, subst: Subst, stats: dict | None = None
) -> Iterator[Subst]:
    """All substitutions satisfying ``body`` over ``instance``.

    This is the original nested-loop join, kept as the brute-force
    oracle for the hash-join path (and still used directly by the
    incremental-maintenance layer, whose delta relations are tiny).

    ``stats`` (optional) accumulates ``match_attempts`` — the number of
    atom-vs-fact unification attempts, the work metric reported by the
    incremental-maintenance and execution benchmarks.
    """
    if not body:
        yield subst
        return
    # Most-bound-first selection keeps intermediate results small.
    def boundness(atom: Atom) -> int:
        resolved = apply_subst_atom(atom, subst)
        return sum(1 for arg in resolved.args if is_ground(arg))

    index = max(range(len(body)), key=lambda i: boundness(body[i]))
    atom = body[index]
    rest = body[:index] + body[index + 1 :]
    facts = instance.get(atom.predicate, ())
    if stats is not None:
        stats["match_attempts"] = stats.get("match_attempts", 0) + len(facts)
    for fact in facts:
        extended = _match_fact(atom, fact, subst)
        if extended is not None:
            yield from _eval_body(rest, instance, extended, stats)


def _term_variables(term: Term) -> set[Var]:
    """All variables occurring in a term (Consts stripped, Funcs walked)."""
    term = _unconst(term)
    if isinstance(term, Var):
        return {term}
    if isinstance(term, Func):
        found: set[Var] = set()
        for arg in term.args:
            found |= _term_variables(arg)
        return found
    return set()


def _strip_const(term: Term) -> Term:
    """Deeply unwrap ``Const`` so hash keys match unification semantics.

    Probe keys go through :func:`apply_subst`, which unconsts terms (and
    recurses into ``Func`` args); fact-side keys must normalize the same
    way or ``Const``-wrapped stored values would silently miss their
    bucket despite unifying in the brute-force path.
    """
    term = _unconst(term)
    if isinstance(term, Func):
        return Func(term.name, tuple(_strip_const(arg) for arg in term.args))
    return term


# A shared hash-table cache for one instance: (predicate, key positions)
# -> fact hash table.  Sound only while the instance is unmodified.
JoinTableCache = dict


def _eval_body_hash(
    body: tuple,
    instance: Instance,
    subst: Subst,
    table_cache: JoinTableCache | None = None,
) -> list[Subst]:
    """Hash-join evaluation of ``body`` over ``instance``.

    Atoms are joined one at a time (greedily most-bound-first, ties to
    the smaller relation); for each atom a hash table over its facts is
    built keyed on the positions whose variables are already bound, and
    each pending substitution probes exactly its matching bucket instead
    of scanning every fact.  Because facts are ground, joining an atom
    grounds all of its variables, so the bound-variable set is uniform
    across pending substitutions and position-level keys are sound.

    ``table_cache`` shares built tables across calls over the *same,
    unmodified* instance — the batched-union trick in
    :func:`evaluate_union`.  (The incremental-maintenance layer's
    ``match_attempts`` work metric stays on :func:`_eval_body`, whose
    delta relations are too small to benefit from hashing.)
    """
    if not body:
        return [subst]
    atoms = [apply_subst_atom(atom, subst) for atom in body] if subst else list(body)
    atom_vars = [atom.variables() for atom in atoms]
    substs: list[Subst] = [subst]
    bound: set[Var] = set()
    remaining = list(range(len(atoms)))
    while remaining and substs:
        # Most bound positions first; ties broken by relation size.
        def rank(position: int) -> tuple:
            atom = atoms[position]
            bound_positions = sum(
                1 for arg in atom.args if _term_variables(arg) <= bound
            )
            return (bound_positions, -len(instance.get(atom.predicate, ())))

        choice = max(remaining, key=rank)
        remaining.remove(choice)
        atom = atoms[choice]
        facts = instance.get(atom.predicate, ())
        key_positions = tuple(
            i for i, arg in enumerate(atom.args) if _term_variables(arg) <= bound
        )
        cache_key = (atom.predicate, key_positions, len(atom.args))
        table = table_cache.get(cache_key) if table_cache is not None else None
        if table is None:
            table = {}
            arity = len(atom.args)
            for fact in facts:
                if len(fact) != arity:
                    continue
                table.setdefault(
                    tuple(_strip_const(fact[i]) for i in key_positions), []
                ).append(fact)
            if table_cache is not None:
                table_cache[cache_key] = table
        next_substs: list[Subst] = []
        for pending in substs:
            key = tuple(apply_subst(atom.args[i], pending) for i in key_positions)
            bucket = table.get(key, ())
            for fact in bucket:
                extended = _match_fact(atom, fact, pending)
                if extended is not None:
                    next_substs.append(extended)
        substs = next_substs
        bound |= atom_vars[choice]
    return substs


def evaluate_query(
    query: ConjunctiveQuery,
    instance: Instance,
    table_cache: JoinTableCache | None = None,
) -> set[tuple]:
    """All head tuples of ``query`` over ``instance`` (may contain Skolems).

    Hash-join evaluation; answers are identical to
    :func:`evaluate_query_brute_force` (the parity suite asserts it).
    """
    results: set[tuple] = set()
    for subst in _eval_body_hash(query.body, instance, {}, table_cache=table_cache):
        head = apply_subst_atom(query.head, subst)
        if all(is_ground(arg) for arg in head.args):
            results.add(head.args)
    return results


def evaluate_query_brute_force(query: ConjunctiveQuery, instance: Instance) -> set[tuple]:
    """Nested-loop evaluation — the oracle :func:`evaluate_query` matches."""
    results: set[tuple] = set()
    for subst in _eval_body(query.body, instance, {}):
        head = apply_subst_atom(query.head, subst)
        if all(is_ground(arg) for arg in head.args):
            results.add(head.args)
    return results


def evaluate_union(queries: Iterable[ConjunctiveQuery], instance: Instance) -> set[tuple]:
    """Union of the answers of several conjunctive queries.

    Batched: all member queries share one hash-table cache, so a UCQ
    whose rewritings touch the same stored relations (the common case
    after reformulation) builds each join table once, not once per
    member.
    """
    results: set[tuple] = set()
    table_cache: JoinTableCache = {}
    for query in queries:
        results |= evaluate_query(query, instance, table_cache=table_cache)
    return results


def evaluate_union_brute_force(
    queries: Iterable[ConjunctiveQuery], instance: Instance
) -> set[tuple]:
    """Nested-loop union evaluation (the pre-scale-layer behaviour)."""
    results: set[tuple] = set()
    for query in queries:
        results |= evaluate_query_brute_force(query, instance)
    return results


# -- chase / certain answers -----------------------------------------------------


def chase(
    instance: Instance,
    rules: list[Rule],
    max_skolem_depth: int = 3,
    max_rounds: int = 50,
) -> Instance:
    """Saturate ``instance`` under ``rules`` (restricted chase).

    Skolem terms deeper than ``max_skolem_depth`` are not generated,
    which guarantees termination even for cyclic mapping graphs at the
    cost of completeness beyond that depth (ample for the experiments).
    """
    chased: Instance = {pred: set(facts) for pred, facts in instance.items()}
    for _round in range(max_rounds):
        new_facts: list[tuple[str, tuple]] = []
        # The instance is frozen within a round, so every rule shares
        # the round's join tables.
        table_cache: JoinTableCache = {}
        for rule in rules:
            for subst in _eval_body_hash(rule.body, chased, {}, table_cache=table_cache):
                head = apply_subst_atom(rule.head, subst)
                if not all(is_ground(arg) for arg in head.args):
                    continue
                if any(term_depth(arg) > max_skolem_depth for arg in head.args):
                    continue
                if head.args not in chased.get(head.predicate, set()):
                    new_facts.append((head.predicate, head.args))
        if not new_facts:
            break
        for predicate, fact in new_facts:
            chased.setdefault(predicate, set()).add(fact)
    return chased


def certain_answers(
    query: ConjunctiveQuery,
    instance: Instance,
    rules: list[Rule],
    max_skolem_depth: int = 3,
) -> set[tuple]:
    """Certain answers: evaluate over the chase, keep Skolem-free tuples."""
    chased = chase(instance, rules, max_skolem_depth=max_skolem_depth)
    return {
        fact
        for fact in evaluate_query(query, chased)
        if not any(has_skolem(arg) for arg in fact)
    }


# -- containment ------------------------------------------------------------------


def freeze(query: ConjunctiveQuery) -> tuple[Instance, tuple]:
    """Canonical database of a query: variables become fresh constants."""
    frozen_terms: dict[Var, object] = {}

    def freeze_term(term: Term):
        term = _unconst(term)
        if isinstance(term, Var):
            if term not in frozen_terms:
                frozen_terms[term] = Func("frozen", (term.name,))
            return frozen_terms[term]
        if isinstance(term, Func):
            return Func(term.name, tuple(freeze_term(arg) for arg in term.args))
        return term

    canonical_db: Instance = {}
    for atom in query.body:
        canonical_db.setdefault(atom.predicate, set()).add(
            tuple(freeze_term(arg) for arg in atom.args)
        )
    frozen_head = tuple(freeze_term(arg) for arg in query.head.args)
    return canonical_db, frozen_head


def is_contained_in(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Classic CQ containment test: ``q1 ⊆ q2`` iff the frozen head of
    ``q1`` is among ``q2``'s answers on ``q1``'s canonical database."""
    if len(q1.head.args) != len(q2.head.args):
        return False
    canonical_db, frozen_head = freeze(q1)
    return frozen_head in evaluate_query(q2, canonical_db)


def is_contained_in_brute_force(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Containment via the nested-loop evaluator (the pre-scale path)."""
    if len(q1.head.args) != len(q2.head.args):
        return False
    canonical_db, frozen_head = freeze(q1)
    return frozen_head in evaluate_query_brute_force(q2, canonical_db)


def minimize_union(queries: list[ConjunctiveQuery]) -> list[ConjunctiveQuery]:
    """Drop union members contained in another member (UCQ minimization).

    Output order is deterministic: survivors keep their input order, and
    mutually-equivalent pairs keep exactly the earlier member.

    Candidate filter: ``q ⊆ other`` needs a homomorphism from ``other``'s
    body into ``q``'s canonical database, so every body predicate of
    ``other`` must occur in ``q``'s body.  Grouping by body-predicate
    sets skips the (at scale, overwhelmingly dominant) pairs that fail
    this test without running a containment check — this is what keeps
    minimization of a hundreds-of-rewritings union off the quadratic
    cliff (see ``benchmarks/bench_c11_pdms_scale.py``).
    """
    predicate_sets = [frozenset(query.predicates()) for query in queries]
    # For each distinct predicate set, the positions using it; a query's
    # containment candidates are queries whose predicate set it covers.
    by_predicates: dict[frozenset, list[int]] = {}
    for position, predicates in enumerate(predicate_sets):
        by_predicates.setdefault(predicates, []).append(position)
    # Bodies are small (a handful of atoms), so candidates are found by
    # enumerating subsets of the query's own predicate set; queries with
    # unusually wide bodies fall back to scanning the distinct groups.
    _SUBSET_ENUMERATION_LIMIT = 12
    candidate_cache: dict[frozenset, list[int]] = {}

    def candidates_for(predicates: frozenset) -> list[int]:
        cached = candidate_cache.get(predicates)
        if cached is not None:
            return cached
        positions: list[int] = []
        if len(predicates) <= _SUBSET_ENUMERATION_LIMIT:
            ordered = sorted(predicates)
            for size in range(len(ordered) + 1):
                for subset in itertools.combinations(ordered, size):
                    positions.extend(by_predicates.get(frozenset(subset), ()))
        else:
            for other_predicates, members in by_predicates.items():
                if other_predicates <= predicates:
                    positions.extend(members)
        positions.sort()
        candidate_cache[predicates] = positions
        return positions

    kept: list[ConjunctiveQuery] = []
    for i, query in enumerate(queries):
        redundant = False
        for j in candidates_for(predicate_sets[i]):
            if i == j:
                continue
            other = queries[j]
            if is_contained_in(query, other):
                # Break ties deterministically so mutually-equivalent pairs
                # keep exactly one member.
                if is_contained_in(other, query) and i < j:
                    continue
                redundant = True
                break
        if not redundant:
            kept.append(query)
    return kept


def minimize_union_brute_force(
    queries: list[ConjunctiveQuery],
) -> list[ConjunctiveQuery]:
    """The pre-scale UCQ minimization: all-pairs containment, nested-loop
    evaluation inside each test.  Output is identical to
    :func:`minimize_union` (same candidate order, same tie-breaks) — the
    candidate filter only skips pairs that provably fail — and the C11
    benchmark measures the quadratic cliff this kept the seed on.
    """
    kept: list[ConjunctiveQuery] = []
    for i, query in enumerate(queries):
        redundant = False
        for j, other in enumerate(queries):
            if i == j:
                continue
            if is_contained_in_brute_force(query, other):
                if is_contained_in_brute_force(other, query) and i < j:
                    continue
                redundant = True
                break
        if not redundant:
            kept.append(query)
    return kept


_fresh_counter = itertools.count()


def fresh_suffix() -> str:
    """A process-unique suffix for variable renaming."""
    return str(next(_fresh_counter))
