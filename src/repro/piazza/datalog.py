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

One evaluator runs every production join: a :class:`Plan`, compiled
once per CQ or rule object, joins the body over positional rows, hashing
each relation on the positions already bound.  Facts are always ground
(stored, chase-derived or frozen), which is what makes position-level
hash keys sound.  The nested loop (:func:`evaluate_query_brute_force`)
is kept only as its oracle (parity: ``tests/test_pdms_scale.py``).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

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

    @cached_property
    def plan(self) -> "Plan":
        """The query compiled for evaluation, once per query object."""
        return Plan.compile(self.head, self.body)

    def rename(self, suffix: str) -> "ConjunctiveQuery":
        """Fresh-rename all variables with ``suffix``."""
        mapping: Subst = {var: Var(f"{var.name}#{suffix}") for var in self.variables()}
        return ConjunctiveQuery(
            apply_subst_atom(self.head, mapping),
            tuple(apply_subst_atom(atom, mapping) for atom in self.body),
        )

    def canonical(self) -> tuple:
        """A canonical fingerprint invariant under variable renaming,
        computed once per query object."""
        return self._canonical

    @cached_property
    def _canonical(self) -> tuple:
        # Variables become ints, by name (str hashing and equality are
        # C-level); constants and Skolems become tagged tuples.
        numbering: dict[str, int] = {}

        def normalize(term: Term):
            term = _unconst(term)
            if isinstance(term, Var):
                return numbering.setdefault(term.name, len(numbering))
            if isinstance(term, Func):
                return ("func", term.name, tuple(normalize(arg) for arg in term.args))
            return ("const", term)

        def normalize_atom(atom: Atom):
            # Plain variables inline: every search state is fingerprinted here.
            return (atom.predicate, tuple([
                numbering.setdefault(arg.name, len(numbering))
                if arg.__class__ is Var else normalize(arg)
                for arg in atom.args
            ]))

        head = normalize_atom(self.head)
        # Sort body atoms by a rename-independent key first; ties broken
        # by insertion order to keep this cheap.
        body = tuple([
            normalize_atom(atom)
            for atom in sorted(self.body, key=lambda a: (a.predicate, len(a.args)))
        ])
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

    @cached_property
    def plan(self) -> "Plan":
        """The rule compiled for the chase, once per rule object."""
        return Plan.compile(self.head, self.body)

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


def _build(template, cells):
    """Instantiate a template (a cell index or a Skolem ``(name,
    templates)``) over filled cells."""
    if template.__class__ is int:
        return cells[template]
    name, args = template
    return Func(name, tuple(_build(arg, cells) for arg in args))


_UNBOUND = object()


def _match(template, value, cells: list) -> bool:
    """Match a template against a ground value, filling its empty cells."""
    if template.__class__ is int:
        if cells[template] is _UNBOUND:
            cells[template] = value
            return True
        return cells[template] == value
    name, args = template
    return (
        value.__class__ is Func
        and value.name == name
        and len(value.args) == len(args)
        and all(map(_match, args, value.args, itertools.repeat(cells)))
    )


def _unwrap(values: tuple) -> tuple:
    """``values`` with ``Const`` unwrapped at any depth, as unification sees them."""
    if {Const, Func}.isdisjoint(map(type, values)):
        return values
    return tuple(apply_subst(value, {}) for value in values)


@dataclass(frozen=True)
class Plan:
    """A body compiled once into a left-deep join over positional rows.

    A row is ``cells`` (the constants), then each joined fact and the
    cells its Skolem terms bound; a variable lives in the cell that first
    bound it.  Atoms join most-keyed first (ties to body order; ``first``
    forces the opening atom).  A step is ``(body position, arity, key
    positions, probe cells, loose, extra)``: the atom's facts are hashed
    on the key positions and probed with the row's probe cells, then each
    ``(position, template)`` in ``loose`` (a repeated variable or a Skolem
    term) is matched, filling ``extra`` new cells.  ``head`` holds
    templates, or ``None`` if the body leaves a head variable unbound.
    """

    predicates: tuple[str, ...]
    cells: tuple
    steps: tuple[tuple, ...]
    head: tuple | None

    @classmethod
    def compile(cls, head: Atom, body: tuple, first: int | None = None) -> "Plan":
        """Order the atoms and lay out their cells."""
        atoms = [_unwrap(atom.args) for atom in body]
        constants: dict = {}

        def collect(term) -> bool:  # registers the constants; is ``term`` one?
            if term.__class__ is Var:
                return False
            if term.__class__ is Func and not is_ground(term):
                for arg in term.args:
                    collect(arg)
                return False
            constants.setdefault((term.__class__, term), len(constants))
            return True

        for arg in _unwrap(head.args):
            collect(arg)
        ground = [sum(map(collect, args)) for args in atoms]
        names = [[arg.name for arg in args if arg.__class__ is Var] for args in atoms]
        slots: dict[str, int] = {}  # variable name -> cell
        width = len(constants)

        def template(term):
            nonlocal width
            if term.__class__ is Var:
                if term.name not in slots:
                    slots[term.name] = width
                    width += 1
                return slots[term.name]
            if term.__class__ is Func and not is_ground(term):
                return (term.name, tuple(map(template, term.args)))
            return constants[(term.__class__, term)]

        steps = []
        remaining = list(range(len(atoms)))
        while remaining:
            choice = first if first is not None and not steps else max(
                remaining, key=lambda j: ground[j] + sum(map(slots.__contains__, names[j]))
            )
            remaining.remove(choice)
            args = atoms[choice]
            key, probe, loose = [], [], []
            for position, arg in enumerate(args):
                if arg.__class__ is Var:
                    cell = slots.setdefault(arg.name, width + position)
                    if cell == width + position:
                        continue  # a first occurrence: the fact binds it
                    bound = cell < width  # else repeated within this atom
                else:
                    bound = is_ground(arg)
                if bound:
                    key.append(position)
                    probe.append(template(arg))
                else:
                    loose.append(position)
            width += len(args)
            fact_end = width
            loose = tuple((position, template(args[position])) for position in loose)
            steps.append((choice, len(args), tuple(key), tuple(probe), loose, width - fact_end))
        body_width = width
        head = tuple(map(template, _unwrap(head.args)))
        return cls(
            tuple(atom.predicate for atom in body),
            tuple(value for _, value in constants),
            tuple(steps),
            head if width == body_width else None,
        )

    def sources(self, instance: Instance) -> list:
        """Each body atom's facts in ``instance``."""
        return [instance.get(predicate, ()) for predicate in self.predicates]

    def run(self, sources: list, tables: dict) -> tuple[list[tuple], int]:
        """Head tuples over ``sources`` (one fact collection per body
        atom), one per derivation, and the number of facts probed.

        ``tables`` caches the hashed facts by the identity of their
        collection and pins each collection, so one cache may serve many
        plans while the facts it has seen stay unchanged.
        """
        rows = [self.cells]
        probed = 0
        for position, arity, key, probe, loose, extra in self.steps:
            facts = sources[position]
            if (id(facts), arity, key) not in tables:
                matching = [_unwrap(fact) for fact in facts if len(fact) == arity]
                if key:
                    hashed, fact_key = defaultdict(list), itemgetter(*key)
                    for fact in matching:
                        hashed[fact_key(fact)].append(fact)
                    matching = hashed
                tables[(id(facts), arity, key)] = (facts, matching)
            table = tables[(id(facts), arity, key)][1]
            row_key = itemgetter(*probe) if probe else None
            pad = (_UNBOUND,) * extra
            widened: list[tuple] = []
            for row in rows:
                bucket = table.get(row_key(row), ()) if row_key else table
                probed += len(bucket)
                if not loose:
                    widened += [row + fact for fact in bucket]
                    continue
                for fact in bucket:
                    cells = [*row, *fact, *pad]
                    if all(_match(t, fact[p], cells) for p, t in loose):
                        widened.append(tuple(cells))
            rows = widened
            if not rows:
                break
        head = self.head
        if head is None:
            return [], probed
        if len(head) == 1 and head[0].__class__ is int:
            return [(row[head[0]],) for row in rows], probed
        if len(head) > 1 and all(t.__class__ is int for t in head):
            return list(map(itemgetter(*head), rows)), probed
        return [tuple([_build(t, row) for t in head]) for row in rows], probed


def evaluate_query(query: ConjunctiveQuery, instance: Instance) -> set[tuple]:
    """All head tuples of ``query`` over ``instance`` (may contain Skolems)."""
    return set(query.plan.run(query.plan.sources(instance), {})[0])


def _eval_body(body: tuple, instance: Instance, subst: Subst) -> Iterator[Subst]:
    """All substitutions satisfying ``body`` over ``instance``: the
    nested-loop join, kept as the oracle the compiled :class:`Plan` is
    proven identical to (answers and derivation counts)."""
    if not body:
        yield subst
        return
    # Most-bound-first selection keeps intermediate results small.
    index = max(range(len(body)), key=lambda i: sum(
        map(is_ground, apply_subst_atom(body[i], subst).args)
    ))
    atom = body[index]
    rest = body[:index] + body[index + 1 :]
    for fact in instance.get(atom.predicate, ()):
        extended = dict(subst)
        if len(fact) == len(atom.args) and all(
            map(_unify_into, atom.args, fact, itertools.repeat(extended))
        ):
            yield from _eval_body(rest, instance, extended)


def evaluate_query_brute_force(query: ConjunctiveQuery, instance: Instance) -> set[tuple]:
    """Nested-loop evaluation — the oracle :func:`evaluate_query` matches."""
    results: set[tuple] = set()
    for subst in _eval_body(query.body, instance, {}):
        head = apply_subst_atom(query.head, subst)
        if all(is_ground(arg) for arg in head.args):
            results.add(head.args)
    return results


def _shape(query: ConjunctiveQuery) -> tuple:
    """What :meth:`Plan.compile` reads of a query: every argument in body
    order, variables numbered by first occurrence, constants by class and
    value, and no predicate names."""
    numbering: dict[str, int] = {}  # variables by name, as Plan.compile keys them

    def shape(term):
        if term.__class__ is Var:
            return numbering.setdefault(term.name, len(numbering))
        if term.__class__ is Func:
            return (term.name, tuple(map(shape, term.args)))
        if term.__class__ is Const:
            return shape(term.value)
        return (term.__class__, term)

    return tuple([
        tuple([
            numbering.setdefault(arg.name, len(numbering)) if arg.__class__ is Var else shape(arg)
            for arg in atom.args
        ])
        for atom in (query.head, *query.body)
    ])


def evaluate_union(queries: Iterable[ConjunctiveQuery], instance: Instance) -> set[tuple]:
    """Union of the answers of several conjunctive queries.  Members whose
    bodies differ only in predicate names share one compiled plan, and
    all members share hashed facts, so a relation is hashed once per key."""
    results: set[tuple] = set()
    tables: dict = {}
    plans: dict[tuple, Plan] = {}
    for query in queries:
        shape = _shape(query)
        plan = plans.get(shape)
        if plan is None:
            plan = plans[shape] = query.plan
        sources = [instance.get(atom.predicate, ()) for atom in query.body]
        results.update(plan.run(sources, tables)[0])
    return results


def evaluate_union_brute_force(
    queries: Iterable[ConjunctiveQuery], instance: Instance
) -> set[tuple]:
    """Nested-loop union evaluation (the pre-scale-layer behaviour)."""
    return set().union(*(evaluate_query_brute_force(query, instance) for query in queries))


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
        # the round's hashed facts.
        tables: dict = {}
        for rule in rules:
            known = chased.get(rule.head.predicate, set())
            for fact in rule.plan.run(rule.plan.sources(chased), tables)[0]:
                too_deep = any(term_depth(arg) > max_skolem_depth for arg in fact)
                if not too_deep and fact not in known:
                    new_facts.append((rule.head.predicate, fact))
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
    frozen: Subst = {var: Func("frozen", (var.name,)) for var in query.variables()}
    canonical_db: Instance = {}
    for atom in query.body:
        canonical_db.setdefault(atom.predicate, set()).add(apply_subst_atom(atom, frozen).args)
    return canonical_db, apply_subst_atom(query.head, frozen).args


def is_contained_in(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Classic CQ containment test: ``q1 ⊆ q2`` iff the frozen head of
    ``q1`` is among ``q2``'s answers on ``q1``'s canonical database."""
    canonical_db, frozen_head = freeze(q1)
    return frozen_head in evaluate_query(q2, canonical_db)


def is_contained_in_brute_force(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bool:
    """Containment via the nested-loop evaluator (the pre-scale path)."""
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

    return _drop_contained(queries, map(candidates_for, predicate_sets), is_contained_in)


def minimize_union_brute_force(
    queries: list[ConjunctiveQuery],
) -> list[ConjunctiveQuery]:
    """The pre-scale UCQ minimization: all-pairs containment, nested-loop
    evaluation inside each test.  Output is identical to
    :func:`minimize_union` (same candidate order, same tie-breaks) — the
    candidate filter only skips pairs that provably fail — and the C11
    benchmark measures the quadratic cliff this kept the seed on.
    """
    return _drop_contained(
        queries, itertools.repeat(range(len(queries))), is_contained_in_brute_force
    )


def _drop_contained(queries: list, candidates, contained) -> list:
    """The queries that none of their candidates (one iterable of
    positions per query) contains; of equivalent members the earlier stays."""
    kept = []
    for i, (query, others) in enumerate(zip(queries, candidates)):
        for j in others:
            if j != i and contained(query, queries[j]):
                if not (i < j and contained(queries[j], query)):
                    break
        else:
            kept.append(query)
    return kept


_fresh_counter = itertools.count()


def fresh_suffix() -> str:
    """A process-unique suffix for variable renaming."""
    return str(next(_fresh_counter))
