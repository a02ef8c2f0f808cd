"""The five REVERE workloads: inputs, world, op list, and expected answers.

Every workload follows one shape so the protocol has no per-workload
variants:

* ``generate(seed, scale, op_scale)`` — untimed; everything random comes
  from ``repro.datasets`` generators seeded by ``seed``.  The result holds
  only plain inputs (names, rows, HTML strings, mapping queries) and the
  op list as primitive tuples ``(kind, ...)`` with ``kind`` ``"read"`` or
  ``"write"`` — its ``repr`` is what the op-list digest hashes;
* ``build(inputs, workdir)`` — timed; stands the world up through public
  constructors only;
* ``bind(world, inputs)`` — untimed; one zero-argument callable per op, so
  the timed region of an op is exactly the calls into the program;
* ``expected(inputs)`` — untimed; the fingerprint every op must produce,
  computed without the path under test: in closed form from the generator's
  ground truth for the PDMS workloads (the generated mappings are exact and
  positional over a connected tree, so the certain answers are the union
  over the connected data peers), and from the rebuild-everything seed
  paths (``incremental=False`` apps) for MANGROVE;
* ``reference(inputs, workdir)`` — the slow independent oracles
  (``execute_brute_force``, ``PDMS.answer_brute_force``, invalidate and
  recompute, a site reloaded from nothing) that ``--regen-golden`` checks
  ``expected`` against before it commits the fingerprints.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro import RevereSystem
from repro.datasets.html_gen import (
    edit_page,
    generate_department_site,
    generate_edit_stream,
)
from repro.datasets.pdms_gen import random_tree_pdms, update_stream
from repro.mangrove import (
    AnnotatedDocument,
    ConstraintChecker,
    DepartmentCalendar,
    PaperDatabase,
    PhoneDirectory,
    Publisher,
    SemanticSearch,
    WhoIsWho,
)
from repro.mangrove.schema import university_schema
from repro.piazza import PDMS, DistributedExecutor, SimulatedNetwork, ViewServer
from repro.rdf import TripleStore
from repro.storage import LogEngine

# Random recursive trees of 500 peers stay well under 30 hops end to end;
# the search depth only has to be out of their way.
OPTIONS = {"max_depth": 64}
DATALESS_SHARE = 5  # one schema-only peer per five data peers


def digest(value) -> str:
    """Short stable hash of a value's ``repr``."""
    return hashlib.blake2b(repr(value).encode("utf-8"), digest_size=8).hexdigest()


def fingerprint(result) -> str:
    """What an op produced, reduced to a comparable token."""
    if isinstance(result, BaseException):
        return f"raised:{type(result).__name__}"
    answers = getattr(result, "answers", None)
    if answers is not None:  # ExecutionStats
        return answers_fingerprint(answers)
    return digest(result)


def answers_fingerprint(answers) -> str:
    """Order-free fingerprint of an answer set."""
    return digest(sorted(map(repr, answers)))


def _scaled(full: int, scale: float, floor: int) -> int:
    return max(floor, round(full * scale))


# -- PDMS inputs ------------------------------------------------------------
@dataclass
class PdmsSpec:
    """A generated network as plain inputs, in the generator's own order."""

    # (peer, [(relation, attributes, stored?, rows)])
    peers: list = field(default_factory=list)
    # (name, source CQ, target CQ, exact)
    mappings: list = field(default_factory=list)
    # peer -> reference relation name -> this peer's name for it
    names: dict = field(default_factory=dict)
    data_peers: list = field(default_factory=list)

    @classmethod
    def generate(cls, peers: int, seed: int) -> "PdmsSpec":
        source = random_tree_pdms(
            peers, seed=seed, courses=4, dataless_peers=peers // DATALESS_SHARE
        )
        spec = cls(names=source.generator_info["golds"])
        for peer in source.peers.values():
            spec.peers.append((
                peer.name,
                [
                    (
                        relation,
                        list(attributes),
                        relation in peer.stored,
                        sorted(peer.data.get(relation, ()), key=repr),
                    )
                    for relation, attributes in peer.schema.items()
                ],
            ))
            if peer.stored:
                spec.data_peers.append(peer.name)
        spec.mappings = [
            (m.name, m.source, m.target, m.exact) for m in source.mappings
        ]
        return spec

    def build(self) -> PDMS:
        """Replay the inputs through the PDMS's public construction API."""
        pdms = PDMS()
        for name, relations in self.peers:
            peer = pdms.add_peer(name)
            for relation, attributes, stored, rows in relations:
                peer.add_relation(relation, attributes)
                if stored:
                    peer.add_stored(relation, attributes)
                    pdms.add_storage(name, relation, f"{name}.{relation}")
                    peer.insert(relation, rows)
        for name, source, target, exact in self.mappings:
            pdms.add_mapping(name, source, target, exact=exact)
        return pdms

    def rows(self, reference_relation: str) -> dict:
        """peer -> rows of its variant of ``reference_relation``."""
        found = {}
        for name, relations in self.peers:
            local = self.names[name].get(reference_relation)
            for relation, _attributes, stored, rows in relations:
                if stored and relation == local:
                    found[name] = rows
        return found

    def course_query(self, peer: str) -> str:
        """Titles of every course reachable from ``peer``."""
        course = self.names[peer]["course"]
        return f"q(?t) :- {peer}.{course}(?c, ?t, ?n, ?w, ?l, ?en, ?d)"

    def join_query(self, peer: str) -> str:
        """Course titles with their instructor's email (joined by name)."""
        course = self.names[peer]["course"]
        instructor = self.names[peer]["instructor"]
        return (
            f"q(?t, ?e) :- {peer}.{course}(?c, ?t, ?n, ?w, ?l, ?en, ?d), "
            f"{peer}.{instructor}(?i, ?n, ?e, ?ph, ?o)"
        )

    def spread(self, count: int, seed: int) -> list:
        """``count`` distinct data peers, seeded, in network order."""
        rng = random.Random(seed)
        chosen = rng.sample(self.data_peers, min(count, len(self.data_peers)))
        return sorted(chosen, key=self.data_peers.index)


@dataclass
class Inputs:
    """What one workload run is made of."""

    ops: list
    payload: dict = field(default_factory=dict)

    def ops_digest(self) -> str:
        """Hash of the op list (same seed => same digest)."""
        return digest(self.ops)


class Workload:
    """Interface the protocol drives (see the module docstring)."""

    name = ""
    why = ""
    builds = 1  # back-to-back builds per set-up sample (B)

    def generate(self, seed: int, scale: float = 1.0, op_scale: float = 1.0) -> Inputs:
        raise NotImplementedError

    def prepare(self, inputs: Inputs, workdir: Path) -> None:
        """Untimed: lay out ``workdir`` before :meth:`build` is timed."""

    def build(self, inputs: Inputs, workdir: Path):
        raise NotImplementedError

    def warm(self, world, inputs: Inputs) -> None:
        """One untimed round so per-query caches are filled."""

    def bind(self, world, inputs: Inputs) -> list:
        raise NotImplementedError

    def expected(self, inputs: Inputs) -> list:
        raise NotImplementedError

    def reference(self, inputs: Inputs, workdir: Path) -> list:
        raise NotImplementedError

    def close(self, world) -> None:
        """Release files the world holds open."""


@dataclass
class PdmsWorld:
    pdms: PDMS
    executor: DistributedExecutor
    server: ViewServer | None = None


def _execute(executor, query, origin, views=None):
    return lambda: executor.execute(query, origin, dict(OPTIONS), views)


# -- adhoc_single_500 / adhoc_join_30 -------------------------------------
class AdhocQueries(Workload):
    """Read-only ad-hoc queries over a random-tree PDMS."""

    def __init__(self, name, why, peers, origins, reads, builds, warm_reads, join):
        self.name, self.why = name, why
        self.peers, self.origins, self.reads = peers, origins, reads
        self.builds, self.warm_reads, self.join = builds, warm_reads, join

    def generate(self, seed, scale=1.0, op_scale=1.0):
        spec = PdmsSpec.generate(_scaled(self.peers, scale, 5), seed)
        origins = spec.spread(self.origins, seed)
        text = spec.join_query if self.join else spec.course_query
        reads = _scaled(self.reads, op_scale, len(origins))
        ops = [
            ("read", origins[i % len(origins)], text(origins[i % len(origins)]))
            for i in range(reads)
        ]
        return Inputs(ops, {"spec": spec})

    def build(self, inputs, workdir):
        pdms = inputs.payload["spec"].build()
        pdms.mapping_index()
        return PdmsWorld(pdms, DistributedExecutor(pdms))

    def warm(self, world, inputs):
        for call in self.bind(world, inputs)[: self.warm_reads]:
            call()

    def bind(self, world, inputs):
        return [
            _execute(world.executor, query, origin)
            for _kind, origin, query in inputs.ops
        ]

    def expected(self, inputs):
        spec = inputs.payload["spec"]
        courses = [row for rows in spec.rows("course").values() for row in rows]
        if self.join:
            emails = {}
            for rows in spec.rows("instructor").values():
                for row in rows:
                    emails.setdefault(row[1], set()).add(row[2])
            answers = {
                (course[1], email)
                for course in courses
                for email in emails.get(course[2], ())
            }
        else:
            answers = {(course[1],) for course in courses}
        return [answers_fingerprint(answers)] * len(inputs.ops)

    def reference(self, inputs, workdir):
        world = self.build(inputs, workdir)
        by_query = {}
        for _kind, origin, query in inputs.ops:
            if (origin, query) not in by_query:
                by_query[(origin, query)] = fingerprint(
                    world.executor.execute_brute_force(query, origin, dict(OPTIONS))
                )
        return [by_query[(origin, query)] for _kind, origin, query in inputs.ops]


# -- serve_mixed_200 --------------------------------------------------------
class ServeMixed(Workload):
    """Continuous queries served from views beside an updategram stream."""

    name = "serve_mixed_200"
    why = (
        "writes beside reads on the serving path: updategram propagation and "
        "view maintenance versus view hits with zero reformulation"
    )
    peers, queries, cycles, reads_per_cycle = 200, 16, 500, 4

    def generate(self, seed, scale=1.0, op_scale=1.0):
        spec = PdmsSpec.generate(_scaled(self.peers, scale, 5), seed)
        origins = spec.spread(self.queries, seed)
        registered = [(origin, spec.course_query(origin)) for origin in origins]
        cycles = _scaled(self.cycles, op_scale, 4)
        # update_stream only reads the network it is given; all four
        # relations per gram so every write reaches the course views.
        stream = update_stream(
            spec.build(), cycles, seed=seed + 1, inserts_per_relation=1,
            deletes_per_relation=1, relations_per_step=4,
        )
        ops, grams, read = [], [], 0
        for owner, gram in stream:
            ops.append((
                "write", owner,
                sorted((rel, sorted(rows, key=repr)) for rel, rows in gram.deletes.items()),
                sorted((rel, sorted(rows, key=repr)) for rel, rows in gram.inserts.items()),
            ))
            grams.append(gram)
            for _ in range(self.reads_per_cycle):
                ops.append(("read",) + registered[read % len(registered)])
                read += 1
        return Inputs(ops, {"spec": spec, "registered": registered, "grams": grams})

    def build(self, inputs, workdir):
        pdms = inputs.payload["spec"].build()
        pdms.mapping_index()
        executor = DistributedExecutor(pdms, SimulatedNetwork())
        server = ViewServer(executor, reformulation_options=dict(OPTIONS))
        for origin, query in inputs.payload["registered"]:
            server.register(origin, query)
        return PdmsWorld(pdms, executor, server)

    def warm(self, world, inputs):
        for origin, query in inputs.payload["registered"]:
            _execute(world.executor, query, origin, world.server)()

    def bind(self, world, inputs):
        grams = iter(inputs.payload["grams"])
        calls = []
        for op in inputs.ops:
            if op[0] == "write":
                calls.append(_apply(world.pdms, op[1], next(grams)))
            else:
                calls.append(_execute(world.executor, op[2], op[1], world.server))
        return calls

    def expected(self, inputs):
        spec = inputs.payload["spec"]
        stored = {
            (name, relation): set(rows)
            for name, relations in spec.peers
            for relation, _attrs, is_stored, rows in relations if is_stored
        }
        titles = Counter(
            row[1] for rows in spec.rows("course").values() for row in rows
        )
        out, served = [], None
        for op in inputs.ops:
            if op[0] == "read":
                if served is None:  # unchanged until the next write
                    served = answers_fingerprint(
                        {(title,) for title, count in titles.items() if count > 0}
                    )
                out.append(served)
                continue
            served = None
            _kind, owner, deletes, inserts = op
            course = spec.names[owner]["course"]
            changed = 0
            for sign, batch in ((-1, deletes), (+1, inserts)):  # deletes first
                for relation, rows in batch:
                    current = stored[(owner, relation)]
                    moved = set(rows) & current if sign < 0 else set(rows) - current
                    current ^= moved
                    changed += len(moved)
                    if relation == course:
                        for row in moved:
                            titles[row[1]] += sign
            out.append(fingerprint(changed))
        return out

    def reference(self, inputs, workdir):
        """Invalidate and recompute: no server, a full execution per read."""
        pdms = inputs.payload["spec"].build()
        executor = DistributedExecutor(pdms, SimulatedNetwork())
        grams = iter(inputs.payload["grams"])
        out = []
        for op in inputs.ops:
            if op[0] == "write":
                out.append(fingerprint(pdms.apply_updategram(op[1], next(grams))))
            else:
                executor.invalidate_views()
                out.append(fingerprint(_execute(executor, op[2], op[1])()))
        return out


def _apply(pdms, owner, gram):
    return lambda: pdms.apply_updategram(owner, gram)


# -- arc_growth_200 ---------------------------------------------------------
COURSE_COLUMNS = ["title", "instructor", "time", "location"]
PERSON_COLUMNS = ["name", "email", "phone", "office"]


@dataclass
class ArcWorld:
    system: RevereSystem
    executor: DistributedExecutor
    workdir: Path
    schema: object


class ArcGrowth(Workload):
    """The Figure-1 arc as growth: nodes keep joining a queried network."""

    name = "arc_growth_200"
    why = (
        "peers just join: each join bumps the topology, so the first read after "
        "it pays the wholesale mapping-index rebuild; the one workload with "
        "every layer from mangrove to piazza.execution in one trace"
    )
    nodes, joins, builds = 200, 10, 3

    def generate(self, seed, scale=1.0, op_scale=1.0):
        total = _scaled(self.nodes, scale, 8)
        joins = min(_scaled(self.joins, op_scale, 2), total - 4)
        base = total - joins
        # Who maps to whom is part of the workload, not of the seed: tree
        # shape moves read cost by a tenth, which would pass for noise.
        rng = random.Random(self.nodes)
        nodes = []
        for index in range(total):
            name = f"n{index:03d}"
            site = generate_department_site(
                f"http://{name}.edu", courses=3, people=1, seed=seed * 257 + index
            )
            nodes.append({
                "name": name,
                "pages": [(document.url, document.html) for document, _ in site],
                "courses": [
                    (fields["title"], fields["instructor"])
                    for _document, fields in site if "title" in fields
                ],
                "people": sum("title" not in fields for _document, fields in site),
                "target": f"n{rng.randrange(index):03d}" if index else None,
            })
        ops = []
        for index in range(base, total):
            node = nodes[index]
            ops.append(("write", node["name"], node["target"], digest(node["pages"])))
            for origin in (node["name"], nodes[0]["name"], nodes[base // 2]["name"]):
                ops.append(("read", origin, self._query(origin)))
        return Inputs(ops, {"nodes": nodes, "base": base})

    @staticmethod
    def _query(origin: str) -> str:
        return f"q(?t, ?n) :- {origin}.course(?i, ?t, ?n, ?w, ?l)"

    @staticmethod
    def _join(world: ArcWorld, spec: dict) -> tuple:
        """One organisation joins: publish, export, map itself in."""
        name = spec["name"]
        node = world.system.add_node(name)
        node.store = TripleStore(name, engine=LogEngine(world.workdir / name))
        node.publisher = Publisher(node.store)
        for url, html in spec["pages"]:
            node.publish_document(AnnotatedDocument(url, html, world.schema))
        exported = (
            node.export_entities("course", COURSE_COLUMNS),
            node.export_entities("person", PERSON_COLUMNS),
        )
        if spec["target"] is not None:
            target = spec["target"]
            world.system.add_mapping(
                f"{name}->{target}",
                f"m(I, T, N, W, L) :- {name}.course(I, T, N, W, L)",
                f"m(I, T, N, W, L) :- {target}.course(I, T, N, W, L)",
                exact=True,
            )
        return exported

    def prepare(self, inputs, workdir):
        """Every node's log file exists before the clock starts.

        Two hundred organisations would each create one file on their own
        disk; here they share one ext4 volume whose create cost drifted
        between 55 and 130 ms per 190 files within ten minutes on identical
        code — journal state, not the program.  Opening an existing empty
        log is the engine's ordinary recovery path.
        """
        for spec in inputs.payload["nodes"]:
            (workdir / spec["name"]).mkdir(parents=True)
            (workdir / spec["name"] / "table.wal").touch()

    def _system(self, inputs, workdir, nodes: int) -> ArcWorld:
        system = RevereSystem()
        world = ArcWorld(system, None, workdir, system.registry.get("university"))
        for spec in inputs.payload["nodes"][:nodes]:
            self._join(world, spec)
        return world

    def build(self, inputs, workdir):
        world = self._system(inputs, workdir, inputs.payload["base"])
        world.system.pdms.mapping_index()
        world.executor = DistributedExecutor(world.system.pdms)
        return world

    def warm(self, world, inputs):
        first = inputs.payload["nodes"][0]["name"]
        _execute(world.executor, self._query(first), first)()

    def bind(self, world, inputs):
        by_name = {spec["name"]: spec for spec in inputs.payload["nodes"]}
        calls = []
        for op in inputs.ops:
            if op[0] == "write":
                calls.append(lambda spec=by_name[op[1]]: self._join(world, spec))
            else:
                calls.append(_execute(world.executor, op[2], op[1]))
        return calls

    def expected(self, inputs):
        nodes = inputs.payload["nodes"]
        by_name = {spec["name"]: spec for spec in nodes}
        answers = {
            pair for spec in nodes[: inputs.payload["base"]] for pair in spec["courses"]
        }
        out = []
        for op in inputs.ops:
            if op[0] == "write":
                spec = by_name[op[1]]
                answers |= set(spec["courses"])
                out.append(fingerprint((len(spec["courses"]), spec["people"])))
            else:
                out.append(answers_fingerprint(answers))
        return out

    def reference(self, inputs, workdir):
        self.prepare(inputs, workdir)
        world = self._system(inputs, workdir, inputs.payload["base"])
        by_name = {spec["name"]: spec for spec in inputs.payload["nodes"]}
        out = []
        for op in inputs.ops:
            if op[0] == "write":
                out.append(fingerprint(self._join(world, by_name[op[1]])))
            else:
                out.append(answers_fingerprint(
                    world.system.pdms.answer_brute_force(op[2], **OPTIONS)
                ))
        self.close(world)
        return out

    def close(self, world):
        for node in world.system.nodes.values():
            node.store.close()


# -- publish_edit_1000 ------------------------------------------------------
APP_CLASSES = (DepartmentCalendar, WhoIsWho, PhoneDirectory, PaperDatabase, SemanticSearch)


def _checker() -> ConstraintChecker:
    return ConstraintChecker(
        single_valued={"person.phone", "course.time"},
        required={"course": {"course.title", "course.time"}},
        referential={"course.instructor": "person"},
    )


@dataclass
class SiteWorld:
    store: TripleStore
    publisher: Publisher
    documents: list
    calendar: DepartmentCalendar
    search: SemanticSearch
    checker: ConstraintChecker | None = None


def _hits(results) -> list:
    return [(hit.subject, hit.score, hit.type_name) for hit in results]


class PublishEdit(Workload):
    """MANGROVE instant gratification: edit, publish, search, read an app."""

    name = "publish_edit_1000"
    why = (
        "the only workload without piazza: a publish is cheap and the first "
        "search after it pays the lazy TF/IDF refit, so work moved between "
        "write and read shows in separate columns"
    )
    pages, cycles, builds = 1000, 12, 3

    def generate(self, seed, scale=1.0, op_scale=1.0):
        count = _scaled(self.pages, scale, 10)
        courses = int(count * 0.6)
        site = generate_department_site(
            "http://cs.edu", courses, count - courses, seed=seed
        )
        initial = [(document.url, document.html) for document, _fields in site]
        cycles = _scaled(self.cycles, op_scale, 2)
        rng = random.Random(seed + 2)
        ops, edits = [], []
        for at, name, value in generate_edit_stream(site, cycles, seed=seed + 1):
            document, fields = site[at]
            edit_page(document, fields, name, value)  # the user's edit: an input
            edits.append((at, document.html))
            _other, other_fields = site[rng.randrange(courses)]
            ops += [
                ("write", at, digest(document.html)),
                ("read", "search", str(value)),
                ("read", "search", str(other_fields["title"])),
                ("read", "calendar"),
            ]
        return Inputs(ops, {"initial": initial, "edits": edits})

    @staticmethod
    def _site(inputs, store, incremental: bool, app_classes=APP_CLASSES) -> SiteWorld:
        schema = university_schema()
        documents = [
            AnnotatedDocument(url, html, schema) for url, html in inputs.payload["initial"]
        ]
        publisher = Publisher(store)
        for document in documents:
            publisher.publish(document)
        apps = [cls(store, incremental=incremental) for cls in app_classes]
        return SiteWorld(store, publisher, documents, apps[0], apps[-1])

    def build(self, inputs, workdir):
        store = TripleStore("annotations", engine=LogEngine(workdir / "store"))
        world = self._site(inputs, store, incremental=True)
        world.checker = _checker()
        world.checker.attach(store)
        return world

    def warm(self, world, inputs):
        world.search.search("warm")

    def bind(self, world, inputs):
        edits = iter(inputs.payload["edits"])
        calls = []
        for op in inputs.ops:
            if op[0] == "write":
                calls.append(_publish(world, *next(edits)))
            elif op[1] == "search":
                calls.append(lambda text=op[2]: _hits(world.search.search(text)))
            else:
                calls.append(lambda: list(world.calendar.rows))
        return calls

    def expected(self, inputs):
        """The seed serving loop: every app rebuilt from the whole store on
        every publish (``build_rows`` and a freshly built search index)."""
        world = self._site(
            inputs, TripleStore("oracle"), False, (DepartmentCalendar, SemanticSearch)
        )
        return [fingerprint(call()) for call in self.bind(world, inputs)]

    def reference(self, inputs, workdir):
        """Every cycle's site loaded from nothing: the publishes so far
        replayed into a fresh store, then fresh rebuild-everything apps
        (``build_rows``, a newly fitted search index) constructed on it."""
        schema = university_schema()
        published = list(inputs.payload["initial"])
        edits = iter(inputs.payload["edits"])
        out = []
        for op in inputs.ops:
            if op[0] == "write":
                at, html = next(edits)
                published.append((published[at][0], html))
                store, search = TripleStore("reference"), None
                publisher = Publisher(store)
                for url, page in published:
                    triples = publisher.publish(AnnotatedDocument(url, page, schema))
                out.append(fingerprint(triples))
            elif op[1] == "search":
                search = search or SemanticSearch(store, incremental=False)
                out.append(fingerprint(_hits(search.search(op[2]))))
            else:
                calendar = DepartmentCalendar(store, incremental=False)
                out.append(fingerprint(list(calendar.rows)))
        return out

    def close(self, world):
        world.store.close()


def _publish(world: SiteWorld, at: int, html: str):
    def publish():
        document = world.documents[at]
        document.html = html
        return world.publisher.publish(document)

    return publish


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        AdhocQueries(
            "adhoc_single_500",
            "the bread-and-butter Piazza read, cost linear in the closure: one "
            "rewriting per reachable data peer and two messages per remote peer",
            peers=500, origins=16, reads=20, builds=2, warm_reads=2, join=False,
        ),
        AdhocQueries(
            "adhoc_join_30",
            "the two-relation join cliff, cost quadratic in the closure: the "
            "rewriting set is the cross product of the per-atom rewritings",
            peers=30, origins=4, reads=20, builds=10, warm_reads=1, join=True,
        ),
        ArcGrowth(),
        ServeMixed(),
        PublishEdit(),
    )
}
