"""The alphabet router (layer 2): tag → interested machines, demand-gated.

The broadcast dispatcher pays O(#queries) per event even when most
machines cannot react.  But a machine's transition functions only fire
for events whose tag appears in its dispatch table
(:meth:`repro.core.machine.Machine.nodes_for_tag`) — every other
start/end tag is a provable no-op, and ``Characters`` events matter only
to machines with value-tested nodes.  The router exploits exactly that:

* each registered unit is statically analysed once
  (:func:`machine_alphabet`): the set of concrete tags its machine
  dispatches on, whether it holds materialised ``'*'`` nodes (which see
  every tag — note that *interior* wildcards folded into parent-edge
  distances by machine construction need no events, so ``//a/*/b``
  routes on ``{a, b}`` alone), and whether it needs character data;
* an inverted index tag → routes to interested units is built when a
  unit is added, so steady-state dispatch is one dict lookup plus a loop
  over the interested units only — narrowed further to the units whose
  gate label is open (the open-label index below).

``//`` reachability costs nothing extra: parent edges are level
arithmetic, never intermediate tags, so a machine for ``//a//b`` is
untouched by the tags *between* ``a`` and ``b`` in the document.

End-tag consistency is structural rather than tracked: a machine skipped
for ``<t>`` is also skipped for the matching ``</t>`` (same tag), and
since events carry their level explicitly the machine's level arithmetic
never desynchronises — filtered delivery is *exactly* equivalent to full
delivery, not an approximation.

**Demand gates.**  Tags alone over-deliver: a PathM or TwigM whose root
stack is empty ignores everything except a start tag of its root label,
because δs pushes a non-root node only against a parent entry and δe and
string-value accumulation act only on open entries.  So each route is a
triple ``(start_gate, end_gate, unit)`` (:func:`unit_gates`), where a
gate is ``None`` (always deliver) or one of the machine's live stacks,
and the dispatcher delivers an event only when the gate is ``None`` or
non-empty:

* start of ``t``: no gate when ``t`` (or ``'*'``) labels the machine
  root, else the root stack;
* end: the root stack;
* ``Characters``: the value-tested node's stack when the machine has
  exactly one such node, else the root stack (:attr:`TwigM.text_stack
  <repro.core.twigm.TwigM.text_stack>`).

This is exact too.  Entries nest — an entry of node ``v`` is pushed
only against an open entry of ``parent(v)``, and an element closes
before its ancestors — so stack(v) ≠ ∅ ⇒ stack(parent(v)) ≠ ∅, and an
empty root stack means every stack is empty: the gated-out δs pushes
nothing, δe pops nothing, and ``characters`` would return at once (no
open value entry).  The gates are the engines' own lists, aliased (reset
and restore refill them in place), so they track the live state with no
bookkeeping.  Gated delivery is what the dispatch counters report.

A unit whose interest grows as members join — a label shape
(:class:`~repro.multiq.registry.ShapeUnit`) — is routed on each joining
member's new tags by :meth:`AlphabetRouter.extend`, gated the same way.

Units that are not PathM/TwigM stay ungated (both gates ``None``):
BranchM, the shared lazy DFA of the path queries (routed on the union of
its members' alphabets: it steps over the levels it is not shown, see
:mod:`repro.compile.dfa`, and :meth:`AlphabetRouter.extend` routes it on
each joining member's new tags), and units carrying
:class:`~repro.stream.recovery.ResourceLimits` — their machines count
every event (``max_total_events``) and probe every start tag's depth
(``max_depth``), so they are kept on an unfiltered path
(:meth:`AlphabetRouter.limited_units`) to preserve per-query admission
semantics bit-for-bit.

**Open-label index.**  Gates alone still cost a visit per route: a
closed gate is tested on every event of its tag.  But a gate stack can
be non-empty only while an element labelled with the gate node's label
is open — entries are pushed at that element's start tag and popped at
its end tag.  For a tag route that label is the machine root's; for a
text route it is the value-tested node's, or the root's when the
machine has several value-tested nodes.  The router gives each such
label a bit (never reused, and kept counting after its last unit
leaves; ``'*'`` labels and ungated units get none),
and the dispatcher (:class:`~repro.multiq.engine._MultiQueryHandler`)
keeps one mask of the labels with an open element.  Each event fetches
one :class:`TagRecord` — the tag's own bit, its open-element count,
``relevant`` (the OR of its routes' gate bits) and a memo of *views* —
and visits only ``views[mask & relevant]``: the routes, in registration
order, that are ungated or whose gate label is open.  A start tag is
counted before delivery and an end tag uncounted after it, so the
element's own label is open for both; a count never goes below zero.
The ``gate is None or gate`` test still runs on every visited route, so
the index only decides which routes are *looked at*.

The index is exact by the same nesting argument:

* *A label registered mid-document* (a cold ``add_query``) starts
  counting from zero.  Elements opened before that are ancestors of the
  current position, so they close after every counted element; clamping
  their end tags at zero therefore leaves every count exact for the
  elements opened since, and the cold machine holds no entry from
  before it was registered.
* *A restored dispatcher or an* ``attach_warm`` *unit* holds entries for
  elements whose start tags the handler never saw.  A text-fed restore
  counts the tokenizer's open elements, and an event-fed capture carries
  the counts of its open gate labels, so either resumes exact.  Without
  them (an ``attach_warm``, or a capture from a release that did not
  write the counts), every label counts as open until the root
  element's end tag (level 1) or ``reset()`` (mask ``-1``, which visits
  exactly the routes of plain gated dispatch); with the document element
  closed nothing is open, so the counts restart from zero there.

Views are memoised per ``(tag, mask & relevant)``, at most
``cache_limit`` of them across the router; beyond that they are built
per event and not kept, so hostile documents that open many distinct
label sets cannot grow the memo.  Records depend only on the query set
and are built when a unit is added.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Protocol

from repro.core.machine import Machine

#: Memoised views (route tuples per tag and open-label key) are kept for
#: at most this many keys across the router; beyond it (a hostile
#: document opening many distinct label sets) views are built per event
#: and not kept, so router memory stays bounded by the query set.
DEFAULT_CACHE_LIMIT = 4096


def machine_alphabet(machine: Machine) -> tuple[frozenset[str], bool, bool]:
    """Static interest analysis of one compiled machine.

    Returns ``(tags, wants_all, wants_text)``: the concrete tags the
    machine dispatches on, whether it holds ``'*'``-labelled machine
    nodes (and must therefore see every element event), and whether it
    accumulates character data (value-tested nodes).
    """
    return (
        frozenset(machine.by_label),
        bool(machine.wildcards),
        bool(machine.value_nodes),
    )


def unit_gates(
    unit: "RoutableUnit",
) -> tuple[str | None, list | None, str | None, list | None]:
    """Demand gates of one unit: ``(root_label, root_gate, text_label,
    text_gate)``.

    ``root_gate`` is the live root stack of a PathM/TwigM engine and
    ``text_gate`` the stack that is empty whenever ``characters`` is a
    no-op (see the module docstring); both are ``None`` — deliver
    always — for every other engine.  ``root_label`` is the label whose
    start tags pass the start gate unconditionally; each gate can be
    non-empty only while an element with its label is open.
    """
    engine = unit.engine
    root_gate = getattr(engine, "root_stack", None)
    if root_gate is None:
        return None, None, None, None
    machine = engine.machine
    root_label = machine.root.label
    if not unit.wants_text:
        return root_label, root_gate, None, None
    values = machine.value_nodes
    text_label = values[0].label if len(values) == 1 else root_label
    return root_label, root_gate, text_label, engine.text_stack


def gate_labels(unit: "RoutableUnit") -> frozenset[str]:
    """The labels that gate ``unit``: exactly those the open-label index
    gives a bit for it, its root label and its text label.

    The unit can change state only while an element with one of them is
    open, and that element's start tag opens it.  Empty for an ungated
    unit (no root stack, or a ``'*'`` root).
    """
    root_label, root_gate, text_label, _text_gate = unit_gates(unit)
    if root_gate is None or root_label == "*":
        return frozenset()
    return frozenset((root_label, text_label)) - {None, "*"}


class Interest(NamedTuple):
    """What a handler's units can react to: the input of segment skipping
    (:func:`repro.store.index.segment_skippable`).

    ``tags``, ``wants_all`` and ``wants_text`` fold
    :func:`machine_alphabet` over every unit (the per-event alphabet
    filter of :class:`~repro.transform.combinators.Tee`).  ``gates``
    holds the gated units' :func:`gate_labels`; ``free_tags`` and
    ``free_text`` fold the alphabet over the ungated units, which can
    react whatever is open.  ``inside`` marks a handler that reads every
    event while a gate label is open (an extractor records its matches'
    subtrees), so only the gate labels can prove a segment dead.
    """

    tags: frozenset[str]
    wants_all: bool
    wants_text: bool
    gates: frozenset[str]
    free_tags: frozenset[str]
    free_text: bool
    inside: bool = False


def fold_interest(units: "Iterable[RoutableUnit]") -> Interest:
    """The :class:`Interest` of ``units``.  A limited unit (not routable)
    wants every event: its accounting counts them all."""
    tags: set[str] = set()
    free_tags: set[str] = set()
    gates: set[str] = set()
    wants_all = wants_text = free_text = False
    for unit in units:
        tags |= unit.interest
        wants_all = wants_all or unit.wants_all or not unit.routable
        wants_text = wants_text or unit.wants_text
        labels = gate_labels(unit)
        if labels:
            gates |= labels
        else:
            free_tags |= unit.interest
            free_text = free_text or unit.wants_text
    return Interest(frozenset(tags), wants_all, wants_text, frozenset(gates),
                    frozenset(free_tags), free_text)


class RoutableUnit(Protocol):
    """What the router needs from a unit (see ``repro.multiq.registry``)."""

    engine: object
    interest: frozenset[str]
    wants_all: bool
    wants_text: bool
    routable: bool


class TagRecord:
    """Everything one event kind needs to pick its routes.

    ``routes`` is the all-open list of ``(gate bit, route)`` pairs in
    registration order (bit 0: always visited); ``relevant`` ORs their
    bits; ``views`` memoises, per ``mask & relevant``, the tuple of
    routes to visit.  ``bit`` and ``count`` belong to the tag as a gate
    label: its bit (0 when no gate uses it) and how many elements with
    it are open.
    """

    __slots__ = ("bit", "count", "relevant", "routes", "views")

    def __init__(self, routes: list[tuple[int, tuple]] | None = None, relevant: int = 0):
        self.bit = 0
        self.count = 0
        self.routes: list[tuple[int, tuple]] = [] if routes is None else routes
        self.relevant = relevant
        self.views: dict[int, tuple] = {}


class AlphabetRouter:
    """Inverted index from tags to gated routes to the units that can react.

    Units are partitioned on registration:

    * *routable* units receive start/end events only for tags in their
      alphabet (or all tags, for wildcard machines) and ``Characters``
      only when value-tested — and each delivery only while its demand
      gate is open (:meth:`routes_for_tag`, :meth:`text_routes`);
    * *limited* units (non-``None`` ResourceLimits) receive every event
      unfiltered, via :meth:`limited_units`.

    The dispatcher reads :attr:`records` (tag → :class:`TagRecord`),
    :attr:`default` (tags outside every alphabet) and :attr:`text`
    directly; these objects live as long as the router and are updated
    in place by ``add``/``remove``, so the index is always consistent
    with the live query set.
    """

    def __init__(self, cache_limit: int | None = None):
        # Routable units in registration order (the records' order), each
        # with whether it is routed on every tag.
        self._routable: dict[RoutableUnit, bool] = {}
        self._limited: list[RoutableUnit] = []
        self._cache_limit = DEFAULT_CACHE_LIMIT if cache_limit is None else cache_limit
        self._memoised = 0
        #: Gate label → its bit in the open-label mask; never reused.
        self._bits: dict[str, int] = {}
        self.records: dict[str, TagRecord] = {}
        self.default = TagRecord()
        self.text = TagRecord()
        #: Called after every membership change (the dispatcher rebinds
        #: its limited-unit handlers there, off the per-event path).
        self.on_change: Callable[[], None] | None = None

    # -- membership -----------------------------------------------------

    def add(self, unit: RoutableUnit) -> None:
        """Register a unit and extend the records it routes through."""
        if not unit.routable:
            self._limited.append(unit)
            self.invalidate()
            return
        records = self.records
        for tag in unit.interest:
            self._record(tag)
        if unit.wants_all:
            self._append(self.default, *self._route(unit, None))
        for tag in records if unit.wants_all else unit.interest:
            self._append(records[tag], *self._route(unit, tag))
        if unit.wants_text:
            _root_label, _root_gate, text_label, text_gate = unit_gates(unit)
            text_bit = self._bit(text_label) if text_gate is not None else 0
            self._append(self.text, text_bit, (text_gate, None, unit))
        self._routable[unit] = unit.wants_all
        self.invalidate()

    def extend(self, unit: RoutableUnit, tags: frozenset[str]) -> None:
        """Route a routed unit on ``tags`` too: the tags a joining member
        added to its interest (on every tag, once the unit wants all).
        Only the new routes are added, gated as :meth:`add` gates them."""
        records = self.records
        if unit.wants_all:
            if not self._routable[unit]:
                self._routable[unit] = True
                routed = unit.interest - tags
                self._append(self.default, *self._route(unit, None))
                for tag, record in records.items():
                    if tag not in routed:
                        self._append(record, *self._route(unit, tag))
            return
        for tag in tags:
            self._append(self._record(tag), *self._route(unit, tag))

    def _route(self, unit: RoutableUnit, tag: str | None) -> tuple[int, tuple]:
        """The gate bit and ``(start_gate, end_gate, unit)`` route of
        ``unit`` in the record of ``tag`` (``None``: the default record).
        Start tags pass ungated when ``tag`` (or ``'*'``) labels the
        machine root; the route's bit is the root label's."""
        root_label, root_gate, _text_label, _text_gate = unit_gates(unit)
        if root_gate is None:
            return 0, (None, None, unit)
        start_gate = None if root_label in (tag, "*") else root_gate
        return self._bit(root_label), (start_gate, root_gate, unit)

    def _record(self, tag: str) -> TagRecord:
        """The record of ``tag``, made from the default routes on first
        use (only wants-all units, none rooted at it, route such a tag)."""
        record = self.records.get(tag)
        if record is None:
            default = self.default
            record = self.records[tag] = TagRecord(list(default.routes), default.relevant)
        return record

    def remove(self, unit: RoutableUnit) -> None:
        """Drop a unit from every record it routes through."""
        if not unit.routable:
            self._limited.remove(unit)
            self.invalidate()
            return
        del self._routable[unit]
        for record in (*self.records.values(), self.default, self.text):
            kept = [pair for pair in record.routes if pair[1][2] is not unit]
            if len(kept) != len(record.routes):
                record.routes = kept
                record.relevant = 0
                for bit, _route in kept:
                    record.relevant |= bit
                self._forget(record)
        self.invalidate()

    def invalidate(self) -> None:
        """Tell :attr:`on_change` that the routed units changed.

        A registration joining or leaving a live unit changes no routed
        unit (a :class:`~repro.multiq.registry.SharedPathUnit` or label
        shape that grows its alphabet when joined gains routes through
        :meth:`extend`), so it needs no call.
        """
        if self.on_change is not None:
            self.on_change()

    def _bit(self, label: str) -> int:
        """The gate bit of a label in the unit's alphabet, assigned on
        first use (0 for ``'*'``)."""
        if label == "*":
            return 0
        bit = self._bits.get(label)
        if bit is None:
            bit = self._bits[label] = 1 << len(self._bits)
            self.records[label].bit = bit
        return bit

    def _append(self, record: TagRecord, bit: int, route: tuple) -> None:
        record.routes.append((bit, route))
        record.relevant |= bit
        if record.views:
            self._forget(record)

    def _forget(self, record: TagRecord) -> None:
        self._memoised -= len(record.views)
        record.views = {}

    def view(self, record: TagRecord, mask: int) -> tuple:
        """The routes of ``record`` to visit under the open-label ``mask``.

        Memoised under ``mask & record.relevant`` while the router holds
        fewer than ``cache_limit`` views; built and dropped beyond that.
        """
        key = mask & record.relevant
        routes = tuple(route for bit, route in record.routes if not bit or bit & key)
        if self._memoised < self._cache_limit:
            record.views[key] = routes
            self._memoised += 1
        return routes

    def close_all(self) -> None:
        """Zero every open-element count (no element is open)."""
        for record in self.records.values():
            record.count = 0

    def __len__(self) -> int:
        return len(self._routable) + len(self._limited)

    @property
    def unit_count(self) -> int:
        """Distinct machine units currently routed (incl. limited ones)."""
        return len(self)

    @property
    def memoised_views(self) -> int:
        """Views currently memoised across all records (≤ ``cache_limit``)."""
        return self._memoised

    # -- lookups --------------------------------------------------------

    def routes_for_tag(self, tag: str) -> list[tuple]:
        """Gated routes to the routable units whose machines dispatch on
        ``tag``: ``(start_gate, end_gate, unit)`` triples, where a gate
        is ``None`` (deliver always) or a live stack (deliver while
        non-empty).

        This is the all-open view (every label counted open), built per
        call for tests and debugging.  Registration order is preserved,
        so multiplexed emission order is deterministic.  Limited units
        are *not* included — they take the unfiltered path.
        """
        record = self.records.get(tag, self.default)
        return [route for _bit, route in record.routes]

    def text_routes(self) -> list[tuple]:
        """Gated routes to the units that need ``Characters`` events:
        ``(text_gate, None, unit)`` triples (all-open view)."""
        return [route for _bit, route in self.text.routes]

    def units_for_tag(self, tag: str) -> list[RoutableUnit]:
        """Routable units whose machines dispatch on ``tag`` (ungated view)."""
        return [unit for _start, _end, unit in self.routes_for_tag(tag)]

    def text_units(self) -> list[RoutableUnit]:
        """Routable units that need ``Characters`` events (value tests)."""
        return [unit for _gate, _end, unit in self.text_routes()]

    def limited_units(self) -> list[RoutableUnit]:
        """Units on the unfiltered path (per-query resource limits)."""
        return self._limited
