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
* an inverted index tag → routes to interested units is built lazily
  per tag and memoised, so steady-state dispatch is one dict lookup plus
  a loop over the interested units only.

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

Units that are not PathM/TwigM stay ungated (both gates ``None``):
BranchM, the lazy DFA (whose implicit depth tracking needs every element
event, so it rides the wants-all path), and units carrying
:class:`~repro.stream.recovery.ResourceLimits` — their machines count
every event (``max_total_events``) and probe every start tag's depth
(``max_depth``), so they are kept on an unfiltered path
(:meth:`AlphabetRouter.limited_units`) to preserve per-query admission
semantics bit-for-bit.
"""

from __future__ import annotations

from typing import Iterable, Protocol

from repro.core.machine import Machine

#: Memoised routing lists are kept for at most this many distinct tags;
#: beyond it (adversarial tag churn) lookups fall back to a linear scan
#: so router memory stays bounded by the document's *useful* vocabulary.
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


def unit_gates(unit: "RoutableUnit") -> tuple[str | None, list | None, list | None]:
    """Demand gates of one unit: ``(root_label, root_gate, text_gate)``.

    ``root_gate`` is the live root stack of a PathM/TwigM engine and
    ``text_gate`` the stack that is empty whenever ``characters`` is a
    no-op (see the module docstring); both are ``None`` — deliver
    always — for every other engine.  ``root_label`` is the label whose
    start tags pass the start gate unconditionally.
    """
    engine = unit.engine
    root_gate = getattr(engine, "root_stack", None)
    if root_gate is None:
        return None, None, None
    text_gate = engine.text_stack if unit.wants_text else None
    return engine.machine.root.label, root_gate, text_gate


class RoutableUnit(Protocol):
    """What the router needs from a unit (see ``repro.multiq.registry``)."""

    engine: object
    interest: frozenset[str]
    wants_all: bool
    wants_text: bool
    routable: bool


class AlphabetRouter:
    """Inverted index from tags to gated routes to the units that can react.

    Units are partitioned on registration:

    * *routable* units receive start/end events only for tags in their
      alphabet (or all tags, for wildcard machines) and ``Characters``
      only when value-tested — and each delivery only while its demand
      gate is open (:meth:`routes_for_tag`, :meth:`text_routes`);
    * *limited* units (non-``None`` ResourceLimits) receive every event
      unfiltered, via :meth:`limited_units`.

    ``add``/``remove`` invalidate the memoised per-tag routes, so the
    index is always consistent with the live query set.
    """

    def __init__(self, cache_limit: int = DEFAULT_CACHE_LIMIT):
        # Routable unit → its shared routes: (root label, route for
        # start tags of the root label, route for every other tag, text
        # route).  Built once per unit, so the per-tag lists below hold
        # references to these tuples rather than fresh ones.
        self._routable: dict[RoutableUnit, tuple] = {}
        self._limited: list[RoutableUnit] = []
        self._cache_limit = cache_limit
        self._by_tag: dict[str, list[tuple]] = {}
        self._text: list[tuple] | None = None
        #: Bumped on every membership change; consumers caching derived
        #: per-unit state (the push handler's adapters) key on it.
        self.version = 0

    # -- membership -----------------------------------------------------

    def add(self, unit: RoutableUnit) -> None:
        """Register a unit and invalidate the memoised index."""
        if unit.routable:
            root_label, root_gate, text_gate = unit_gates(unit)
            self._routable[unit] = (
                root_label,
                (None, root_gate, unit),
                (root_gate, root_gate, unit),
                (text_gate, None, unit),
            )
        else:
            self._limited.append(unit)
        self.invalidate()

    def remove(self, unit: RoutableUnit) -> None:
        """Drop a unit and invalidate the memoised index."""
        if unit.routable:
            del self._routable[unit]
        else:
            self._limited.remove(unit)
        self.invalidate()

    def invalidate(self) -> None:
        """Throw away every memoised routing list (membership changed)."""
        self._by_tag.clear()
        self._text = None
        self.version += 1

    def __len__(self) -> int:
        return len(self._routable) + len(self._limited)

    @property
    def unit_count(self) -> int:
        """Distinct machine units currently routed (incl. limited ones)."""
        return len(self)

    # -- lookups --------------------------------------------------------

    def routes_for_tag(self, tag: str) -> list[tuple]:
        """Gated routes to the routable units whose machines dispatch on
        ``tag``: ``(start_gate, end_gate, unit)`` triples, where a gate
        is ``None`` (deliver always) or a live stack (deliver while
        non-empty).

        Registration order is preserved, so multiplexed emission order is
        deterministic.  Limited units are *not* included — they take the
        unfiltered path.
        """
        routes = self._by_tag.get(tag)
        if routes is not None:
            return routes
        routes = [
            opened if root_label == tag or root_label == "*" else gated
            for unit, (root_label, opened, gated, _text) in self._routable.items()
            if unit.wants_all or tag in unit.interest
        ]
        if len(self._by_tag) < self._cache_limit:
            self._by_tag[tag] = routes
        return routes

    def text_routes(self) -> list[tuple]:
        """Gated routes to the units that need ``Characters`` events:
        ``(text_gate, None, unit)`` triples."""
        if self._text is None:
            self._text = [
                text for unit, (_label, _opened, _gated, text) in self._routable.items()
                if unit.wants_text
            ]
        return self._text

    def units_for_tag(self, tag: str) -> list[RoutableUnit]:
        """Routable units whose machines dispatch on ``tag`` (ungated view)."""
        return [unit for _start, _end, unit in self.routes_for_tag(tag)]

    def text_units(self) -> list[RoutableUnit]:
        """Routable units that need ``Characters`` events (value tests)."""
        return [unit for _gate, _end, unit in self.text_routes()]

    def limited_units(self) -> list[RoutableUnit]:
        """Units on the unfiltered path (per-query resource limits)."""
        return self._limited

    def alphabet(self) -> frozenset[str]:
        """Union of every routable unit's concrete-tag alphabet."""
        tags: set[str] = set()
        for unit in self._routable:
            tags |= unit.interest
        return frozenset(tags)

    def coverage(self, tags: Iterable[str]) -> dict[str, int]:
        """How many routable units listen on each of ``tags`` (debugging)."""
        return {tag: len(self.routes_for_tag(tag)) for tag in tags}
