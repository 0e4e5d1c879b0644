"""Explicit pattern-match enumeration streaming engine — the XSQ stand-in.

XSQ [25, 26] evaluates XP{/,//,[]} with a hierarchy of transducers and
buffers, where predicates are restricted to a single child step or an
attribute, optionally with a value test.  Its analysed worst-case cost is
``O(|D| × 2^|Q| × k)`` with ``k`` the number of pattern matches an XML
node participates in — because matches are **stored and maintained
explicitly**, one record per partial embedding.

The stand-in implements exactly that bookkeeping:

* a :class:`_Binding` per (trunk step, XML element) pair carrying the
  predicate flag for that element (shared by every match through it);
* a :class:`_Match` per *embedding prefix* of the trunk — the explicit
  pattern-match records.  On recursive data with descendant axes their
  population is the ``n²`` of the paper's figure 1 example — the blow-up
  TwigM's stacks avoid.  On non-recursive data the population stays
  small and the engine is competitive, matching the reported behaviour.

Fragment (per the paper's description of XSQ): child + descendant axes,
**no wildcards**, at most one predicate per step, each predicate a single
child tag or attribute with an optional value comparison.
"""

from __future__ import annotations

from typing import Iterable

from repro.baselines.common import Engine, as_query_tree
from repro.core.results import CollectingSink, ResultSink
from repro.errors import UnsupportedQueryError
from repro.stream.events import Characters, EndElement, Event, StartElement
from repro.xpath.querytree import (
    CHILD_EDGE,
    DESCENDANT_EDGE,
    AttributeTest,
    QueryNode,
    QueryTree,
    ValueTest,
)


class _StepSpec:
    """One trunk step: tag, axis, and its (at most one) simple predicate."""

    __slots__ = ("tag", "descendant", "attribute", "child_tag", "value_test")

    def __init__(
        self,
        tag: str,
        descendant: bool,
        attribute: AttributeTest | None,
        child_tag: str | None,
        value_test: ValueTest | None,
    ):
        self.tag = tag
        self.descendant = descendant
        self.attribute = attribute
        self.child_tag = child_tag
        self.value_test = value_test  # applies to the predicate child


def _compile_steps(query: QueryTree) -> list[_StepSpec]:
    """Validate the XSQ fragment and flatten the trunk."""

    def unsupported(reason: str) -> None:
        raise UnsupportedQueryError(
            f"the explicit-match engine (XSQ fragment) cannot evaluate "
            f"{query.source!r}: {reason}"
        )

    steps: list[_StepSpec] = []
    qnode: QueryNode | None = query.root
    while qnode is not None:
        if qnode.condition is not None:
            unsupported("boolean connectives (or/not) are not supported")
        if qnode.is_wildcard:
            unsupported("wildcards are not supported")
        if qnode.value_tests:
            unsupported("value tests on trunk elements are not supported")
        branch_children = [child for child in qnode.children if not child.on_trunk]
        trunk_children = [child for child in qnode.children if child.on_trunk]
        if len(branch_children) + len(qnode.attribute_tests) > 1:
            unsupported("at most one predicate per step")
        attribute: AttributeTest | None = None
        child_tag: str | None = None
        value_test: ValueTest | None = None
        if qnode.attribute_tests:
            attribute = qnode.attribute_tests[0]
        elif branch_children:
            branch = branch_children[0]
            if branch.children or branch.attribute_tests:
                unsupported("nested predicate paths are not supported")
            if branch.axis != CHILD_EDGE or branch.is_wildcard:
                unsupported("predicates must be a single child tag or attribute")
            if len(branch.value_tests) > 1:
                unsupported("at most one value test per predicate")
            child_tag = branch.name
            value_test = branch.value_tests[0] if branch.value_tests else None
        steps.append(
            _StepSpec(
                qnode.name,
                qnode.axis == DESCENDANT_EDGE,
                attribute,
                child_tag,
                value_test,
            )
        )
        qnode = trunk_children[0] if trunk_children else None
    return steps


class _Binding:
    """One (trunk step, XML element) binding with its predicate flag.

    The flag is shared by every match whose embedding routes through this
    element at this step; it becomes final when the element closes.
    """

    __slots__ = ("index", "level", "flag")

    def __init__(self, index: int, level: int, flag: bool):
        self.index = index
        self.level = level
        self.flag = flag


class _Match:
    """One explicit partial embedding: the trail of open bindings.

    ``candidate`` is the id of the element bound to the last trunk step;
    it doubles as the completion marker (None while incomplete).
    """

    __slots__ = ("bindings", "candidate")

    def __init__(self, bindings: list[_Binding], candidate: int | None):
        self.bindings = bindings
        self.candidate = candidate


class ExplicitMatchEngine(Engine):
    """The XSQ stand-in: streaming XP{/,//,[]-simple} via explicit matches."""

    name = "XSQ*"
    streaming = True

    def __init__(self) -> None:
        self.peak_matches = 0

    def supports(self, query: "str | QueryTree") -> bool:
        try:
            _compile_steps(as_query_tree(query))
        except UnsupportedQueryError:
            return False
        return True

    def run(self, query: "str | QueryTree", events: Iterable[Event]) -> list[int]:
        sink = CollectingSink()
        self.run_with_sink(query, events, sink)
        return sink.results

    def run_with_sink(
        self, query: "str | QueryTree", events: Iterable[Event], sink: ResultSink
    ) -> None:
        runner = _Runner(_compile_steps(as_query_tree(query)), sink)
        for event in events:
            if isinstance(event, StartElement):
                runner.start(event.tag, event.level, event.node_id, event.attributes)
            elif isinstance(event, EndElement):
                runner.end(event.tag, event.level)
            elif isinstance(event, Characters):
                runner.characters(event.text)
        self.peak_matches = runner.peak_matches  # ablation instrumentation


class _Runner:
    """Event-by-event state of one evaluation."""

    def __init__(self, steps: list[_StepSpec], sink: ResultSink):
        self._steps = steps
        self._sink = sink
        self._complete = len(steps)
        #: Incomplete matches by the level of their last (deepest) binding.
        self._extensible: dict[int, list[_Match]] = {}
        #: All live matches by the level of their deepest *open* binding.
        self._open_at: dict[int, list[_Match]] = {}
        #: Live bindings of the active element at each level.
        self._bindings_at: dict[int, list[_Binding]] = {}
        #: Value-test buffers for open predicate children:
        #: child level -> list of (binding, text parts, value test).
        self._watchers: dict[int, list[tuple[_Binding, list[str], ValueTest]]] = {}
        self.peak_matches = 0
        self._live = 0

    def _register(self, match: _Match) -> None:
        level = match.bindings[-1].level
        self._open_at.setdefault(level, []).append(match)
        if match.candidate is None:
            self._extensible.setdefault(level, []).append(match)
        self._live += 1
        if self._live > self.peak_matches:
            self.peak_matches = self._live

    def _make_binding(self, index: int, level: int, attributes) -> "_Binding | None":
        spec = self._steps[index]
        if spec.attribute is not None:
            if not spec.attribute.evaluate(attributes):
                return None  # an attribute predicate can never turn true
            flag = True
        else:
            flag = spec.child_tag is None  # no predicate: trivially true
        binding = _Binding(index, level, flag)
        self._bindings_at.setdefault(level, []).append(binding)
        return binding

    # -- events ------------------------------------------------------------

    def start(self, tag: str, level: int, node_id: int, attributes) -> None:
        # One shared binding per step this element matches (lazily made).
        bindings: dict[int, "_Binding | None"] = {}

        def binding_for(index: int) -> "_Binding | None":
            if index not in bindings:
                bindings[index] = self._make_binding(index, level, attributes)
            return bindings[index]

        last_index = self._complete - 1
        # Seed: does this element bind trunk step 0?
        first = self._steps[0]
        if first.tag == tag and (first.descendant or level == 1):
            binding = binding_for(0)
            if binding is not None:
                candidate = node_id if last_index == 0 else None
                self._register(_Match([binding], candidate))
        # Extensions: incomplete matches whose last binding is an ancestor.
        new_matches: list[_Match] = []
        for last_level, matches in self._extensible.items():
            if last_level >= level:
                continue
            for match in matches:
                index = len(match.bindings)
                spec = self._steps[index]
                if spec.tag != tag:
                    continue
                if not spec.descendant and level != last_level + 1:
                    continue
                binding = binding_for(index)
                if binding is None:
                    continue
                candidate = node_id if index == last_index else None
                new_matches.append(_Match(match.bindings + [binding], candidate))
        for match in new_matches:
            self._register(match)
        # Predicate children: this tag may satisfy the child predicate of
        # any live binding of the parent element.
        self._settle_predicate_children(tag, level)

    def _settle_predicate_children(self, tag: str, level: int) -> None:
        parent_bindings = self._bindings_at.get(level - 1)
        if not parent_bindings:
            return
        for binding in parent_bindings:
            spec = self._steps[binding.index]
            if spec.child_tag != tag or binding.flag:
                continue
            if spec.value_test is None:
                binding.flag = True
            else:
                self._watchers.setdefault(level, []).append(
                    (binding, [], spec.value_test)
                )

    def characters(self, text: str) -> None:
        for watchers in self._watchers.values():
            for _binding, parts, _test in watchers:
                parts.append(text)

    def end(self, tag: str, level: int) -> None:
        # Settle value-tested predicate children closing now.
        watchers = self._watchers.pop(level, None)
        if watchers:
            for binding, parts, test in watchers:
                if not binding.flag and test.evaluate("".join(parts)):
                    binding.flag = True
        self._bindings_at.pop(level, None)
        # Retire every match whose deepest open binding closes now.
        matches = self._open_at.pop(level, None)
        if matches is None:
            return
        self._extensible.pop(level, None)
        for match in matches:
            self._live -= 1
            binding = match.bindings[-1]
            if not binding.flag:
                continue  # predicate failed: the whole match dies
            if match.candidate is None:
                continue  # incomplete and no longer extensible: dies
            if len(match.bindings) == 1:
                # Separate matches may complete on one candidate.
                self._sink.emit_all((match.candidate,))
                continue
            # Retire the deepest binding; the match lives on keyed by the
            # next-shallower binding's level.
            match.bindings.pop()
            self._open_at.setdefault(match.bindings[-1].level, []).append(match)
            self._live += 1
