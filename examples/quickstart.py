#!/usr/bin/env python3
"""Quickstart: evaluating XPath queries over XML streams with TwigM.

Run from the repository root (after ``pip install -e .``)::

    python examples/quickstart.py

Covers the public API end to end: one-shot evaluation, the supported
query fragment, engine dispatch, push-style incremental feeding, and XML
fragment output.
"""

import repro
from repro.transform import select

CATALOG = """\
<catalog>
  <book year="2003">
    <title>Data on the Web</title>
    <author><last>Abiteboul</last><first>Serge</first></author>
    <price>39</price>
  </book>
  <book year="2006">
    <title>Streaming XPath</title>
    <author><last>Chen</last><first>Yi</first></author>
    <price>25</price>
    <section id="s1">
      <title>Compact match encoding</title>
      <section id="s2"><title>Stacks</title><p>Nested sections recurse.</p></section>
    </section>
  </book>
</catalog>
"""


def one_shot() -> None:
    print("== one-shot evaluation ==")
    # evaluate() accepts XML text, a file path, a file object, chunk
    # iterables, or a pre-parsed event stream.
    ids = repro.evaluate("//book[price < 30]//title", CATALOG)
    print("ids of cheap books' titles:", ids)

    # Node ids are pre-order positions; they are stable across engines.
    ids = repro.evaluate("//section//title", CATALOG)
    print("ids of section titles (recursive!):", ids)


def fragments() -> None:
    print("\n== XML fragment output (like the paper's implementation) ==")
    for fragment in select(CATALOG, "//book[price < 30]/title"):
        print(" ", fragment.text)


def engine_dispatch() -> None:
    print("\n== engine dispatch per query fragment ==")
    for query in ("//book//title",          # XP{/,//,*}    -> PathM
                  "/catalog/book[price]",   # XP{/,[]}      -> BranchM
                  "//section[@id]//title"): # XP{/,//,*,[]} -> TwigM
        stream = repro.XPathStream(query)
        print(f"  {query:28s} fragment={stream.query.fragment():15s} "
              f"machine={stream.engine_name}")


def push_style() -> None:
    print("\n== push-style: results as the data streams in ==")

    def on_match(node_id: int) -> None:
        print(f"  matched node {node_id} (before the document finished!)")

    stream = repro.XPathStream("//book[price < 30]//title", on_match=on_match)
    # Simulate network arrival in 40-byte chunks.
    for start in range(0, len(CATALOG), 40):
        stream.feed_text(CATALOG[start:start + 40])
    stream.close()


def error_handling() -> None:
    print("\n== error handling ==")
    try:
        repro.evaluate("//book[", CATALOG)
    except repro.XPathSyntaxError as exc:
        print("  query error:", exc)
    try:
        repro.evaluate("//book", "<catalog><book></catalog>")
    except repro.XmlSyntaxError as exc:
        print("  XML error:", exc)


if __name__ == "__main__":
    one_shot()
    fragments()
    engine_dispatch()
    push_style()
    error_handling()
