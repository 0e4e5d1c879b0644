"""XML streaming substrate: events, parsers, in-memory trees, serialization.

This package implements everything below the query engines:

* :mod:`repro.stream.events` — the paper's modified-SAX event model.
* :mod:`repro.stream.tokenizer` — incremental XML tokenizer: Expat (the
  parser the paper's implementation used) under the strict policy, a
  pure-Python scanner for the lenient ones and as the reference.
* :mod:`repro.stream.document` — in-memory DOM for non-streaming engines.
* :mod:`repro.stream.writer` — serialization back to XML text.
* :mod:`repro.stream.recovery` — recovery policies, diagnostics, limits.
* :mod:`repro.stream.faults` — deterministic fault injection for tests.
"""

from repro.stream.document import Document, Element, build_document
from repro.stream.events import (
    Characters,
    EndElement,
    Event,
    EventStream,
    StartElement,
    count_elements,
    document_depth,
    validate_events,
    well_nested,
)
from repro.stream.faults import (
    FaultyChunks,
    FaultyEvents,
    InjectedFault,
    byte_split_chunks,
    corrupt_text,
)
from repro.stream.recovery import (
    ACTION_REPAIRED,
    ACTION_SKIPPED,
    RecoveryPolicy,
    ResourceLimits,
    StreamDiagnostic,
)
from repro.stream.namespaces import (
    XML_NAMESPACE,
    clark,
    resolve_namespaces,
    split_clark,
    translate_name,
)
from repro.stream.tokenizer import (
    XmlTokenizer,
    events_from,
    parse_chunks,
    parse_file,
    parse_string,
)
from repro.stream.writer import (
    document_to_string,
    element_to_string,
    events_to_string,
    write_events,
    write_file,
)

__all__ = [
    "ACTION_REPAIRED",
    "ACTION_SKIPPED",
    "XML_NAMESPACE",
    "clark",
    "resolve_namespaces",
    "split_clark",
    "translate_name",
    "Characters",
    "FaultyChunks",
    "FaultyEvents",
    "InjectedFault",
    "RecoveryPolicy",
    "ResourceLimits",
    "StreamDiagnostic",
    "byte_split_chunks",
    "corrupt_text",
    "well_nested",
    "Document",
    "Element",
    "EndElement",
    "Event",
    "EventStream",
    "StartElement",
    "XmlTokenizer",
    "build_document",
    "count_elements",
    "document_depth",
    "document_to_string",
    "element_to_string",
    "events_from",
    "events_to_string",
    "parse_chunks",
    "parse_file",
    "parse_string",
    "validate_events",
    "write_events",
    "write_file",
]
