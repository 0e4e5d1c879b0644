"""TwigM — an efficient XPath query processor for XML streams.

A complete, pure-Python reproduction of:

    Yi Chen, Susan B. Davidson, Yifeng Zheng.
    "An Efficient XPath Query Processor for XML Streams." ICDE 2006.

Quickstart::

    import repro

    ids = repro.evaluate("//book[price < 30]//title", "catalog.xml")

    stream = repro.XPathStream("//alert[severity = 'high']", on_match=print)
    for chunk in chunks:
        stream.feed_text(chunk)
    stream.close()

Packages:

* :mod:`repro.core` — the TwigM / PathM / BranchM machines.
* :mod:`repro.multiq` — shared multi-query dispatch (one routed parse).
* :mod:`repro.xpath` — XP{/,//,*,[]} parsing and query trees.
* :mod:`repro.stream` — modified-SAX events, parsers, DOM, serialization.
* :mod:`repro.obs` — opt-in metrics and tracing (pass ``metrics=``
  anywhere a stream is built; see ``docs/OBSERVABILITY.md``), and the
  ``python -m repro profile`` cProfile runner.
* :mod:`repro.serve` — fault-tolerant asyncio serving layer
  (``docs/SERVING.md``).
* :mod:`repro.store` — durable ingest log with checkpointed replay and
  structural indexing (``docs/STORE.md``).
* :mod:`repro.baselines` — the comparator engines of the evaluation.
* :mod:`repro.datasets` — Book / XMark / Protein corpus generators.
* :mod:`repro.bench` — the experiment harness (figures 5-10).
"""

from repro.core.processor import XPathStream, evaluate
from repro.core.twigm import TwigM
from repro.multiq.engine import MultiQueryEngine
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.errors import (
    CheckpointError,
    ReproError,
    ResourceLimitError,
    StreamStateError,
    UnsupportedQueryError,
    XmlSyntaxError,
    XPathSyntaxError,
)
from repro.stream.recovery import RecoveryPolicy, ResourceLimits, StreamDiagnostic
from repro.xpath.querytree import QueryTree, compile_query

__version__ = "1.7.0"

__all__ = [
    "CheckpointError",
    "MetricsRegistry",
    "MultiQueryEngine",
    "QueryTree",
    "RecoveryPolicy",
    "ReproError",
    "ResourceLimitError",
    "ResourceLimits",
    "StreamDiagnostic",
    "StreamStateError",
    "Tracer",
    "TwigM",
    "UnsupportedQueryError",
    "XPathStream",
    "XPathSyntaxError",
    "XmlSyntaxError",
    "compile_query",
    "evaluate",
    "__version__",
]
