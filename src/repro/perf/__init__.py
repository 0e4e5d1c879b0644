"""The fused push-mode fast path, as a package-level façade.

The tokenizer has one scanner.  Its push face
(:meth:`~repro.stream.tokenizer.XmlTokenizer.feed_into`) matches tags
with compiled regexes and drives the machine's ``start_element`` /
``characters`` / ``end_element`` callbacks directly; the machine
dispatches each tag through a precomputed per-tag transition plan, and
``characters`` returns immediately while no value-tested node is open.
Every text feed in the library takes this path
(:meth:`~repro.core.processor.XPathStream.evaluate` /
:meth:`~repro.core.processor.XPathStream.feed_text`); the pull face,
:meth:`~repro.stream.tokenizer.XmlTokenizer.feed`, is a batched view
over the same scan that yields event objects.

Results, emission order, errors, diagnostics and resource-limit
enforcement are identical to the reference,
:class:`repro.bench.hotpath.ReferenceTokenizer` (the scanner with its
regex fast path switched off) feeding event objects to the machines —
the equivalence suite (``tests/test_push_equivalence.py``) and the CI
perf gate (``ci/perf_smoke.py``) hold the two bit-for-bit.

Entry points:

* :class:`PushPipeline` — one query bound to the fused pipeline,
  reusable across documents.
* :func:`repro.perf.profile_pipeline` — cProfile one evaluation and
  get the hot-spot table (also ``python -m repro profile``).
* :func:`repro.evaluate_push` — former name of :func:`repro.evaluate`.

Measured numbers live in ``BENCH_core.json`` (written by
``python -m repro.bench.hotpath``); see ``docs/PERFORMANCE.md``.
"""

from repro.core.processor import evaluate_push
from repro.perf.pipeline import PushPipeline
from repro.perf.profiling import profile_pipeline

__all__ = ["PushPipeline", "evaluate_push", "profile_pipeline"]
