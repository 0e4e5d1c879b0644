"""The paper's contribution: PathM, BranchM and TwigM machines.

* :mod:`repro.core.machine` — machine construction (section 4.2).
* :mod:`repro.core.pathm` — XP{/,//,*} evaluation (section 3.1).
* :mod:`repro.core.branchm` — XP{/,[]} evaluation (section 3.2).
* :mod:`repro.core.twigm` — XP{/,//,*,[]} evaluation (sections 3.3, 4).
* :mod:`repro.core.processor` — fragment dispatch and the public API.
* :mod:`repro.core.textfeed` — the one text front door every face feeds
  raw XML through (tokenizer, turbo choice, close, snapshot key).
* :mod:`repro.core.results` — incremental result sinks.
* :mod:`repro.core.fragments` — XML-fragment output with buffer GC.
* :mod:`repro.core.debug` — machine/state rendering and tracing.
"""

from repro.core.branchm import BranchM, evaluate_branchm
from repro.core.fragments import FragmentCapture, evaluate_fragments
from repro.core.machine import EDGE_EQ, EDGE_GE, Machine, MachineNode, build_machine
from repro.core.pathm import PathM, evaluate_pathm
from repro.core.processor import XPathStream, evaluate, select_engine_class
from repro.core.results import CallbackSink, CollectingSink, CountingSink, ResultSink
from repro.core.twigm import CandidateTracker, StackEntry, TwigM, evaluate_twigm

__all__ = [
    "CandidateTracker",
    "FragmentCapture",
    "evaluate_fragments",
    "EDGE_EQ",
    "EDGE_GE",
    "BranchM",
    "CallbackSink",
    "CollectingSink",
    "CountingSink",
    "Machine",
    "MachineNode",
    "PathM",
    "ResultSink",
    "StackEntry",
    "TwigM",
    "XPathStream",
    "build_machine",
    "evaluate",
    "evaluate_branchm",
    "evaluate_pathm",
    "evaluate_twigm",
    "select_engine_class",
]
