"""Decision provenance: record *why* every RFH action happened.

The ledger captures each partition's Fig. 2 evaluation per epoch —
every threshold predicate with its intermediate terms, every candidate
with its verdict, the chosen action and its engine fate — persists it
as a ``repro-prov`` v1 ``.prov.json`` artifact, and answers questions
about it (``repro explain``, ``repro provdiff``).
"""

from .artifact import PROV_FORMAT, PROV_VERSION, ProvArtifact
from .explain import render_explanation
from .provdiff import Divergence, ProvDiffReport, diff_provenance
from .recorder import DEFAULT_BUDGET, ProvenanceRecorder
from .records import (
    CandidateEval,
    DecisionDraft,
    DecisionRecord,
    PredicateEval,
)

__all__ = [
    "PROV_FORMAT",
    "PROV_VERSION",
    "ProvArtifact",
    "render_explanation",
    "Divergence",
    "ProvDiffReport",
    "diff_provenance",
    "DEFAULT_BUDGET",
    "ProvenanceRecorder",
    "CandidateEval",
    "DecisionDraft",
    "DecisionRecord",
    "PredicateEval",
]
