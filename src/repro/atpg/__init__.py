"""ATPG layer: justification, dynamic compaction, and test enrichment."""

from .bnb import BranchAndBoundJustifier, SearchExhausted
from .enrich import EnrichmentReport, generate_enriched
from .generator import (
    AtpgConfig,
    Heuristic,
    TestGenerator,
    generate_basic,
)
from .heuristics import longest_first, order_pool
from .justify import (
    Justifier,
    JustifyResult,
    JustifyStats,
    has_implication_conflict,
)
from .requirements import RequirementSet
from .result import GeneratedTest, GenerationResult
from .static_compaction import StaticCompactionResult, compact_tests

__all__ = [
    "RequirementSet",
    "Justifier",
    "JustifyResult",
    "JustifyStats",
    "has_implication_conflict",
    "BranchAndBoundJustifier",
    "SearchExhausted",
    "AtpgConfig",
    "Heuristic",
    "TestGenerator",
    "generate_basic",
    "GeneratedTest",
    "GenerationResult",
    "EnrichmentReport",
    "generate_enriched",
    "order_pool",
    "longest_first",
    "compact_tests",
    "StaticCompactionResult",
]
