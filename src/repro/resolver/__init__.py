"""Recursive resolver simulation: cache, selection strategies, iteration."""

from .cache import CacheEntry, DNSCache, NegativeEntry
from .resolver import (
    DEFAULT_TIMEOUT,
    MAX_ATTEMPTS,
    RecursiveResolver,
    ResolutionResult,
)
from .service import (
    ClientResult,
    ResolverService,
    ServiceStats,
    StubClient,
)
from .selection import SelectionStrategy, UniformSelection

__all__ = [
    "CacheEntry", "ClientResult", "DEFAULT_TIMEOUT", "DNSCache",
    "MAX_ATTEMPTS", "NegativeEntry", "RecursiveResolver", "ResolutionResult",
    "ResolverService", "SelectionStrategy", "ServiceStats", "StubClient",
    "UniformSelection",
]
