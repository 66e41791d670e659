"""Recursive resolver simulation: cache and iteration."""

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

__all__ = [
    "CacheEntry", "ClientResult", "DEFAULT_TIMEOUT", "DNSCache",
    "MAX_ATTEMPTS", "NegativeEntry", "RecursiveResolver", "ResolutionResult",
    "ResolverService", "ServiceStats", "StubClient",
]
