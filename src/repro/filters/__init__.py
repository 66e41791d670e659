"""Query scoring and prioritization (paper sections 4.3.3-4.3.4).

A pipeline of filters assigns each query a penalty score measuring how
suspicious it is; scores map to priority queues so legitimate traffic is
served first when compute saturates, and definitively malicious queries
are dropped outright.
"""

from .allowlist import ActivationPolicy, AllowlistConfig, AllowlistFilter
from .base import Filter, QueryContext, ScoringPipeline
from .hopcount import HopCountFilter
from .loyalty import LoyaltyFilter
from .nxdomain import NXDomainConfig, NXDomainFilter
from .ratelimit import RateLimitFilter
from .scoring import QueuePolicy

__all__ = [
    "ActivationPolicy", "AllowlistConfig", "AllowlistFilter", "Filter",
    "HopCountFilter", "LoyaltyFilter", "NXDomainConfig", "NXDomainFilter",
    "QueryContext", "QueuePolicy", "RateLimitFilter", "ScoringPipeline",
]
