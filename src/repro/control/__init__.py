"""Supporting control-plane components (paper Figure 5).

Publish/subscribe metadata delivery, mapping intelligence, the
management portal, and the monitoring/automated-recovery system with its
quorum-limited suspension coordinator.
"""

from .consensus import QuorumSuspensionCoordinator
from .defense import (
    DefenseController,
    DefenseRung,
    DefenseTransition,
    FilterInsertRung,
    FirewallRuleRung,
    QueueTightenRung,
    TrafficEngRung,
)
from .mapping import (
    CDN_ANSWER_TTL,
    EdgeServer,
    GTMProperty,
    MapSnapshot,
    MappingIntelligence,
    MappingView,
    nearest_edges,
)
from .portal import (
    Enterprise,
    ManagementPortal,
    PortalLimits,
    ValidationError,
)
from .pubsub import (
    CDN_CHANNEL,
    MULTICAST_CHANNEL,
    ChannelProfile,
    MetadataBus,
    MetadataMessage,
)
from .recovery import Alert, FleetSnapshot, RecoverySystem
from .rollout import (
    CanaryHealthGate,
    Release,
    RolloutCoordinator,
    RolloutEvent,
    RolloutParams,
    RolloutPhase,
)
from .reporting import (
    TrafficCollector,
    ZoneCounter,
    ZoneTrafficReport,
    ZoneTrafficSample,
)

__all__ = [
    "Alert", "CDN_ANSWER_TTL", "CDN_CHANNEL", "ChannelProfile",
    "DefenseController", "DefenseRung",
    "DefenseTransition", "EdgeServer", "Enterprise",
    "FilterInsertRung", "FirewallRuleRung", "FleetSnapshot",
    "GTMProperty", "MULTICAST_CHANNEL",
    "ManagementPortal", "MapSnapshot",
    "MappingIntelligence", "MappingView", "MetadataBus", "MetadataMessage",
    "CanaryHealthGate", "PortalLimits", "QueueTightenRung",
    "QuorumSuspensionCoordinator",
    "RecoverySystem", "Release", "RolloutCoordinator", "RolloutEvent",
    "RolloutParams", "RolloutPhase", "TrafficCollector", "TrafficEngRung",
    "ValidationError", "ZoneCounter",
    "ZoneTrafficReport", "ZoneTrafficSample",
    "nearest_edges",
]
