"""The assembled Akamai DNS platform (paper sections 3-5).

Anycast cloud inventory and delegation assignment, the full deployment
facade, the Two-Tier delegation model, and anycast traffic engineering.
"""

from .clouds import (
    AnycastCloudSpec,
    CDN_DELEGATION_COUNT,
    DELEGATION_SET_SIZE,
    DelegationAssigner,
    MAX_ENTERPRISES,
    TOTAL_CLOUDS,
    all_clouds,
)
from .deployment import (
    AkamaiDNSDeployment,
    DeploymentParams,
    MachineDeployment,
    ROOT_SERVER_ADDRESS,
    TLD_SERVER_ADDRESS,
)
from .traffic_eng import (
    AttackSituation,
    TEAction,
    TEPlan,
    TrafficEngineer,
    decide,
)
from .twotier import (
    DELEGATION_TTL,
    HOSTNAME_TTL,
    TailoredDelegationProvider,
    TwoTierNames,
    average_rtt,
    build_lowlevel_zone,
    build_toplevel_zone,
    expected_rt,
    speedup,
    weighted_rtt,
)

__all__ = [
    "AkamaiDNSDeployment", "AnycastCloudSpec", "AttackSituation",
    "CDN_DELEGATION_COUNT", "DELEGATION_SET_SIZE", "DELEGATION_TTL",
    "DelegationAssigner", "DeploymentParams", "HOSTNAME_TTL",
    "MAX_ENTERPRISES", "MachineDeployment", "ROOT_SERVER_ADDRESS",
    "TEAction", "TEPlan", "TLD_SERVER_ADDRESS", "TOTAL_CLOUDS",
    "TailoredDelegationProvider", "TrafficEngineer", "TwoTierNames",
    "all_clouds", "average_rtt", "build_lowlevel_zone",
    "build_toplevel_zone", "decide", "expected_rt", "speedup",
    "weighted_rtt",
]
