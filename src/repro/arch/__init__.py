"""Strix architecture model.

Cycle-level timing, bandwidth, area and power models of the Strix
accelerator (Sections IV–V of the paper): the four-level parallelism
configuration, the five specialized functional units, the Homomorphic
Streaming Core (HSC) with its six-stage PBS pipeline and keyswitch cluster,
the two-level scratchpad hierarchy with a multicast NoC, and the HBM
interface.  The top-level :class:`repro.arch.accelerator.StrixAccelerator`
combines these into latency / throughput / bandwidth estimates for any TFHE
parameter set, and drives the cycle-level simulation in :mod:`repro.sim`.
"""

from repro.arch.config import (
    STRIX_DEFAULT,
    STRIX_UNFOLDED,
    StrixClusterConfig,
    StrixConfig,
)
from repro.arch.accelerator import StrixAccelerator, PbsPerformance
from repro.arch.area_power import AreaPowerModel
from repro.arch.interconnect import InterconnectModel
from repro.arch.key_cache import (
    DeviceKeyCache,
    KeyCacheStats,
    KeyEvictionPolicy,
    KeyResidencyManager,
    LFUEvictionPolicy,
    LRUEvictionPolicy,
    PinnedTenantPolicy,
    get_key_policy,
    hbm_key_budget_bytes,
    list_key_policies,
)

__all__ = [
    "StrixConfig",
    "StrixClusterConfig",
    "STRIX_DEFAULT",
    "STRIX_UNFOLDED",
    "StrixAccelerator",
    "PbsPerformance",
    "AreaPowerModel",
    "InterconnectModel",
    "DeviceKeyCache",
    "KeyCacheStats",
    "KeyEvictionPolicy",
    "KeyResidencyManager",
    "LFUEvictionPolicy",
    "LRUEvictionPolicy",
    "PinnedTenantPolicy",
    "get_key_policy",
    "hbm_key_budget_bytes",
    "list_key_policies",
]
