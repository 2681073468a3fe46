"""Cluster interconnect model: ciphertext and key traffic between devices.

The on-chip NoC (:mod:`repro.arch.noc`) moves key material *inside* one
Strix chip; a multi-device deployment also pays for traffic *between* chips
(and between the host and each chip) on a much slower link — PCIe- or
NVLink-class, configured by
:attr:`repro.arch.config.StrixClusterConfig.interconnect_gbps`.

Three payload families matter to the serving layer:

* **ciphertexts** — LWE vectors shipped with every dispatched batch (and
  between pipeline stages in the stage-per-device layout);
* **bootstrapping keys** — one GGSW per LWE-key bit, by far the largest
  payload; shipped when a tenant migrates to a device that does not hold
  its keys — or *re*-shipped when a finite key-memory budget evicted them
  (see :mod:`repro.arch.key_cache`);
* **keyswitching keys** — the second half of a tenant's server-key set,
  shipped together with the BSK on migration.

All byte counts derive from the same :class:`~repro.arch.memory
.GlobalScratchpad` arithmetic the bandwidth model uses, so on-chip and
inter-device accounting can never disagree about key sizes.

Link *failure* is modelled one level up: a :mod:`repro.faults` PARTITION
event makes a device unreachable for new placement (work in flight
completes, keys stay resident, the healed device rejoins warm), and a
DEVICE_DEATH forces the key re-shipping priced here when evicted tenants
land again — the injector attributes those bytes to the causing event.
"""

from __future__ import annotations

from repro.arch.config import StrixClusterConfig
from repro.arch.memory import COEFFICIENT_BYTES, GlobalScratchpad
from repro.params import TFHEParameters


class InterconnectModel:
    """Transfer-time model of the host/device and device/device links.

    One shared link bandwidth (``config.interconnect_gbps``, gigabytes per
    second) prices every payload; per-link contention is not modelled — the
    serving simulation serializes transfers onto device busy horizons
    instead.
    """

    def __init__(self, config: StrixClusterConfig):
        self.config = config
        self._scratchpad = GlobalScratchpad(config.device)

    # -- payload sizes -------------------------------------------------------

    def lwe_bytes(self, params: TFHEParameters) -> int:
        """Serialized size of one LWE ciphertext (``n + 1`` coefficients)."""
        return (params.n + 1) * COEFFICIENT_BYTES

    def ciphertext_bytes(self, params: TFHEParameters, count: int) -> int:
        """Bytes of ``count`` LWE ciphertexts crossing a link."""
        return count * self.lwe_bytes(params)

    def bootstrapping_key_bytes(self, params: TFHEParameters) -> int:
        """Full BSK size: one Fourier-domain GGSW per LWE-key bit."""
        return params.n * self._scratchpad.bootstrapping_key_fragment_bytes(params)

    def keyswitching_key_bytes(self, params: TFHEParameters) -> int:
        """Full KSK size (time-domain coefficients)."""
        return self._scratchpad.keyswitching_key_bytes(params)

    def key_set_bytes(self, params: TFHEParameters) -> int:
        """One tenant's full server-key payload (BSK + KSK)."""
        return self.bootstrapping_key_bytes(params) + self.keyswitching_key_bytes(
            params
        )

    # -- transfer times ------------------------------------------------------

    def transfer_s(self, payload_bytes: int) -> float:
        """Seconds to move ``payload_bytes`` over the interconnect."""
        if payload_bytes <= 0:
            return 0.0
        return payload_bytes / (self.config.interconnect_gbps * 1e9)

    def ciphertext_transfer_s(self, params: TFHEParameters, count: int) -> float:
        """Seconds to ship ``count`` LWE ciphertexts to (or between) devices."""
        return self.transfer_s(self.ciphertext_bytes(params, count))
