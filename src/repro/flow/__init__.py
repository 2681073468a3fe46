"""repro.flow — end-to-end overload protection.

The serving stack survives *device* failures (``repro.faults``); this
package makes it survive *load*.  Two layers, one control loop:

* **Admission** (:mod:`repro.flow.admission`) — pluggable policies that
  decide, per arriving request, admit / shed-queued-work / reject, against
  bounded global and per-tenant queue capacities.
* **Control** (:mod:`repro.flow.control`) — the per-server
  :class:`FlowController` that executes decisions, drops expired work and
  keeps the deterministic overload ledger reports and STATS frames expose.

A client sees the outcome as a typed error (:mod:`repro.flow.retry`):
:class:`ServerBusyError` for a BUSY reply with its retry-after hint,
:class:`RequestTimeoutError` for a request that outlived its timeout.

Everything is deterministic by construction: decisions are pure functions
of queue state, and the ledger counts on the serving clock.  A
replayed overload trace sheds bit-for-bit the same requests every run,
and with the defaults (no admission, no capacities) the layer is inert —
output stays byte-identical to a stack without it.
"""

from repro.flow.admission import (
    AdmissionDecision,
    AdmissionLimits,
    AdmissionPolicy,
    RejectNewestPolicy,
    ShedOldestPolicy,
    TenantQuotaPolicy,
    get_admission_policy,
    list_admission_policies,
)
from repro.flow.control import (
    DeadlineExceededError,
    FlowController,
    RequestRejectedError,
)
from repro.flow.retry import (
    RequestTimeoutError,
    ServerBusyError,
)
from repro.serve.queue import QueueOverflowError

__all__ = [
    "AdmissionDecision",
    "AdmissionLimits",
    "AdmissionPolicy",
    "DeadlineExceededError",
    "FlowController",
    "QueueOverflowError",
    "RejectNewestPolicy",
    "RequestRejectedError",
    "RequestTimeoutError",
    "ServerBusyError",
    "ShedOldestPolicy",
    "TenantQuotaPolicy",
    "get_admission_policy",
    "list_admission_policies",
]
