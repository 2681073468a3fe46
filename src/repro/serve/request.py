"""Client requests: the unit of work the serving layer coalesces.

A *request* is what one tenant submits in one call — "bootstrap these 32
ciphertexts", "run NN-20 on 4 encrypted samples" — deliberately much smaller
than the device×core epoch the accelerator wants to see.  The batcher's job
is to merge many of them; this module only defines the request itself, its
PBS cost model, and the per-request outcome the metrics layer consumes.
"""

from __future__ import annotations

import enum
from operator import attrgetter
from typing import NamedTuple


class RequestKind(enum.Enum):
    """What a client asked the service to do."""

    ENCRYPT = "encrypt"
    GATE = "gate"
    BOOTSTRAP = "bootstrap"
    INFERENCE = "inference"


#: PBS executed per item for the fixed-cost kinds.  Encryption is host-side
#: (linear work only); a gate bootstrap and a PBS both cost one bootstrap per
#: item.  INFERENCE cost depends on the model and is resolved at submit time.
_FIXED_PBS_PER_ITEM = {
    RequestKind.ENCRYPT: 0,
    RequestKind.GATE: 1,
    RequestKind.BOOTSTRAP: 1,
}


def pbs_per_item(kind: RequestKind, model: str | None = None) -> int:
    """PBS cost of one item of a request kind.

    For ``INFERENCE`` the cost is the full PBS count of the named Deep-NN
    model (one item = one encrypted sample pushed through the network).
    """
    if kind is RequestKind.INFERENCE:
        if model is None:
            raise ValueError("inference requests need a model name (e.g. 'NN-20')")
        from repro.apps.deep_nn import ZAMA_DEEP_NN_MODELS

        try:
            return ZAMA_DEEP_NN_MODELS[model].pbs_count()
        except KeyError:
            raise KeyError(
                f"unknown Deep-NN model {model!r}; known models: "
                f"{sorted(ZAMA_DEEP_NN_MODELS)}"
            ) from None
    return _FIXED_PBS_PER_ITEM[kind]


class _RequestSlots:
    """The eight slots of a :class:`Request`, stored once by ``Request.__new__``."""

    __slots__ = (
        "request_id", "tenant", "kind", "items", "pbs_per_item", "arrival_s", "model", "deadline_s"
    )


#: A request's eight fields as a tuple, in declaration order.
_fields = attrgetter(*_RequestSlots.__slots__)


class Request(_RequestSlots):
    """One tenant submission awaiting batching.

    A request is immutable: assigning or deleting a field raises
    ``AttributeError``, and ``==`` / ``hash`` go by its eight fields.

    Attributes
    ----------
    request_id:
        Monotonically increasing id assigned at submission.
    tenant:
        Logical client the request belongs to (keys are per-tenant).
    kind:
        The requested operation.
    items:
        Independent ciphertexts (or encrypted samples for inference) the
        request covers — the batchable quantity.
    pbs_per_item:
        Bootstraps one item costs on the accelerator.
    arrival_s:
        Submission time on the serving clock.
    model:
        Deep-NN model name for ``INFERENCE`` requests, ``None`` otherwise.
    deadline_s:
        Absolute serving-clock time after which the result is worthless to
        the client, or ``None`` (no deadline).  The batcher drops expired
        requests at batch-assembly time — counted, never executed.
    """

    __slots__ = ()

    def __new__(cls, request_id: int, tenant: str, kind: RequestKind, items: int,
                pbs_per_item: int, arrival_s: float, model: str | None = None,
                deadline_s: float | None = None) -> "Request":  # fmt: skip
        # Request refuses __setattr__, so a base-class draft takes the plain slot stores.
        if items < 1:
            raise ValueError("a request must cover at least one item")
        if pbs_per_item < 0:
            raise ValueError("pbs_per_item cannot be negative")
        draft = object.__new__(_RequestSlots)
        draft.request_id = request_id
        draft.tenant = tenant
        draft.kind = kind
        draft.items = items
        draft.pbs_per_item = pbs_per_item
        draft.arrival_s = arrival_s
        draft.model = model
        draft.deadline_s = deadline_s
        draft.__class__ = cls
        return draft

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"a Request is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _fields(self) == _fields(other)

    def __hash__(self) -> int:
        return hash(_fields(self))

    def __reduce__(self):
        return self.__class__, _fields(self)

    def __repr__(self) -> str:
        pairs = zip(_RequestSlots.__slots__, _fields(self))
        return f"Request({', '.join(f'{name}={value!r}' for name, value in pairs)})"

    @property
    def total_pbs(self) -> int:
        """Bootstraps the whole request costs."""
        return self.items * self.pbs_per_item

    def expired(self, now_s: float) -> bool:
        """Whether the request's deadline has passed at ``now_s``."""
        return self.deadline_s is not None and now_s > self.deadline_s

    @classmethod
    def make(
        cls,
        request_id: int,
        tenant: str,
        kind: RequestKind | str,
        items: int = 1,
        arrival_s: float = 0.0,
        model: str | None = None,
        deadline_s: float | None = None,
    ) -> "Request":
        """Build a request, resolving the PBS cost of its kind."""
        resolved = RequestKind(kind) if isinstance(kind, str) else kind
        return cls(
            request_id=request_id,
            tenant=tenant,
            kind=resolved,
            items=items,
            pbs_per_item=pbs_per_item(resolved, model),
            arrival_s=arrival_s,
            model=model,
            deadline_s=deadline_s,
        )


class RequestOutcome(NamedTuple):
    """Where and when a request actually executed.

    A named tuple: a run keeps one per served request, so it is built at the
    price of a tuple and carries no ``__dict__``.
    """

    request: Request
    batch_id: int
    device: int
    dispatched_s: float
    completed_s: float

    @property
    def latency_s(self) -> float:
        """End-to-end latency the tenant observed (arrival to completion)."""
        return self.completed_s - self.request.arrival_s

    @property
    def queue_delay_s(self) -> float:
        """Time spent waiting for the batcher/devices before execution."""
        return self.dispatched_s - self.request.arrival_s
