"""Backend protocol and named registry.

A *backend* is anything that can execute a workload and report a
:class:`~repro.runtime.result.RunResult`: the functional TFHE interpreter,
the cycle-level Strix simulator, or an analytical platform model.  Backends
register themselves under short names (``"reference"``, ``"strix-sim"``,
``"cpu-analytical"``, ``"gpu-analytical"``) so callers select execution
targets by string — the pluggability every scaling layer (sharding, async
serving) builds on.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Callable, ClassVar

from repro.errors import UnknownNameError
from repro.params import TFHEParameters
from repro.registry import Registry
from repro.runtime.result import RunResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.runtime.session import Session


class Backend(abc.ABC):
    """Executes workloads; every concrete backend implements :meth:`run`."""

    #: Registry name of the backend (set by subclasses).
    name: ClassVar[str] = ""

    @abc.abstractmethod
    def run(
        self,
        workload: Any,
        *,
        params: TFHEParameters | str | None = None,
        session: "Session | None" = None,
        inputs: Any = None,
        instances: int = 1,
        **options: Any,
    ) -> RunResult:
        """Execute ``workload`` and return a :class:`RunResult`.

        Backends accept the full keyword set and ignore what they do not
        model (the simulator has no use for ``inputs``; the functional
        interpreter has no use for resource options), so one call signature
        works across all of them.
        """


class UnknownBackendError(UnknownNameError):
    """Raised when a backend name is not in the registry.

    The shared :class:`~repro.errors.UnknownNameError` shape: still a
    ``KeyError`` for callers catching the registry's historical exception,
    renders as a plain sentence listing every registered backend with a
    did-you-mean suggestion, and survives pickling.
    """

    kind = "backend"


_REGISTRY: Registry[Backend] = Registry(UnknownBackendError)


def register_backend(name: str, factory: Callable[..., Backend]) -> None:
    """Register a backend factory under ``name``.

    ``factory`` is called with the keyword arguments given to
    :func:`get_backend` and must return a :class:`Backend`.  Re-registering
    an existing name replaces the factory (deliberate: tests and downstream
    deployments swap implementations in).
    """
    _REGISTRY.register(name, factory)


def unregister_backend(name: str) -> None:
    """Test fixture (undoes :func:`register_backend`): remove a backend, no-op when absent."""
    _REGISTRY.unregister(name)


#: Names of all registered backends, sorted.
list_backends = _REGISTRY.names


def get_backend(name: str, **factory_options: Any) -> Backend:
    """Instantiate the backend registered under ``name``.

    Raises :class:`UnknownBackendError` (a ``KeyError``) listing the known
    names — plus a did-you-mean suggestion — when ``name`` is unknown.
    """
    return _REGISTRY.get(name, **factory_options)
