"""One string-keyed registry behind every ``list_x()`` / ``get_x()`` pair."""

from __future__ import annotations

from typing import Any, Callable, Generic, Iterable, TypeVar

from repro.errors import UnknownNameError

T = TypeVar("T")


class Registry(Generic[T]):
    """Named factories of ``T`` — backends, policies, layouts, cost models.

    An unknown name raises ``error``, the registry's own
    :class:`~repro.errors.UnknownNameError` subclass (registered names
    listed, did-you-mean suggestion, picklable).  With ``base`` given,
    :meth:`get` passes an instance of it through unchanged, so configuration
    knobs accept a name or a ready-made object.  ``builtin`` factories
    register under their ``name`` attribute.
    """

    def __init__(
        self,
        error: type[UnknownNameError],
        base: type[T] | None = None,
        builtin: Iterable[Callable[..., T]] = (),
    ):
        self._error = error
        self._base = base
        self._factories: dict[str, Callable[..., T]] = {
            factory.name: factory for factory in builtin
        }

    def register(self, name: str, factory: Callable[..., T]) -> None:
        """Register ``factory`` under ``name`` (replacing an earlier one)."""
        if not name:
            raise ValueError(f"{self._error.kind} name must be non-empty")
        self._factories[name] = factory

    def unregister(self, name: str) -> None:
        """Remove ``name`` (no-op when absent)."""
        self._factories.pop(name, None)

    def names(self) -> list[str]:
        """Every registered name, sorted."""
        return sorted(self._factories)

    def get(self, name: "str | T", **options: Any) -> T:
        """Build the ``T`` registered under ``name`` with ``options``."""
        if self._base is not None and isinstance(name, self._base):
            return name
        try:
            factory = self._factories[name]
        except KeyError:
            raise self._error(name, self.names()) from None
        return factory(**options)
