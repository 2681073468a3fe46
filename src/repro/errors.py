"""Shared registry-lookup errors with a did-you-mean rendering.

The stack grew several string-keyed registries — execution backends,
sharding policies, placement layouts, cost models — and each used to fail
lookups its own way (bare ``KeyError``, ad-hoc ``ValueError``).  They now
share one error shape: a plain-sentence message listing every registered
name, a did-you-mean suggestion when one is close, and pickling that
survives process boundaries (xdist workers, executors).

Subclasses set :attr:`UnknownNameError.kind` to the registry's noun
(``"backend"``, ``"sharding policy"``, ...) and keep whatever base classes
their callers historically caught (``KeyError`` here; policies add
``ValueError``).
"""

from __future__ import annotations

import difflib


class UnknownNameError(KeyError):
    """A name was looked up in a registry that does not contain it.

    Subclasses ``KeyError`` for compatibility with callers that catch the
    registries' historical exception, but renders as a plain sentence (bare
    ``KeyError`` wraps its message in quotes) listing every registered name
    and, when one is close, a did-you-mean suggestion.
    """

    #: Noun describing what the registry holds (set by subclasses).
    kind = "name"
    #: Plural of :attr:`kind` when adding ``"s"`` is not enough.
    kind_plural: str | None = None

    def __init__(self, name: str, registered: list[str]):
        self.name = name
        self.registered = registered
        plural = self.kind_plural or f"{self.kind}s"
        message = f"unknown {self.kind} {name!r}; registered {plural}: {registered}"
        matches = difflib.get_close_matches(name, registered, n=1)
        if matches:
            message += f" — did you mean {matches[0]!r}?"
        super().__init__(message)

    def __str__(self) -> str:  # KeyError.__str__ shows repr(args[0]); undo that.
        return self.args[0]

    def __reduce__(self):  # BaseException pickles as cls(*args); args is the message.
        return (type(self), (self.name, self.registered))


class UnknownPolicyError(UnknownNameError, ValueError):
    """Unknown sharding-policy name.

    Also a ``ValueError``: that is what :func:`repro.serve.sharding
    .get_policy` historically raised, and callers match on it.
    """

    kind = "sharding policy"
    kind_plural = "sharding policies"


class UnknownLayoutError(UnknownNameError):
    """Unknown placement-layout name."""

    kind = "placement layout"


class UnknownCostModelError(UnknownNameError):
    """Unknown cost-model name."""

    kind = "cost model"


class UnknownKeyPolicyError(UnknownNameError):
    """Unknown key-cache eviction-policy name."""

    kind = "key-cache policy"
    kind_plural = "key-cache policies"


class UnknownMetricError(UnknownNameError):
    """Unknown metric name in a :class:`repro.obs.MetricsRegistry`."""

    kind = "metric"


class UnknownAdmissionPolicyError(UnknownNameError, ValueError):
    """Unknown admission-policy name (``repro.flow.get_admission_policy``).

    Also a ``ValueError``: admission is an argument-validation surface
    (``Server(admission=...)``) and its callers match on ``ValueError``
    like the sharding-policy knob.
    """

    kind = "admission policy"
    kind_plural = "admission policies"
