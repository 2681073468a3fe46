"""The two typed errors a client raises for a request the server did not answer with a result.

:class:`ServerBusyError` is the server's BUSY reply (with its retry-after hint) and
:class:`RequestTimeoutError` a request that outlived its per-request timeout; both are
what :mod:`repro.net.client` raises and :func:`repro.net.loadgen.closed_loop_async`
counts as abandoned.
"""

from __future__ import annotations


class RequestTimeoutError(TimeoutError):
    """A submitted request did not complete within its per-request timeout.

    Also a ``TimeoutError``: callers that already handle socket timeouts
    catch this without change.
    """


class ServerBusyError(RuntimeError):
    """The server answered ``BUSY`` — over capacity, try again later.

    ``retry_after_s`` is the server's deterministic backoff hint.
    """

    def __init__(self, message: str, retry_after_s: float = 0.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s
