"""Cooperative budgets: a cancellation token long-running conversions poll.

Conversions with potentially exponential behaviour call :func:`checkpoint`
inside their main loops; the active token can be cancelled (Ctrl-C in the
CLI) or carry a wall-clock deadline.  Exceeding a budget raises the typed
:class:`BudgetExceededError`, never an abort.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Optional

from .errors import RexlabError

__all__ = ["BudgetExceededError", "CancelToken", "checkpoint", "active", "DEFAULT_MAX_STATES"]

DEFAULT_MAX_STATES = 1_000_000


class BudgetExceededError(RexlabError):
    """A state/word/candidate/time budget was exhausted."""


class CancelToken:
    def __init__(self, deadline_ms: Optional[float] = None):
        self.cancelled = False
        self._deadline = None if deadline_ms is None else time.monotonic() + deadline_ms / 1000.0

    def cancel(self):
        self.cancelled = True

    def check(self):
        if self.cancelled:
            raise BudgetExceededError("operation cancelled")
        if self._deadline is not None and time.monotonic() > self._deadline:
            raise BudgetExceededError("wall-clock budget exhausted")


_current: ContextVar[Optional[CancelToken]] = ContextVar("rexlab_cancel_token", default=None)


def checkpoint():
    token = _current.get()
    if token is not None:
        token.check()


@contextmanager
def active(token: CancelToken):
    """Install ``token`` as the one polled by checkpoints in this context."""
    handle = _current.set(token)
    try:
        yield token
    finally:
        _current.reset(handle)
