"""Retry backoff policy shared by everything that retries.

One :class:`Backoff` instance describes the whole policy — exponential
growth, a hard cap, and *full jitter* (each delay is drawn uniformly
from ``[0, min(cap, base * 2**(attempt-1))]``, AWS-style) so a fleet of
clients retrying against one struggling server decorrelates instead of
stampeding in lockstep. It is used by:

* the :class:`~repro.explore.evaluator.Evaluator` between point retries
  (``retry_backoff`` is the ``base``);
* the :class:`~repro.serve.client.Client` between HTTP attempts against
  an exploration server.

Delays are *deadline-aware*: :meth:`Backoff.sleep` never sleeps past a
caller-supplied ``time.monotonic()`` deadline, so a bounded request
spends its remaining budget on one last attempt rather than on sleeping.
``base=0`` disables sleeping entirely (what the fault-injection suite
uses to keep retry storms instant).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Backoff:
    """Exponential backoff with full jitter and a cap.

    Args:
        base: First-attempt delay ceiling in seconds (0 disables sleep).
        cap: Upper bound any single delay may reach, in seconds.
        jitter: Draw each delay uniformly from ``[0, ceiling]``; with
            ``False`` the delay is the ceiling itself (deterministic,
            for tests that assert exact sleep sequences).
    """

    base: float = 0.1
    cap: float = 2.0
    jitter: bool = True

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError(f"base must be >= 0, got {self.base}")
        if self.cap < 0:
            raise ValueError(f"cap must be >= 0, got {self.cap}")

    def ceiling(self, attempt: int) -> float:
        """Largest possible delay after the ``attempt``-th failure (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt counts from 1, got {attempt}")
        return min(self.cap, self.base * (2.0 ** (attempt - 1)))

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """The (possibly jittered) delay to sleep after failure ``attempt``."""
        top = self.ceiling(attempt)
        if not self.jitter or top <= 0.0:
            return top
        return (rng or random).uniform(0.0, top)

    def sleep(
        self,
        attempt: int,
        *,
        deadline: Optional[float] = None,
        rng: Optional[random.Random] = None,
        _sleep=time.sleep,
    ) -> float:
        """Sleep the ``attempt``-th delay, truncated to ``deadline``.

        ``deadline`` is a ``time.monotonic()`` timestamp; the sleep never
        extends past it. Returns the seconds actually slept.
        """
        duration = self.delay(attempt, rng=rng)
        if deadline is not None:
            duration = min(duration, max(0.0, deadline - time.monotonic()))
        if duration > 0.0:
            _sleep(duration)
        return duration
