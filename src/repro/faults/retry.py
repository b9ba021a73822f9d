"""Retry policies and the per-VM circuit breaker.

:class:`RetryPolicy` decides how many times one operation may be
attempted and how long to back off between attempts (exponential with
seeded jitter, so retry schedules are as reproducible as everything else
in this package).  It is the *single* retry implementation in the
codebase: the measurement layer retries failed observations with it,
and the execution plane's work queue spaces the requeues of a grid cell
whose worker raised with it (:data:`~repro.parallel.queue.
DEFAULT_REQUEUE_POLICY`).  Charge accounting stays with the caller — every
attempt, failed or not, is billed by the cloud — the policy only shapes
the attempt schedule.

:class:`CircuitBreaker` tracks consecutive failures per VM and
quarantines a VM once they reach a threshold, so a search degrades to
the remaining catalog instead of burning its budget on a dead instance
type.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class RetryPolicy:
    """How one failed measurement is retried.

    The delay before retry ``k`` (1-based) is
    ``min(backoff_max_s, backoff_base_s * backoff_factor ** (k - 1))``,
    scaled by a jitter factor drawn uniformly from
    ``[1 - jitter, 1]`` using the caller's seeded generator — two runs
    with the same seed back off identically.

    Attributes:
        max_attempts: total attempts per observation (1 = no retries).
        backoff_base_s: delay before the first retry; 0 disables backoff.
        backoff_factor: multiplier applied per further retry.
        backoff_max_s: ceiling on any single delay.
        jitter: fraction of each delay randomised away (0 = none, 1 = up
            to the full delay).
        sleep: optional callable invoked with each delay — pass
            ``time.sleep`` against a live cloud; simulations leave it
            ``None`` and only account the wait.
    """

    max_attempts: int = 1
    backoff_base_s: float = 0.0
    backoff_factor: float = 2.0
    backoff_max_s: float = 60.0
    jitter: float = 0.5
    sleep: Callable[[float], None] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base_s < 0:
            raise ValueError(f"backoff_base_s must be >= 0, got {self.backoff_base_s}")
        if self.backoff_factor < 1:
            raise ValueError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if self.backoff_max_s < 0:
            raise ValueError(f"backoff_max_s must be >= 0, got {self.backoff_max_s}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    @classmethod
    def from_retries(cls, retries: int, **kwargs) -> RetryPolicy:
        """A retry counter (``--measure-retries``) as a policy."""
        if retries < 0:
            raise ValueError(f"measure_retries must be >= 0, got {retries}")
        return cls(max_attempts=retries + 1, **kwargs)

    def delay_for(self, retry: int, rng: np.random.Generator) -> float:
        """Backoff before 1-based retry number ``retry``.

        Always draws from ``rng`` (even when the base delay is zero) so
        the jitter stream stays aligned across configurations.
        """
        if retry < 1:
            raise ValueError(f"retry must be >= 1, got {retry}")
        scale = 1.0 - self.jitter * float(rng.random())
        if self.backoff_base_s == 0.0:
            # Exponent-first evaluation would overflow for large retry
            # indices even though the true delay is zero.
            return 0.0
        try:
            grown = self.backoff_base_s * self.backoff_factor ** (retry - 1)
        except OverflowError:
            # A float-pow overflow (factor ** ~1000s) means the ungrown
            # delay already dwarfs any cap: saturate instead of raising.
            # Queue cells carry unbounded attempt counters, so large
            # retry indices are reachable, not hypothetical.
            grown = float("inf")
        nominal = min(self.backoff_max_s, grown)
        return nominal * scale

    def wait(self, retry: int, rng: np.random.Generator) -> float:
        """Compute the delay for ``retry``, sleeping if configured."""
        delay = self.delay_for(retry, rng)
        if self.sleep is not None and delay > 0:
            self.sleep(delay)
        return delay


class CircuitBreaker:
    """Quarantine VMs after repeated consecutive measurement failures.

    Args:
        failure_threshold: consecutive failures (across retry rounds)
            after which a VM is quarantined.  A success resets the VM's
            count; quarantine is permanent for the life of the breaker.
        revocation_threshold: price-aware mode — *cumulative* spot
            revocations of one VM after which it is quarantined for
            churn, successes notwithstanding (a VM that keeps getting
            reclaimed is a bad spot buy even when its runs eventually
            finish).  ``None`` (the default) disables churn tracking;
            spot-priced searches enable it.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        revocation_threshold: int | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if revocation_threshold is not None and revocation_threshold < 1:
            raise ValueError(
                f"revocation_threshold must be >= 1 or None, got {revocation_threshold}"
            )
        self.failure_threshold = failure_threshold
        self.revocation_threshold = revocation_threshold
        self._consecutive: dict[str, int] = {}
        self._revocations: dict[str, int] = {}
        self._quarantined: set[str] = set()

    @property
    def quarantined(self) -> frozenset[str]:
        """Names of quarantined VMs."""
        return frozenset(self._quarantined)

    def is_quarantined(self, vm_name: str) -> bool:
        """Whether ``vm_name`` is quarantined."""
        return vm_name in self._quarantined

    def record_failure(self, vm_name: str) -> bool:
        """Count one failure; returns True if the VM is now quarantined."""
        count = self._consecutive.get(vm_name, 0) + 1
        self._consecutive[vm_name] = count
        if count >= self.failure_threshold:
            self._quarantined.add(vm_name)
        return vm_name in self._quarantined

    def record_revocation(self, vm_name: str) -> bool:
        """Count one spot revocation; returns True if the VM is now
        quarantined for churn.

        Revocations accumulate for the life of the breaker — a later
        success does *not* reset them (unlike consecutive failures):
        churn is a market property of the VM, not a transient health
        blip.  Without a ``revocation_threshold`` this only counts.
        """
        count = self._revocations.get(vm_name, 0) + 1
        self._revocations[vm_name] = count
        if self.revocation_threshold is not None and count >= self.revocation_threshold:
            self._quarantined.add(vm_name)
        return vm_name in self._quarantined

    def revocation_count(self, vm_name: str) -> int:
        """Cumulative revocations recorded for ``vm_name``."""
        return self._revocations.get(vm_name, 0)

    def record_success(self, vm_name: str) -> None:
        """A successful measurement clears the VM's consecutive count."""
        self._consecutive[vm_name] = 0

    def reset(self) -> None:
        """Forget all failure counts, revocations and quarantines."""
        self._consecutive.clear()
        self._revocations.clear()
        self._quarantined.clear()
