"""Structured per-search event stream.

Every search emits an append-only sequence of :class:`SearchEvent`
records — measurement lifecycle, surrogate fits, VM quarantines — that
rides on :class:`~repro.core.result.SearchResult`.  The stream is the
single surface shared by live progress reporting (the parallel engine
forwards it from workers) and post-hoc analysis (it round-trips through
the experiment cache), so neither needs its own bookkeeping.

Events are deliberately flat and stringly-detailed: a kind, the 1-based
step the search was working towards, an optional VM name, and a free-form
detail.  Position in the stream is the ordering; there is no timestamp
(searches replay deterministically, wall-clock would break bit-identical
caching).
"""

from __future__ import annotations

from dataclasses import dataclass

#: The event vocabulary.  ``measurement_started`` fires once per charged
#: attempt (so retries are visible), ``measurement_failed`` once per
#: failed attempt, ``measurement_finished`` once per successful
#: observation, ``vm_quarantined`` once per VM the circuit breaker trips
#: on, ``surrogate_fitted`` once per acquisition round, and
#: ``stopping_rule_fired`` once, when an early-stopping criterion ends
#: the search (detail carries the rule name and threshold), and
#: ``cell_retried`` when the work queue's coordinator had to retry
#: the whole cell this result came from (a worker-side failure preceded
#: it; the mirror makes the retry visible in the persisted record).
#: Batched searches (``batch_size > 1``) additionally emit
#: ``batch_suggested`` once per round, when the acquisition picks its
#: q-point batch (detail carries the picked VM names in pick order), and
#: ``batch_measured`` once the round's measurements are committed
#: (detail carries the success count); the per-measurement lifecycle
#: events between them are replayed in catalog-index order.
#: Spot-priced searches additionally emit ``spot_revoked`` once per
#: market revocation (detail carries the fraction completed and the
#: partial charge billed at the spot price) and ``fallback_to_ondemand``
#: once per observation whose retry ladder exhausted its spot patience
#: and switched the remaining attempts to guaranteed on-demand capacity.
EVENT_KINDS: tuple[str, ...] = (
    "measurement_started",
    "measurement_finished",
    "measurement_failed",
    "vm_quarantined",
    "surrogate_fitted",
    "stopping_rule_fired",
    "cell_retried",
    "batch_suggested",
    "batch_measured",
    "spot_revoked",
    "fallback_to_ondemand",
)


@dataclass(frozen=True, slots=True)
class SearchEvent:
    """One entry in a search's event stream.

    Attributes:
        kind: one of :data:`EVENT_KINDS`.
        step: the 1-based step the search was working towards when the
            event fired (successful observations so far + 1; for
            ``surrogate_fitted`` this is the step the fit will choose).
        vm_name: the VM involved, when the event concerns one.
        detail: free-form context — attempt number, error text,
            measured value, candidate count.
    """

    kind: str
    step: int
    vm_name: str | None = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {self.kind!r}; known: {EVENT_KINDS}"
            )
        if self.step < 1:
            raise ValueError(f"step must be >= 1, got {self.step}")
