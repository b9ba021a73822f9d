"""Sequential model-based optimisation — Algorithm 1 of the paper.

The loop is shared by every optimiser in this package:

1. measure an initial quasi-random sample of distinct VMs,
2. fit a surrogate on everything measured so far and score the
   unmeasured VMs with an acquisition function (subclass hook),
3. stop if the stopping criterion fires, otherwise measure the
   highest-scoring VM and repeat.

The instance space is finite (the environment's catalog — the paper's
18 VMs by default, hundreds for the generated large catalogs), so
optimisers never re-measure a
VM and a search that measures every reachable VM ends with
``"exhausted"``.  Search cost is the number of charged measurements,
initial samples and *failed attempts* included — the cloud bills a run
that a spot reclamation killed — which is the paper's accounting
extended honestly to faulty clouds.

Fault tolerance: measurements may raise (spot interruptions,
provisioning errors) or return corrupted values (NaN / non-positive
time).  Each observation is retried under a
:class:`~repro.faults.retry.RetryPolicy` (exponential backoff, seeded
jitter), and a per-VM :class:`~repro.faults.retry.CircuitBreaker`
quarantines a VM after repeated failures so the search continues over
the remaining catalog instead of aborting.  :class:`MeasurementError`
is raised only when *nothing* could be measured at all.

One round, one ladder.  Every acquisition round — ``batch_size=q`` of
any size — runs through :class:`SearchState`'s
:meth:`~SearchState.begin_round` / :meth:`~SearchState.complete_round`,
and every observation runs the one attempt ladder in
:meth:`SequentialOptimizer.batch_measure_task`, whose failed attempts
and successes are folded into search state by one commit function each.

Batched suggestions (``q > 1``): each round the optimiser asks its
:meth:`SequentialOptimizer._suggest_batch` hook for ``q`` distinct
candidates (constant-liar q-EI on GP scorers, top-q prediction delta by
default), measures them inline in pick order, and replays the
task-local attempts through the commit functions in catalog-index
order.  Every batch measurement draws its randomness from the spawn key
``(search stream seed, 2, iteration, catalog index)``, so results and
fault-injection streams are independent of the order the tasks run in.

``q = 1`` is the degenerate batch: the round measures the argmax of the
scores, and the task runs with a *live guard* instead of a spawn key.
The guard commits each failed attempt as it happens and stops the retry
schedule as soon as the VM is quarantined or the budget is spent; retry
jitter comes from the search-wide stream.  The initial design is
measured the same way for every ``q``.

Two accounting edges are inherent to batching and documented rather
than hidden: the charge budget is capped *before* a batch launches (one
charge reserved per pick), so in-batch retries can overshoot
``max_measurements`` by at most ``q * (max_attempts - 1)`` charges
where the live guard would have stopped mid-retry; and a VM that the
commit quarantines has already run (and been billed for) its full retry
schedule, where the live guard would have abandoned the remaining
attempts.
"""

from __future__ import annotations

import abc
import functools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.cloud.encoding import InstanceEncoder
from repro.cloud.spot import SpotPolicy
from repro.core.acquisition import LIAR_STRATEGIES, top_q_indices
from repro.core.events import SearchEvent
from repro.core.objectives import Objective
from repro.core.result import FailureEvent, SearchResult, SearchStep
# The stopping module's ``SearchState`` is the per-round snapshot handed
# to stopping rules; this module's :class:`SearchState` (below) is the
# resumable ask/tell machine.  Alias the snapshot to keep both importable.
from repro.core.stopping import SearchState as StoppingSnapshot
from repro.core.stopping import StoppingCriterion
from repro.faults.models import (
    CorruptedMeasurementError,
    PartialMeasurement,
    SpotInterruptionError,
)
from repro.faults.retry import CircuitBreaker, RetryPolicy
from repro.ml.sampling import quasi_random_distinct
from repro.simulator.cluster import Measurement, MeasurementEnvironment

#: CherryPick's initial-design size, used by default throughout the paper.
DEFAULT_N_INITIAL = 3

#: Stream tag for per-batch-measurement randomness (tag 1 is the serial
#: retry-jitter stream; using a distinct tag means batch mode consumes
#: nothing from any pre-existing stream).
BATCH_STREAM_TAG = 2


class MeasurementError(RuntimeError):
    """No measurement could be obtained at all (every VM failed)."""


@dataclass(frozen=True, slots=True)
class AcquisitionScores:
    """A subclass's verdict on the unmeasured candidates.

    Attributes:
        scores: one score per unmeasured candidate; the highest is
            measured next.
        predicted: surrogate point predictions for the same candidates
            (``None`` when the optimiser has no surrogate).
        expected_improvements: EI values for the same candidates
            (``None`` when the acquisition is not EI-based).
    """

    scores: np.ndarray
    predicted: np.ndarray | None = None
    expected_improvements: np.ndarray | None = None


@dataclass(frozen=True, slots=True)
class FailedAttempt:
    """One failed attempt of an observation's attempt ladder.

    Attributes:
        attempt: 1-based attempt number within the observation.
        error: ``"ErrorType: message"``.
        charge: what the attempt billed, in on-demand attempt units.
        revocation: for a market spot revocation, its 1-based count
            within this observation's ladder; ``0`` otherwise.
        revoked_at: the fraction of the remaining work a revocation
            reached (``None`` for other failures).
        checkpoint: the partial-progress checkpoint a revocation banked.
        fallback: whether this revocation tripped the fall-back to
            on-demand pricing for the remaining attempts.
    """

    attempt: int
    error: str
    charge: float = 1.0
    revocation: int = 0
    revoked_at: float | None = None
    checkpoint: PartialMeasurement | None = None
    fallback: bool = False


@dataclass(frozen=True, slots=True)
class BatchMeasurement:
    """The outcome of one measurement task (one observation's ladder).

    Produced by :meth:`SequentialOptimizer.batch_measure_task` and
    folded into search state by the commit functions.

    Attributes:
        index: catalog index of the measured VM.
        iteration: 1-based batch round the task belongs to (``0`` for
            live tasks).
        measurement: the successful measurement, or ``None`` when every
            attempt failed or the live guard stopped the schedule.
        value: the validated objective value (``None`` on failure).
        attempts: attempts the task made (the successful one included,
            when there was one).
        failures: the failed attempts, in attempt order.
        wait_s: total retry backoff the task accounted (live tasks
            account theirs as they go and report ``0.0``).
        charge: what the successful attempt billed, in on-demand
            attempt units (``1.0`` outside spot pricing).
    """

    index: int
    iteration: int
    measurement: Measurement | None
    value: float | None
    attempts: int
    failures: tuple[FailedAttempt, ...] = ()
    wait_s: float = 0.0
    charge: float = 1.0


#: One batch-measurement work item: ``(iteration, catalog index)``.
BatchCell = tuple[int, int]

#: Commits one failed attempt as it happens; returning True stops the
#: attempt ladder (the live mode of :meth:`SequentialOptimizer.batch_measure_task`).
AttemptGuard = Callable[[int, FailedAttempt], bool]


class SequentialOptimizer(abc.ABC):
    """Base class implementing the SMBO loop over a finite VM catalog.

    Args:
        environment: where measurements come from (simulator or trace).
        objective: what to minimise.
        n_initial: size of the quasi-random initial design.
        stopping: optional early-stopping criterion.
        max_measurements: optional hard budget on *charged attempts*
            (failed ones included).
        seed: seed for the initial design, retry jitter, and any
            surrogate randomness.
        initial_design: explicit catalog indices to measure first instead
            of the quasi-random design (the Section III-C sensitivity
            experiments fix these).
        retry_policy: retry behaviour (attempts, backoff, jitter); the
            default makes one attempt per observation.  Each attempt is
            charged like any other measurement (the cloud billed it).
        quarantine_after: consecutive failures after which a VM is
            quarantined for the rest of the search.
        batch_size: suggestions measured per acquisition round.  ``1``
            (the default) is the degenerate batch: the argmax of the
            scores, measured under the live guard (the paper's
            sequential loop); ``q > 1`` suggests q distinct VMs per
            surrogate fit via :meth:`_suggest_batch` and commits their
            measurements in catalog-index order, with the two accounting
            divergences the module docstring documents.
        liar: constant-liar strategy (``"min"``/``"mean"``/``"max"``)
            for GP-based batch suggestion; ignored by scorers that
            batch via top-q prediction delta.
        spot: optional :class:`~repro.cloud.spot.SpotPolicy` switching
            the search to spot pricing.  Measurements then run on spot
            capacity first (the environment's ``set_pricing`` hook is
            told which tier each attempt buys); a market revocation
            bills only the completed fraction at the spot price, banks
            it as a :class:`~repro.faults.models.PartialMeasurement`
            checkpoint that retries resume from, and after
            ``fallback_after`` revocations the observation falls back
            to on-demand at full price.  ``None`` (the default) is the
            historic on-demand loop, bit for bit.
    """

    #: Display name; subclasses override.
    name = "smbo"

    def __init__(
        self,
        environment: MeasurementEnvironment,
        objective: Objective = Objective.TIME,
        n_initial: int = DEFAULT_N_INITIAL,
        stopping: StoppingCriterion | None = None,
        max_measurements: int | None = None,
        seed: int | None = None,
        initial_design: list[int] | None = None,
        retry_policy: RetryPolicy | None = None,
        quarantine_after: int = 3,
        batch_size: int = 1,
        liar: str = "min",
        spot: SpotPolicy | None = None,
    ) -> None:
        if n_initial < 1:
            raise ValueError(f"n_initial must be at least 1, got {n_initial}")
        if max_measurements is not None and max_measurements < n_initial:
            raise ValueError("max_measurements must be at least n_initial")
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if liar not in LIAR_STRATEGIES:
            raise ValueError(
                f"unknown liar strategy {liar!r}; known: {LIAR_STRATEGIES}"
            )
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.quarantine_after = quarantine_after  # CircuitBreaker validates
        self.initial_design = list(initial_design) if initial_design is not None else None
        self._env = environment
        self.objective = objective
        self.n_initial = n_initial
        self.stopping = stopping
        self.max_measurements = max_measurements
        self.batch_size = batch_size
        self.liar = liar
        self._spot = spot
        self._rng = np.random.default_rng(seed)
        # The initial design gets its own stream, split off before any
        # subclass draws: optimisers with the same seed then share the
        # same initial design regardless of how many surrogate seeds they
        # consume (Hybrid BO's early phase must match Naive BO's exactly).
        # The retry-jitter stream derives from the same draw (not a second
        # one) so adding it did not shift any pre-existing seeded stream.
        stream_seed = int(self._rng.integers(2**31))
        self._init_rng = np.random.default_rng(stream_seed)
        self._stream_seed = stream_seed
        self._encoder = InstanceEncoder(tuple(environment.catalog))
        self._design = self._encoder.encode_all()
        self._reset_search()

    # -- state exposed to subclasses ----------------------------------------

    def _reset_search(self) -> None:
        """(Re)initialise all per-search state.

        A search never re-measures a VM, so successful observations are
        bounded by the catalog size and the value buffer is allocated
        once; every property below is then a view or a live reference
        instead of a per-access rebuild.  Spot-priced searches get the
        circuit breaker's price-aware mode: a VM that keeps getting
        reclaimed is quarantined for churn even when its runs succeed.
        """
        self._obs_count = 0
        self._obs_indices: list[int] = []
        self._obs_measurements: list[Measurement] = []
        self._obs_attempts: list[int] = []
        self._obs_charges: list[float] = []
        self._value_buf = np.empty(max(len(self._env.catalog), 1), dtype=float)
        self._measured_set: set[int] = set()
        self._best = np.inf
        self._failure_events: list[FailureEvent] = []
        self._events: list[SearchEvent] = []
        self._failed_charges = 0
        self._retry_wait_s = 0.0
        self._checkpoints: dict[str, PartialMeasurement] = {}
        self._charge_total = 0.0
        self._breaker = CircuitBreaker(
            self.quarantine_after,
            revocation_threshold=(
                self._spot.revocation_quarantine if self._spot is not None else None
            ),
        )
        self._retry_rng = np.random.default_rng([self._stream_seed, 1])

    @property
    def design_matrix(self) -> np.ndarray:
        """The full encoded instance space, one row per catalog VM."""
        return self._design

    @property
    def measured_indices(self) -> list[int]:
        """Catalog indices measured so far, in measurement order.

        The returned list is live internal state — treat it as
        read-only.
        """
        return self._obs_indices

    @property
    def measured_values(self) -> np.ndarray:
        """Objective values measured so far, aligned with indices.

        A read-only view of the incrementally-grown value buffer.
        """
        view = self._value_buf[: self._obs_count]
        view.flags.writeable = False
        return view

    @property
    def measured_measurements(self) -> list[Measurement]:
        """Full measurements so far (low-level metrics included).

        The returned list is live internal state — treat it as
        read-only.
        """
        return self._obs_measurements

    @property
    def best_observed(self) -> float:
        """Incumbent objective value.

        Raises:
            RuntimeError: before any measurement.
        """
        if not self._obs_count:
            raise RuntimeError("no measurements yet")
        return float(self._best)

    def _record_observation(
        self,
        index: int,
        measurement: Measurement,
        value: float,
        attempt: int,
        charge: float = 1.0,
    ) -> None:
        """Append one successful observation to the grown buffers."""
        if self._obs_count == len(self._value_buf):  # pragma: no cover - guard
            self._value_buf = np.concatenate([self._value_buf, self._value_buf])
        self._value_buf[self._obs_count] = value
        self._obs_count += 1
        self._obs_indices.append(index)
        self._obs_measurements.append(measurement)
        self._obs_attempts.append(attempt)
        self._obs_charges.append(charge)
        self._charge_total += charge
        self._measured_set.add(index)
        if value < self._best:
            self._best = value

    def _emit(
        self, kind: str, step: int, vm_name: str | None = None, detail: str = ""
    ) -> None:
        """Append one event to the search's event stream."""
        self._events.append(
            SearchEvent(kind=kind, step=step, vm_name=vm_name, detail=detail)
        )

    # -- subclass hooks ------------------------------------------------------

    def _round_scorer(self):
        """The scorer that scores this search's next round.

        The one place a surrogate search says how it scores: the serial
        :meth:`SearchState.step` scores through it (via
        :meth:`_score_candidates`), and so does the ``"vector"``
        executor, which groups compatible searches' rounds.  Every
        scorer's ``score`` takes ``measured``, ``values``,
        ``measurements`` and ``unmeasured`` by name; its
        ``group_key`` takes the same four and names the group the
        round can be scored in (``None``: alone), and its static
        ``score_group(scorers, rounds)`` scores a group, one
        ``(measured, values, measurements, unmeasured)`` round per
        scorer.  ``None`` (the base default) is for searches without a
        surrogate, which override :meth:`_score_candidates` instead.
        """
        return None

    def _score_candidates(self, unmeasured: list[int]) -> AcquisitionScores:
        """Fit the surrogate and score the ``unmeasured`` catalog indices."""
        return self._round_scorer().score(
            measured=self.measured_indices,
            values=self.measured_values,
            measurements=self.measured_measurements,
            unmeasured=unmeasured,
        )

    def _suggest_batch(
        self, unmeasured: list[int], q: int
    ) -> tuple[AcquisitionScores, list[int]]:
        """Pick up to ``q`` distinct candidates to measure this round.

        Returns the first-round acquisition (consumed by the stopping
        rule, exactly like the sequential loop's single fit) and the
        picked catalog indices in pick order.  The default is top-q on
        one score vector — for prediction-delta scorers this *is* top-q
        prediction delta: one batched ensemble predict, q distinct
        argmins.  GP scorers override it with constant-liar q-EI.
        """
        acquisition = self._score_candidates(unmeasured)
        picked = [unmeasured[i] for i in top_q_indices(acquisition.scores, q)]
        return acquisition, picked

    def _initial_indices(self) -> list[int]:
        """Catalog indices of the initial design (quasi-random distinct)."""
        if self.initial_design is not None:
            return list(self.initial_design)
        n = min(self.n_initial, len(self._env.catalog))
        return quasi_random_distinct(self._design, n, self._init_rng)

    # -- accounting ------------------------------------------------------------

    def _charged(self) -> int | float:
        """Everything billed so far, in on-demand attempt units.

        On-demand searches keep the historic integer semantics (one
        unit per attempt, failed or not).  Spot-priced searches sum the
        actual fractional charges — discounted runs, partial revocation
        charges — so the budget buys more attempts when they are cheap.
        """
        if self._spot is None:
            return self._obs_count + self._failed_charges
        return self._charge_total

    def _set_env_pricing(self, vm_name: str, pricing: str) -> None:
        """Tell the environment which pricing tier the next run buys."""
        setter = getattr(self._env, "set_pricing", None)
        if setter is not None:
            setter(vm_name, pricing)

    def _price_ratio(self, vm_name: str, pricing: str) -> float:
        """Spot/on-demand price ratio billed for a run of ``vm_name``."""
        if self._spot is not None and pricing == "spot":
            return 1.0 - self._spot.market.discount(vm_name)
        return 1.0

    def _budget_exhausted(self) -> bool:
        return (
            self.max_measurements is not None
            and self._charged() >= self.max_measurements
        )

    def _affordable(self, picked: list[int]) -> list[int]:
        """The prefix of a batch the remaining budget reserves charges for.

        A batch cannot pause mid-flight the way the live guard checks
        the budget between retries, so each pick's cost is reserved up
        front (overshoot is bounded, see the module docstring).  Under
        spot pricing a pick's expected bill is below one on-demand unit
        (hazard-adjusted closed form), so the same budget affords more
        concurrent picks.
        """
        if self.max_measurements is None:
            return picked
        if self._spot is None:
            return picked[: self.max_measurements - self._charged()]
        remaining = float(self.max_measurements) - self._charged()
        affordable: list[int] = []
        for index in picked:
            expected = self._spot.expected_attempt_cost(self._env.catalog[index].name)
            if expected > remaining:
                break
            remaining -= expected
            affordable.append(index)
        return affordable

    # -- the attempt ladder and its commits ------------------------------------

    def batch_measure_task(
        self, cell: BatchCell, guard: AttemptGuard | None = None
    ) -> BatchMeasurement:
        """Run one observation's attempt ladder to completion.

        Every attempt — failed or not — is charged.  Spot-priced
        searches (``spot`` policy set) run attempts at the spot price
        until ``fallback_after`` market revocations, then fall back to
        on-demand at full price.  A revocation bills only the reached
        fraction of the remaining work (at the spot price) and banks
        resume credit as a per-VM
        :class:`~repro.faults.models.PartialMeasurement` checkpoint, so
        the eventual success is billed for the uncovered remainder only.

        Without a ``guard`` (a q>1 batch task) the task is safe to run
        in any order: it derives every random stream it touches —
        environment noise, fault rules, retry jitter — from its spawn
        key ``(stream seed, 2, iteration, catalog index)`` (environments
        expose an optional ``arm_for`` hook for the first two) and
        records its attempts task-locally; breaker, budget and
        events are applied when the batch commits.  With a ``guard``
        (the live mode) retry jitter comes from the search-wide stream,
        each wait is accounted as it happens, and the guard commits
        each failed attempt as it happens — returning True stops the
        schedule.
        """
        iteration, index = cell
        vm = self._env.catalog[index]
        if guard is None:
            spawn_key = (self._stream_seed, BATCH_STREAM_TAG, iteration, index)
            arm = getattr(self._env, "arm_for", None)
            if arm is not None:
                arm(spawn_key)
            retry_rng = np.random.default_rng([*spawn_key, 1])
        else:
            retry_rng = self._retry_rng
        policy = self.retry_policy
        spot = self._spot
        pricing = "on-demand" if spot is None else "spot"
        revocations = 0
        # The checkpoint evolves task-locally from the committed state
        # (deterministic: batch commits happen between rounds).
        checkpoint = self._checkpoints.get(vm.name) if spot is not None else None
        failures: list[FailedAttempt] = []
        wait_s = 0.0
        if spot is not None:
            self._set_env_pricing(vm.name, "spot")
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                wait = policy.wait(attempt - 1, retry_rng)
                if guard is None:
                    wait_s += wait
                else:
                    self._retry_wait_s += wait
            try:
                measurement = self._env.measure(vm)
                value = self.objective.value_of(measurement)
                if not np.isfinite(value) or value <= 0.0:
                    raise CorruptedMeasurementError(
                        f"{vm.name} returned unusable {self.objective.value} "
                        f"value {value!r}"
                    )
            except Exception as error:  # noqa: BLE001 - cloud errors are diverse
                charge = 1.0
                revoked = (
                    pricing == "spot"
                    and isinstance(error, SpotInterruptionError)
                    and error.fraction is not None
                )
                if spot is not None:
                    done = checkpoint.fraction if checkpoint is not None else 0.0
                    # Revoked at fraction g of the *remaining* work: bill
                    # g * (1 - done) at the spot price and bank resume
                    # credit toward the next attempt.
                    progressed = (
                        float(error.fraction) * (1.0 - done) if revoked else 1.0 - done
                    )
                    charge = self._price_ratio(vm.name, pricing) * progressed
                    if revoked:
                        prior = checkpoint.charge if checkpoint is not None else 0.0
                        checkpoint = PartialMeasurement(
                            vm_name=vm.name,
                            fraction=done + spot.resume_credit * progressed,
                            charge=prior + charge,
                        )
                revocations += revoked
                failure = FailedAttempt(
                    attempt=attempt,
                    error=f"{type(error).__name__}: {error}",
                    charge=charge,
                    revocation=revocations if revoked else 0,
                    revoked_at=float(error.fraction) if revoked else None,
                    checkpoint=checkpoint if revoked else None,
                    fallback=revoked and revocations >= spot.fallback_after,
                )
                failures.append(failure)
                if guard is not None and guard(index, failure):
                    break
                if failure.fallback:
                    pricing = "on-demand"
                    self._set_env_pricing(vm.name, "on-demand")
            else:
                charge = 1.0
                if spot is not None:
                    done = checkpoint.fraction if checkpoint is not None else 0.0
                    charge = self._price_ratio(vm.name, pricing) * (1.0 - done)
                return BatchMeasurement(
                    index, iteration, measurement, value, attempt,
                    tuple(failures), wait_s, charge,
                )
        return BatchMeasurement(
            index, iteration, None, None, len(failures), tuple(failures), wait_s
        )

    def _commit_failure(
        self, index: int, failure: FailedAttempt, live: bool = False
    ) -> bool:
        """Fold one failed attempt into search state.

        Records the failure and its charge, emits its events, feeds the
        circuit breaker and banks any spot checkpoint.  With ``live``
        this is the live guard: the attempt is committed as it happens,
        revocation and churn-quarantine details use the live wording,
        and the return value says whether the schedule must stop (the VM
        got quarantined or the budget is spent — no fall-back is then
        announced).  Replayed batch attempts (``live=False``) always
        return False: their schedule already ran in full.
        """
        vm_name = self._env.catalog[index].name
        step = self._obs_count + 1
        self._failed_charges += 1
        self._charge_total += failure.charge
        self._failure_events.append(
            FailureEvent(
                step=step,
                vm_name=vm_name,
                attempt=failure.attempt,
                error=failure.error,
                charge=failure.charge,
            )
        )
        self._emit("measurement_started", step, vm_name, f"attempt {failure.attempt}")
        self._emit("measurement_failed", step, vm_name, failure.error)
        was_quarantined = self._breaker.is_quarantined(vm_name)
        if failure.revocation:
            self._checkpoints[vm_name] = failure.checkpoint
            where = (
                f"{failure.revoked_at:.0%} of the remaining work"
                if live
                else f"batch attempt {failure.attempt}"
            )
            self._emit(
                "spot_revoked",
                step,
                vm_name,
                f"revocation {failure.revocation} at {where}, "
                f"charged {failure.charge:.6f}",
            )
            quarantined = self._breaker.record_revocation(vm_name)
        else:
            quarantined = self._breaker.record_failure(vm_name)
        if quarantined and not was_quarantined:
            self._emit(
                "vm_quarantined",
                step,
                vm_name,
                f"spot churn: {self._breaker.revocation_count(vm_name)} revocations"
                if live and failure.revocation
                else f"after {failure.attempt} failed attempts this round",
            )
        halt = live and (quarantined or self._budget_exhausted())
        if failure.fallback and not halt:
            self._emit(
                "fallback_to_ondemand",
                step,
                vm_name,
                f"after {failure.revocation} revocations; retrying at "
                "full on-demand price",
            )
        return halt

    def _commit_success(self, outcome: BatchMeasurement) -> None:
        """Fold one successful observation into search state."""
        vm_name = self._env.catalog[outcome.index].name
        step = self._obs_count + 1
        self._emit("measurement_started", step, vm_name, f"attempt {outcome.attempts}")
        self._breaker.record_success(vm_name)
        self._record_observation(
            outcome.index,
            outcome.measurement,
            outcome.value,
            outcome.attempts,
            charge=outcome.charge,
        )
        self._emit(
            "measurement_finished",
            step,
            vm_name,
            f"{self.objective.value}={outcome.value!r}",
        )
        self._checkpoints.pop(vm_name, None)

    def _measure(self, picked: list[int], iteration: int | None = None) -> int:
        """Measure ``picked`` and commit every attempt; returns successes.

        ``iteration=None`` measures live, one pick after the other (the
        initial design and every q=1 round): each task runs under the
        live guard and commits before the next starts.  Otherwise the
        picks are batch round ``iteration``: the tasks run inline in pick
        order and their task-local attempts are replayed in
        catalog-index order, so events, failure records, breaker state
        and step numbering do not depend on the order the tasks ran in.
        """
        if iteration is None:
            guard = functools.partial(self._commit_failure, live=True)
            # A generator, so each live task commits before the next runs.
            outcomes = (self.batch_measure_task((0, i), guard) for i in picked)
        else:
            outcomes = sorted(
                (self.batch_measure_task((iteration, index)) for index in picked),
                key=lambda o: o.index,
            )
        succeeded = 0
        for outcome in outcomes:
            if iteration is not None:
                self._retry_wait_s += outcome.wait_s
                for failure in outcome.failures:
                    self._commit_failure(outcome.index, failure)
            if outcome.measurement is not None:
                self._commit_success(outcome)
                succeeded += 1
        return succeeded

    # -- the loop ------------------------------------------------------------

    def _reachable_unmeasured(self) -> list[int]:
        """Unmeasured catalog indices whose VM is not quarantined."""
        measured = self._measured_set
        return [
            i
            for i, vm in enumerate(self._env.catalog)
            if i not in measured and not self._breaker.is_quarantined(vm.name)
        ]

    def start(self, initial_vms: list[int] | None = None) -> SearchState:
        """Begin a search and return its resumable ask/tell handle.

        Resets search state (exactly like :meth:`run`'s prologue) and
        hands back a :class:`SearchState` whose :meth:`SearchState.step`
        advances the search one observation or one acquisition round at
        a time — so an external driver (the vectorized grid executor, a
        service loop) can own the schedule instead of this optimiser.

        Args:
            initial_vms: override the initial design with explicit
                catalog indices (used by the initial-point sensitivity
                experiments of Section III-C).
        """
        return SearchState(self, initial_vms)

    def run(self, initial_vms: list[int] | None = None) -> SearchResult:
        """Execute the search to completion and return its full trace.

        Drives :meth:`start`'s step machine until it finishes.

        Args:
            initial_vms: override the initial design with explicit
                catalog indices (used by the initial-point sensitivity
                experiments of Section III-C).

        Raises:
            MeasurementError: if not even one VM could be measured.
        """
        state = self.start(initial_vms)
        while state.step():
            pass
        return state.result()

    def _build_result(self, stopped_by: str) -> SearchResult:
        steps = []
        best = np.inf
        observations = zip(
            self._obs_indices, self._value_buf, self._obs_attempts, self._obs_charges
        )
        for step, (index, value, attempts, charge) in enumerate(observations, start=1):
            best = min(best, value)
            steps.append(
                SearchStep(
                    step=step,
                    vm_name=self._env.catalog[index].name,
                    objective_value=float(value),
                    best_value=float(best),
                    attempts=attempts,
                    charge=charge,
                )
            )
        workload = getattr(self._env, "workload", None)
        return SearchResult(
            optimizer=self.name,
            objective=self.objective,
            workload_id=workload.workload_id if workload is not None else None,
            steps=tuple(steps),
            stopped_by=stopped_by,
            quarantined_vms=tuple(sorted(self._breaker.quarantined)),
            failure_events=tuple(self._failure_events),
            retry_wait_s=self._retry_wait_s,
            events=tuple(self._events),
        )


class SearchState:
    """A resumable search: the ask/tell step machine behind :meth:`run`.

    Obtained from :meth:`SequentialOptimizer.start`.  The search moves
    through three phases:

    * ``"init"`` — one initial-design observation per :meth:`step`
      (including the fall-back probing of the remaining catalog when
      every planned initial VM failed);
    * ``"search"`` — one acquisition round per :meth:`step`: score the
      reachable unmeasured candidates, fire the stopping rule, measure
      the argmax (q=1) or the suggested batch (q>1);
    * ``"done"`` — :meth:`result` returns the finished
      :class:`~repro.core.result.SearchResult`.

    :meth:`step` is itself built on the finer round split, which
    external drivers use to batch the surrogate work of many searches:
    :meth:`begin_round` returns the candidate list (or finishes the
    search), the driver computes the acquisition however it likes (for
    the vectorized grid executor: stacked across searches, bit-identical
    per search), and :meth:`complete_round` applies it.
    """

    def __init__(
        self,
        optimizer: SequentialOptimizer,
        initial_vms: list[int] | None = None,
    ) -> None:
        opt = optimizer
        self._opt = opt
        self._phase = "init"
        self._stopped_by: str | None = None
        self._result: SearchResult | None = None
        self._iteration = 0  # batched rounds only
        opt._env.reset()
        opt._reset_search()
        initial = initial_vms if initial_vms is not None else opt._initial_indices()
        if not initial:
            raise ValueError("initial design must contain at least one VM")
        if len(set(initial)) != len(initial):
            raise ValueError("initial design must not repeat VMs")
        if opt.max_measurements is not None:
            initial = initial[: opt.max_measurements]
        self._pending_initial = list(initial)

    # -- introspection -------------------------------------------------------

    @property
    def optimizer(self) -> SequentialOptimizer:
        """The optimiser this state is driving."""
        return self._opt

    @property
    def phase(self) -> str:
        """``"init"``, ``"search"``, or ``"done"``."""
        return self._phase

    @property
    def done(self) -> bool:
        """True once the search finished and :meth:`result` is ready."""
        return self._phase == "done"

    @property
    def stopped_by(self) -> str | None:
        """The stop reason once done, else ``None``."""
        return self._stopped_by

    # -- stepping ------------------------------------------------------------

    def step(self) -> bool:
        """Advance the search by one unit of work.

        One initial observation in the ``"init"`` phase; one acquisition
        round in the ``"search"`` phase.  Returns True while the search
        is still live, False once it finished.

        Raises:
            MeasurementError: if not even one VM could be measured.
        """
        if self._phase == "done":
            return False
        if self._phase == "init":
            self._step_init()
            return self._phase != "done"
        candidates = self.begin_round()
        if candidates is None:
            return False
        opt = self._opt
        if opt.batch_size == 1:
            self.complete_round(candidates, opt._score_candidates(candidates))
        else:
            acquisition, picked = opt._suggest_batch(candidates, opt.batch_size)
            self.complete_round(candidates, acquisition, picked=picked)
        return self._phase != "done"

    def _step_init(self) -> None:
        """One initial-design observation (or fall-back probe)."""
        opt = self._opt
        if self._pending_initial and not opt._budget_exhausted():
            opt._measure([self._pending_initial.pop(0)])
            return  # one observation per step
        self._pending_initial.clear()
        if not opt._obs_count and not opt._budget_exhausted():
            # Every planned initial VM failed: fall back to the remaining
            # reachable catalog (in order), one probe per step, so one
            # bad initial design cannot kill the search while measurable
            # VMs exist.
            candidates = opt._reachable_unmeasured()
            if candidates:
                opt._measure(candidates[:1])
                return
        if not opt._obs_count:
            raise MeasurementError(
                "no initial measurement succeeded "
                f"({opt._failed_charges} charged attempts; "
                f"quarantined: {sorted(opt._breaker.quarantined)})"
            )
        self._phase = "search"

    # -- the driver-facing round split ------------------------------------

    def begin_round(self) -> list[int] | None:
        """Open one acquisition round.

        Returns the reachable unmeasured candidate indices, or ``None``
        when this call finished the search (catalog exhausted / budget
        spent).  Each successful ``begin_round`` must be paired with one
        :meth:`complete_round`.
        """
        opt = self._opt
        if self._phase != "search":
            raise RuntimeError(f"begin_round() in phase {self._phase!r}")
        candidates = opt._reachable_unmeasured()
        if not candidates:
            self._finish("exhausted")
            return None
        if opt._budget_exhausted():
            self._finish("budget")
            return None
        return candidates

    def complete_round(
        self,
        candidates: list[int],
        acquisition: AcquisitionScores,
        picked: list[int] | None = None,
    ) -> None:
        """Apply one round's acquisition: events, stopping rule, measure.

        ``acquisition`` must score exactly ``candidates`` (the list the
        matching :meth:`begin_round` returned) and — for bit-identity
        with :meth:`step` — must equal what the optimiser's own
        :meth:`~SequentialOptimizer._score_candidates` would produce.
        A q=1 round measures the argmax of the scores (``picked`` is
        ignored).  A q>1 round measures ``picked``, the batch
        :meth:`~SequentialOptimizer._suggest_batch` returned together
        with ``acquisition`` (a constant-liar batch is not a function of
        the scores alone), after reserving budget for each pick.

        Raises:
            ValueError: on a q>1 search called without ``picked``.
        """
        opt = self._opt
        q = opt.batch_size
        if q > 1 and picked is None:
            raise ValueError(
                f"{opt.name}: a batch_size={q} round measures the batch "
                "_suggest_batch() picked; pass it as picked=, or advance "
                "the search with step()"
            )
        step = opt._obs_count + 1
        opt._emit("surrogate_fitted", step, detail=f"scored {len(candidates)} candidates")
        if acquisition.scores.shape != (len(candidates),):
            raise RuntimeError(
                f"{opt.name}: expected {len(candidates)} scores, "
                f"got shape {acquisition.scores.shape}"
            )
        if opt.stopping is not None and opt.stopping.should_stop(
            StoppingSnapshot(
                measurement_count=opt._obs_count,
                best_observed=opt.best_observed,
                predicted=acquisition.predicted,
                expected_improvements=acquisition.expected_improvements,
            )
        ):
            opt._emit("stopping_rule_fired", step, detail=opt.stopping.describe())
            self._finish("criterion")
            return
        if q == 1:
            opt._measure([candidates[int(np.argmax(acquisition.scores))]])
            return
        picked = opt._affordable(picked)
        if not picked:
            self._finish("budget")
            return
        names = ", ".join(opt._env.catalog[i].name for i in picked)
        opt._emit("batch_suggested", step, detail=f"q={len(picked)}: {names}")
        self._iteration += 1
        succeeded = opt._measure(picked, self._iteration)
        opt._emit("batch_measured", step, detail=f"{succeeded}/{len(picked)} succeeded")

    def _finish(self, stopped_by: str) -> None:
        self._phase = "done"
        self._stopped_by = stopped_by
        self._result = self._opt._build_result(stopped_by)

    def result(self) -> SearchResult:
        """The finished search trace.

        Raises:
            RuntimeError: while the search is still live.
        """
        if self._result is None:
            raise RuntimeError("search not finished; keep calling step()")
        return self._result
