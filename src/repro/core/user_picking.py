"""User-picking policies (the "user-picking phase" of Section 4).

* :class:`FCFSPicker` — first come, first served; the strategy whose
  Θ(T) regret pathology motivates the paper's Section 4.1 example.
* :class:`RoundRobinPicker` — Section 4.2, absolute fairness,
  Theorem 2 regret bound.
* :class:`RandomUserPicker` — uniform sampling with replacement; the
  paper observes ROUNDROBIN beats it slightly (sampling without
  replacement).
* :class:`GreedyPicker` — Algorithm 2 lines 6–8: candidate set of
  above-average empirical potentials σ̃, then a configurable line-8
  rule (ease.ml default: max gap between largest UCB and best accuracy
  so far).
* :class:`HybridPicker` — Section 4.4: GREEDY until the freezing stage
  (candidate set stable and no global progress for ``s`` steps), then
  ROUNDROBIN.  This is ease.ml's default algorithm.

Pickers are stateful and bound to one scheduler via ``reset``.  Every
policy ranges over the scheduler's **active tenant set** (stable ids
from :meth:`~repro.core.multitenant.MultiTenantScheduler.active_ids`),
never ``range(n_users)``, so membership can change between any two
picks: arrivals join the rotation, departures drop out of it, and the
``on_arrival`` / ``on_departure`` hooks let stateful pickers adjust.
With a fixed membership the active ids are ``0..n-1`` and every policy
behaves exactly as in the paper.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.utils.rng import RandomState, SeedLike

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.multitenant import MultiTenantScheduler, StepRecord


class UserPicker(ABC):
    """Strategy choosing which tenant to serve next."""

    @abstractmethod
    def pick(self, scheduler: "MultiTenantScheduler") -> int:
        """Return the stable id of the tenant to serve this round."""

    def notify(
        self, scheduler: "MultiTenantScheduler", record: "StepRecord"
    ) -> None:
        """Hook called after each completed round (default: no-op)."""

    def reset(self, scheduler: "MultiTenantScheduler") -> None:
        """Hook called when the picker is attached to a scheduler."""

    def on_arrival(
        self, scheduler: "MultiTenantScheduler", tenant_id: int
    ) -> None:
        """Hook called after a tenant joins the active set (no-op)."""

    def on_departure(
        self, scheduler: "MultiTenantScheduler", tenant_id: int
    ) -> None:
        """Hook called after a tenant leaves the active set (no-op)."""


class FCFSPicker(UserPicker):
    """First come, first served (Section 4.1's strawman).

    Serves the lowest-id active tenant until its exploration budget is
    spent — one serve per candidate model, the "exhaustive search"
    behaviour the paper ascribes to its users — then the next, and so
    on.  (The quota formulation rather than "all arms tried" keeps FCFS
    well-defined under GP-UCB model picking, which deliberately never
    plays hopeless arms.)  After every active tenant's quota is spent
    it keeps cycling so long runs remain well-defined.  Departures
    simply drop out of the scan; arrivals join it at their id position.
    """

    def __init__(self) -> None:
        self._current = 0

    def reset(self, scheduler: "MultiTenantScheduler") -> None:
        self._current = 0

    @staticmethod
    def _done(tenant) -> bool:
        return (
            tenant.picker.exhausted
            or tenant.serves >= tenant.picker.n_arms
        )

    def pick(self, scheduler: "MultiTenantScheduler") -> int:
        ids = scheduler.active_ids()
        n = len(ids)
        # Resume scanning from the remembered id (or the next surviving
        # one after it, if that tenant departed).
        start = 0
        while start < n and ids[start] < self._current:
            start += 1
        if start == n:
            start = 0
        for offset in range(n):
            candidate = ids[(start + offset) % n]
            if not self._done(scheduler.tenants[candidate]):
                self._current = candidate
                return candidate
        # Everyone done: round-robin over the active tenants.
        candidate = ids[start]
        self._current = ids[(start + 1) % n]
        return candidate


class RoundRobinPicker(UserPicker):
    """Serve user ``t mod n`` over the active set (Section 4.2)."""

    def __init__(self) -> None:
        self._counter = 0

    def reset(self, scheduler: "MultiTenantScheduler") -> None:
        self._counter = 0

    def pick(self, scheduler: "MultiTenantScheduler") -> int:
        ids = scheduler.active_ids()
        user = ids[self._counter % len(ids)]
        self._counter += 1
        return user


class RandomUserPicker(UserPicker):
    """Uniformly random active tenant each round."""

    def __init__(self, *, seed: SeedLike = None) -> None:
        self._rng = RandomState(seed)

    def pick(self, scheduler: "MultiTenantScheduler") -> int:
        ids = scheduler.active_ids()
        return ids[int(self._rng.integers(len(ids)))]


class GreedyPicker(UserPicker):
    """Algorithm 2's user-picking phase.

    Parameters
    ----------
    rule:
        Line-8 rule for choosing among the candidate set ``V_t``:

        * ``"max_gap"`` (ease.ml default) — the tenant with the largest
          gap between its largest upper confidence bound and its best
          accuracy so far;
        * ``"max_potential"`` — the tenant with the largest σ̃;
        * ``"random"`` — uniform among candidates (the theorem's
          "any rule").
    seed:
        Used by the ``"random"`` rule and for tie-breaking.

    Warm-up: Algorithm 2 lines 1–4 run one GP-UCB step per tenant
    before the main loop; the picker realises that by serving any
    never-served tenant first (in id order), so the warm-up consumes
    scheduler budget exactly like the paper's initialisation does.  A
    tenant arriving mid-run is warm-started the same way: its first
    serve takes priority at the next pick.

    The line-7 candidate set is memoised against the scheduler's
    ``(decision_epoch, tenants.version)``: it is evaluated once per
    scheduler state change, however many ``pick`` / ``candidate_set``
    calls (and HYBRID ``notify`` calls) fall between two changes.
    """

    _RULES = ("max_gap", "max_potential", "random")

    def __init__(self, rule: str = "max_gap", *, seed: SeedLike = None) -> None:
        if rule not in self._RULES:
            raise ValueError(f"rule must be one of {self._RULES}, got {rule!r}")
        self.rule = rule
        self._rng = RandomState(seed)
        # (key, (ids, mask, potentials)) — arrays only, never the
        # scheduler: a back-reference would close a reference cycle and
        # leave whole trials to the cyclic GC.
        self._memo: Tuple = (None, None)
        # Ids that may still need their warm-up serve.  Entries are
        # validated lazily at pick time (a stale id — served, or no
        # longer active — is simply dropped), so steady-state picks pay
        # one empty-set check instead of a scan over every tenant.
        self._unserved: Optional[set] = None

    def reset(self, scheduler: "MultiTenantScheduler") -> None:
        self._memo = (None, None)
        self._unserved = {
            tenant.index for tenant in scheduler.tenants
            if tenant.serves == 0
        }

    def on_arrival(
        self, scheduler: "MultiTenantScheduler", tenant_id: int
    ) -> None:
        if self._unserved is None:
            return  # never attached; pick() will rebuild lazily
        state = scheduler.tenants.get(int(tenant_id))
        if state is not None and state.serves == 0:
            self._unserved.add(int(tenant_id))

    def on_departure(
        self, scheduler: "MultiTenantScheduler", tenant_id: int
    ) -> None:
        if self._unserved is not None:
            self._unserved.discard(int(tenant_id))

    def _next_unserved(
        self, scheduler: "MultiTenantScheduler"
    ) -> Optional[int]:
        """Lowest-id active tenant still awaiting its warm-up serve."""
        if self._unserved is None:
            self.reset(scheduler)
        while self._unserved:
            tenant_id = min(self._unserved)
            state = scheduler.tenants.get(tenant_id)
            if (
                state is not None
                and scheduler.tenants.is_active(tenant_id)
                and state.serves == 0
            ):
                return tenant_id
            self._unserved.discard(tenant_id)
        return None

    def _candidates(self, scheduler: "MultiTenantScheduler"):
        """``(ids, mask, potentials)`` for the line-7 candidate filter.

        ``ids`` is the candidate id array and ``mask`` the boolean
        filter over the active set that produced it, letting callers
        slice other arrays aligned with the active set.  Memoised per
        scheduler state (see the class docstring); the computation
        below is the memo's miss branch.
        """
        key = (scheduler.decision_epoch, scheduler.tenants.version)
        if self._memo[0] == key:
            return self._memo[1]
        active = scheduler.active_id_array()
        potentials = scheduler.potentials()  # aligned with active
        # A finite pairwise sum means every σ̃ is finite, and sum / n is
        # bit for bit np.mean's threshold; a running Σσ̃ would not be.
        total = float(potentials.sum())
        if active.size and math.isfinite(total):
            mask = potentials >= total / active.size
        else:  # never-served tenants (σ̃ = ∞) are always candidates
            finite = np.isfinite(potentials)
            mask = ~finite
            if finite.any():
                mask |= potentials >= potentials[finite].mean()
        ids = active[mask]
        if not ids.size:  # equal σ̃ can round the mean above all of them
            mask = np.ones(active.size, dtype=bool)
            ids = active
        self._memo = (key, (ids, mask, potentials))
        return self._memo[1]

    def candidate_set(self, scheduler: "MultiTenantScheduler") -> List[int]:
        """``V_t = {i : σ̃_i ≥ mean(σ̃)}`` over active tenants
        (Algorithm 2 line 7)."""
        return self._candidates(scheduler)[0].tolist()

    def pick(self, scheduler: "MultiTenantScheduler") -> int:
        warm = self._next_unserved(scheduler)
        if warm is not None:
            return warm

        ids, mask, potentials = self._candidates(scheduler)
        if self.rule == "random":
            return int(self._rng.choice(ids.tolist()))
        if self.rule == "max_potential":
            scores = potentials[mask]
        else:  # max_gap
            scores = scheduler.decision_gaps()[mask]  # aligned with active
        return int(ids[int(np.argmax(scores))])


class HybridPicker(UserPicker):
    """GREEDY with freezing-stage detection, then ROUNDROBIN (§4.4).

    The freezing stage is declared when, for ``s`` consecutive rounds,
    the greedy candidate set did not change *and* the global progress
    signal (Σ_i best accuracy so far) did not improve.  After the
    switch the picker behaves exactly like :class:`RoundRobinPicker`
    for the rest of the run (the paper switches once), and ``notify``
    costs nothing.  Membership churn resets the freeze detector — a new
    arrival (whose warm-up serve is genuine exploration) or a departure
    changes the candidate set, so the stall counter naturally restarts;
    an arrival after the switch re-enters GREEDY so the newcomer gets
    its exploration phase.
    """

    def __init__(
        self,
        s: int = 10,
        rule: str = "max_gap",
        *,
        progress_tolerance: float = 1e-12,
        seed: SeedLike = None,
    ) -> None:
        if s < 1:
            raise ValueError(f"s must be >= 1, got {s}")
        self.s = int(s)
        self.progress_tolerance = float(progress_tolerance)
        self._greedy = GreedyPicker(rule, seed=seed)
        self._round_robin = RoundRobinPicker()
        self.switched = False
        self.switch_step: Optional[int] = None
        self._stall_rounds = 0
        # Candidate-set identity: (membership version, mask bytes).
        self._last_candidates: Optional[Tuple[int, bytes]] = None
        self._last_progress = -math.inf

    def reset(self, scheduler: "MultiTenantScheduler") -> None:
        self._greedy.reset(scheduler)
        self._round_robin.reset(scheduler)
        self.switched = False
        self.switch_step = None
        self._stall_rounds = 0
        self._last_candidates = None
        self._last_progress = -math.inf

    def on_arrival(
        self, scheduler: "MultiTenantScheduler", tenant_id: int
    ) -> None:
        # A newcomer deserves the GREEDY exploration phase: re-enter it
        # and restart the freeze detector.  The inner greedy picker
        # needs the hook too, so its unserved set learns the arrival.
        self._greedy.on_arrival(scheduler, tenant_id)
        self.switched = False
        self.switch_step = None
        self._stall_rounds = 0
        self._last_candidates = None

    def on_departure(
        self, scheduler: "MultiTenantScheduler", tenant_id: int
    ) -> None:
        # The candidate set shrank; don't let a stale stall streak
        # carry over the membership change.
        self._greedy.on_departure(scheduler, tenant_id)
        self._stall_rounds = 0
        self._last_candidates = None

    def pick(self, scheduler: "MultiTenantScheduler") -> int:
        if self.switched:
            return self._round_robin.pick(scheduler)
        return self._greedy.pick(scheduler)

    def notify(
        self, scheduler: "MultiTenantScheduler", record: "StepRecord"
    ) -> None:
        if self.switched:
            return  # frozen: only on_arrival re-arms the detector
        progress = scheduler.global_best_sum()
        _, mask, _ = self._greedy._candidates(scheduler)
        candidates = (scheduler.tenants.version, mask.tobytes())
        if (
            candidates == self._last_candidates
            and progress <= self._last_progress + self.progress_tolerance
        ):
            self._stall_rounds += 1
        else:
            self._stall_rounds = 0
        self._last_candidates = candidates
        self._last_progress = max(self._last_progress, progress)
        if self._stall_rounds >= self.s:
            self.switched = True
            self.switch_step = record.t
