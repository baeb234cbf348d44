"""The multi-tenant scheduler loop (Section 4), with live membership.

At each round the scheduler (1) asks its *user picker* which tenant to
serve, (2) asks that tenant's *model picker* which candidate model to
train, (3) trains it through the oracle, and (4) feeds the observation
back into the tenant's state — including the empirical-confidence-bound
recurrence of Algorithm 2 line 6 that the GREEDY/HYBRID user pickers
consume.

Tenant identity is a **stable id**, not a position: the scheduler owns
a :class:`TenantRegistry` whose *active set* can change mid-run.
``add_tenant`` admits a late arrival (its id is a row the oracle must
already serve), ``retire_tenant`` removes a tenant from scheduling
while preserving its full history, and every picker iterates the
active set rather than ``range(n_users)``.  A paper-style fixed-tenant
run is simply a registry whose membership never changes.

The scheduler is deliberately policy-agnostic: every named algorithm in
the paper (FCFS, ROUNDROBIN, RANDOM, GREEDY, HYBRID, MOSTCITED,
MOSTRECENT) is a combination of a user picker and a model picker; the
experiment harness composes them.
"""

from __future__ import annotations

import bisect
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Container,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.model_picking import ModelPicker, Selection
from repro.core.oracles import RewardOracle
from repro.core.user_picking import UserPicker

#: Initial size of the scheduler's per-tenant-id decision-cache arrays
#: (doubled as larger ids are admitted).
_DECISION_MIN_CAPACITY = 16

#: Source of :attr:`MultiTenantScheduler.decision_epoch` values.  One
#: process-wide sequence, so no two schedulers ever hold the same epoch
#: and a picker's memo can never be answered by another scheduler's.
_EPOCHS = itertools.count(1)


@dataclass
class TenantState:
    """Everything the scheduler tracks about one tenant.

    Attributes
    ----------
    index:
        The tenant's **stable id** — the row this tenant occupies in
        the oracle.  Ids are never reused, so histories keyed by id
        survive membership churn.
    picker:
        The tenant's model-picking policy (owns the GP if GP-UCB).
    costs:
        Known per-model costs for this tenant (``c^i_k``).
    serves:
        Number of rounds this tenant has been served (``t_i``).
    best_observed:
        Best reward seen so far (what ``infer`` would serve).  A tenant
        with no model yet has 0 — accuracy of "no model".
    sigma_tilde:
        Empirical potential estimate ``σ̃`` from Algorithm 2 line 6
        (``inf`` until the first serve).
    ecb_min:
        Running minimum of the empirical confidence bound
        ``min_{t'} (y_{t'} + σ̃_{t'})``.
    """

    index: int
    picker: ModelPicker
    costs: np.ndarray
    serves: int = 0
    best_observed: float = 0.0
    sigma_tilde: float = math.inf
    ecb_min: float = math.inf
    total_cost: float = 0.0
    rewards: List[float] = field(default_factory=list)
    arms: List[int] = field(default_factory=list)

    @property
    def tenant_id(self) -> int:
        """Alias for :attr:`index` — the stable tenant id."""
        return self.index

    def absorb(
        self, selection: Selection, reward: float, cost: float,
        *, clamp_potential: bool = False,
    ) -> None:
        """Update tenant state after a serve (Algorithm 2 lines 6 & 13).

        The empirical confidence bound after observing ``y`` at the arm
        with selection-time UCB value ``B`` is
        ``min(B, min_{t'} (y_{t'} + σ̃_{t'}))``; the potential ``σ̃`` is
        that bound minus ``y``.  Because ``y + σ̃`` equals the bound,
        the running minimum is simply the bound itself.
        """
        bound = min(selection.ucb_value, self.ecb_min)
        sigma_tilde = bound - reward
        if clamp_potential:
            sigma_tilde = max(sigma_tilde, 0.0)
        if math.isfinite(bound):
            self.ecb_min = bound
            self.sigma_tilde = sigma_tilde
        else:
            # Heuristic pickers report no bound; fall back to a neutral
            # potential so greedy pairings degrade gracefully.
            self.sigma_tilde = max(1.0 - reward, 0.0)
        self.serves += 1
        self.best_observed = max(self.best_observed, reward)
        self.total_cost += cost
        self.rewards.append(float(reward))
        self.arms.append(int(selection.arm))

    def potential_gap(self) -> float:
        """ease.ml's line-8 rule: largest UCB minus best accuracy so far."""
        return self.picker.best_ucb() - self.best_observed


class TenantRegistry:
    """Live tenant membership: stable ids, an active subset, full history.

    The registry is the scheduler's identity model.  Indexing
    (``registry[tenant_id]``) resolves **any** known tenant — active or
    retired — so histories survive churn; iteration and ``len`` cover
    only the *active* set, in ascending id order, which is what every
    scheduling decision ranges over.
    """

    def __init__(self) -> None:
        self._states: Dict[int, TenantState] = {}
        self._active: List[int] = []  # sorted ascending
        self._active_set: set = set()  # same ids, for O(1) membership
        self._version = 0  # bumped on every active-set change

    @property
    def version(self) -> int:
        """Monotonic counter of active-set changes (adds, retires,
        reactivations).  Lets callers cache views derived from the
        active set and refresh them only when membership moved."""
        return self._version

    # -- membership ----------------------------------------------------
    def add(self, state: TenantState) -> TenantState:
        """Register a brand-new tenant under its stable id.

        A known id is an error — re-admitting a retired tenant goes
        through :meth:`reactivate`, which keeps its history rather than
        silently discarding the caller's replacement state.
        """
        tenant_id = int(state.index)
        if tenant_id in self._states:
            hint = (
                "" if self.is_active(tenant_id)
                else " (retired; use reactivate())"
            )
            raise ValueError(
                f"tenant {tenant_id} is already registered{hint}"
            )
        self._states[tenant_id] = state
        self._activate(tenant_id)
        return state

    def reactivate(self, tenant_id: int) -> TenantState:
        """Return a retired tenant to the active set, history intact."""
        tenant_id = int(tenant_id)
        if tenant_id not in self._states:
            raise KeyError(f"unknown tenant id {tenant_id}")
        if self.is_active(tenant_id):
            raise ValueError(f"tenant {tenant_id} is already active")
        self._activate(tenant_id)
        return self._states[tenant_id]

    def retire(self, tenant_id: int) -> TenantState:
        """Remove a tenant from the active set; its state is preserved."""
        tenant_id = int(tenant_id)
        if tenant_id not in self._states:
            raise KeyError(f"unknown tenant id {tenant_id}")
        if not self.is_active(tenant_id):
            raise ValueError(f"tenant {tenant_id} is not active")
        self._active.remove(tenant_id)
        self._active_set.discard(tenant_id)
        self._version += 1
        return self._states[tenant_id]

    def _activate(self, tenant_id: int) -> None:
        bisect.insort(self._active, tenant_id)
        self._active_set.add(tenant_id)
        self._version += 1

    # -- views ---------------------------------------------------------
    def __getitem__(self, tenant_id: int) -> TenantState:
        """Any known tenant by id (active or retired)."""
        return self._states[tenant_id]

    def get(
        self, tenant_id: int, default: Optional[TenantState] = None
    ) -> Optional[TenantState]:
        return self._states.get(tenant_id, default)

    def __contains__(self, tenant_id: object) -> bool:
        """``id in registry`` — is this tenant *active*?"""
        return tenant_id in self._active_set

    def __iter__(self) -> Iterator[TenantState]:
        """Active tenants, in ascending id order."""
        return iter([self._states[i] for i in self._active])

    def __len__(self) -> int:
        """Number of *active* tenants."""
        return len(self._active)

    def is_active(self, tenant_id: int) -> bool:
        return tenant_id in self._active_set

    def is_known(self, tenant_id: int) -> bool:
        return tenant_id in self._states

    def active_ids(self) -> List[int]:
        """Stable ids of the active tenants, ascending."""
        return list(self._active)

    def known_ids(self) -> List[int]:
        """Every id ever registered, ascending."""
        return sorted(self._states)

    def all_states(self) -> List[TenantState]:
        """Every tenant ever registered (active and retired), by id."""
        return [self._states[i] for i in sorted(self._states)]

    def next_id(self) -> int:
        """The smallest never-used id (ids are never recycled)."""
        return max(self._states, default=-1) + 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TenantRegistry(active={self._active}, "
            f"known={len(self._states)})"
        )


@dataclass(frozen=True)
class StepRecord:
    """One scheduler round, as recorded for analysis.

    ``user`` is the tenant's stable id, so records remain attributable
    after membership churn.
    """

    t: int
    user: int
    arm: int
    reward: float
    cost: float
    cumulative_cost: float
    ucb_value: float
    sigma_tilde: float


@dataclass
class RunResult:
    """Full history of a scheduler run.

    ``n_users`` is the number of tenants known to the scheduler when
    the result was cut; under membership churn the records may name ids
    up to the largest ever admitted, and the per-tenant accessors are
    keyed by stable id.
    """

    records: List[StepRecord]
    n_users: int

    @property
    def n_steps(self) -> int:
        return len(self.records)

    @property
    def total_cost(self) -> float:
        return self.records[-1].cumulative_cost if self.records else 0.0

    def users(self) -> np.ndarray:
        return np.array([r.user for r in self.records], dtype=int)

    def arms(self) -> np.ndarray:
        return np.array([r.arm for r in self.records], dtype=int)

    def rewards(self) -> np.ndarray:
        return np.array([r.reward for r in self.records])

    def costs(self) -> np.ndarray:
        return np.array([r.cost for r in self.records])

    def cumulative_costs(self) -> np.ndarray:
        return np.array([r.cumulative_cost for r in self.records])

    def serves_per_user(self) -> np.ndarray:
        """Serve counts indexed by stable tenant id.

        Sized to cover the largest id appearing in the records (at
        least ``n_users``), so late arrivals are counted rather than
        overflowing a positional array.
        """
        size = self.n_users
        if self.records:
            size = max(size, max(r.user for r in self.records) + 1)
        counts = np.zeros(size, dtype=int)
        for record in self.records:
            counts[record.user] += 1
        return counts

    def serves_by_tenant(self) -> Dict[int, int]:
        """``{tenant_id: serve count}`` over the recorded rounds."""
        counts: Dict[int, int] = {}
        for record in self.records:
            counts[record.user] = counts.get(record.user, 0) + 1
        return counts


class MultiTenantScheduler:
    """Serve a changing set of tenants sharing one device (Section 4).

    Parameters
    ----------
    oracle:
        Source of (reward, cost) observations.
    pickers:
        The initial tenant set.  A sequence assigns ids ``0..n-1`` and
        must provide exactly one picker per oracle row (the paper's
        fixed-membership setting); a mapping ``{tenant_id: picker}``
        admits any subset of oracle rows, leaving the rest to arrive
        later via :meth:`add_tenant` (and may be empty).
    user_picker:
        The tenant-selection policy.
    clamp_potential:
        Clamp σ̃ at zero in the Algorithm 2 recurrence (off by default,
        staying literal to the paper; see DESIGN.md).
    """

    def __init__(
        self,
        oracle: RewardOracle,
        pickers: Union[Sequence[ModelPicker], Mapping[int, ModelPicker]],
        user_picker: UserPicker,
        *,
        clamp_potential: bool = False,
    ) -> None:
        if isinstance(pickers, Mapping):
            initial = {int(i): p for i, p in pickers.items()}
        else:
            if len(pickers) != oracle.n_users:
                raise ValueError(
                    f"need one picker per oracle user: got {len(pickers)} "
                    f"pickers for {oracle.n_users} users (pass a "
                    "{tenant_id: picker} mapping to start with a subset)"
                )
            initial = dict(enumerate(pickers))
        self.oracle = oracle
        self.tenants = TenantRegistry()
        self.user_picker = user_picker
        self.clamp_potential = bool(clamp_potential)
        self.step_count = 0
        self.total_cost = 0.0
        self.records: List[StepRecord] = []
        # A busy tenant's pick, served by the next next_dispatch call.
        self._deferred_pick: Optional[int] = None
        self.bind_metrics(None)
        # Decision cache: per-tenant-id dense arrays of the quantities
        # the user-picking phase ranges over every round.  See the
        # "Decision cache" section below.
        self._dc_sigma = np.full(_DECISION_MIN_CAPACITY, math.inf)
        self._dc_best_obs = np.zeros(_DECISION_MIN_CAPACITY)
        self._dc_best_ucb = np.full(_DECISION_MIN_CAPACITY, math.inf)
        self._dc_dirty: set = set()
        #: Changes whenever :meth:`invalidate_tenant` runs; together
        #: with ``tenants.version`` it names one state of everything the
        #: user-picking phase reads, so pickers may memoise against it.
        self.decision_epoch = next(_EPOCHS)
        self._dc_active = np.empty(0, dtype=np.intp)
        self._dc_active_version = -1
        for tenant_id in sorted(initial):
            self._admit(tenant_id, initial[tenant_id], None)
        self.user_picker.reset(self)

    def bind_metrics(self, registry) -> None:
        """Report per-step pick latency/counts into a metrics registry.

        ``registry`` is a :class:`repro.obs.MetricsRegistry` (or None
        to unbind — instruments revert to shared no-ops).  The core
        stays importable without the service stack: the obs import is
        local, the default is the disabled registry, and ``repro.obs``
        resolves its names on first use, so this loads the metrics
        module and the request context it reads, not tracing, SLOs or
        logging (``tests/test_import_hygiene.py`` pins it).
        """
        from repro.obs.metrics import NULL_REGISTRY, PICK_LATENCY_BUCKETS

        registry = registry if registry is not None else NULL_REGISTRY
        self._m_pick_seconds = registry.histogram(
            "scheduler_pick_seconds",
            "Latency of one serving-path model pick "
            "(TenantState.picker.select).",
            buckets=PICK_LATENCY_BUCKETS,
        )
        self._m_picks = registry.counter(
            "scheduler_picks_total",
            "Model picks made on the serving path, by tenant.",
            ["tenant"],
        )

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def _admit(
        self,
        tenant_id: int,
        picker: ModelPicker,
        costs: Optional[np.ndarray],
    ) -> TenantState:
        if not 0 <= tenant_id < self.oracle.n_users:
            raise ValueError(
                f"tenant id {tenant_id} has no oracle row (the oracle "
                f"serves users [0, {self.oracle.n_users})); grow the "
                "oracle first (e.g. MatrixOracle.add_user)"
            )
        if picker.n_arms != self.oracle.n_models(tenant_id):
            raise ValueError(
                f"picker for tenant {tenant_id} has {picker.n_arms} arms "
                f"but the oracle offers {self.oracle.n_models(tenant_id)} "
                f"models for user {tenant_id}"
            )
        if costs is None:
            costs = self.oracle.costs(tenant_id)
        state = self.tenants.add(
            TenantState(index=tenant_id, picker=picker,
                        costs=np.asarray(costs, dtype=float))
        )
        self.invalidate_tenant(tenant_id)
        return state

    def add_tenant(
        self,
        picker: Optional[ModelPicker] = None,
        costs: Optional[np.ndarray] = None,
        *,
        tenant_id: Optional[int] = None,
    ) -> TenantState:
        """Admit a tenant mid-run (a ``USER_ARRIVED`` in kernel terms).

        ``tenant_id`` defaults to the smallest never-used id; the
        oracle must already serve that row (grow it first for a truly
        new tenant).  Re-adding a retired id re-activates it with its
        history (and GP posterior) intact — pass ``picker=None`` to
        keep the tenant's existing picker.  The user picker is notified
        through its ``on_arrival`` hook.
        """
        if tenant_id is None:
            tenant_id = self.tenants.next_id()
        tenant_id = int(tenant_id)
        if self.tenants.is_active(tenant_id):
            raise ValueError(f"tenant {tenant_id} is already active")
        if self.tenants.is_known(tenant_id):
            state = self.tenants.reactivate(tenant_id)
            if picker is not None:
                state.picker = picker
            self.invalidate_tenant(tenant_id)
        else:
            if picker is None:
                raise ValueError(
                    f"tenant {tenant_id} is new: a model picker is required"
                )
            state = self._admit(tenant_id, picker, costs)
        self.user_picker.on_arrival(self, tenant_id)
        return state

    def retire_tenant(self, tenant_id: int) -> TenantState:
        """Remove a tenant from scheduling (``USER_DEPARTED``).

        The tenant's state, history and step records are preserved —
        only the active set shrinks.  The user picker is notified
        through its ``on_departure`` hook.
        """
        state = self.tenants.retire(int(tenant_id))
        self.user_picker.on_departure(self, int(tenant_id))
        return state

    @property
    def n_users(self) -> int:
        """Number of *active* tenants."""
        return len(self.tenants)

    @property
    def n_known(self) -> int:
        """Number of tenants ever admitted (active + retired)."""
        return len(self.tenants.known_ids())

    def active_ids(self) -> List[int]:
        """Stable ids of the active tenants, ascending."""
        return self.tenants.active_ids()

    # ------------------------------------------------------------------
    # Decision cache
    # ------------------------------------------------------------------
    # The user-picking phase ranges over three per-tenant scalars every
    # round: σ̃ (Algorithm 2 line 7's candidate filter), the tenant's
    # best observed accuracy, and its largest UCB (line 8's max-gap
    # rule).  Recomputing them per pick via Python attribute walks (and
    # a posterior evaluation per tenant for the UCB) made one pick
    # O(n·t²); the scheduler instead keeps them in dense arrays indexed
    # by stable tenant id, refreshed only for the tenant whose state
    # actually changed.  Every mutation path funnels through
    # :meth:`invalidate_tenant` — :meth:`complete` (``step()`` and the
    # async oracle's out-of-band ``absorb``), admission, reactivation —
    # which also advances ``decision_epoch``.

    def _ensure_decision_capacity(self, tenant_id: int) -> None:
        capacity = self._dc_sigma.shape[0]
        if tenant_id < capacity:
            return
        while capacity <= tenant_id:
            capacity *= 2
        for name, fill in (
            ("_dc_sigma", math.inf),
            ("_dc_best_obs", 0.0),
            ("_dc_best_ucb", math.inf),
        ):
            old = getattr(self, name)
            grown = np.full(capacity, fill)
            grown[: old.shape[0]] = old
            setattr(self, name, grown)

    def invalidate_tenant(self, tenant_id: int) -> None:
        """Refresh the decision cache for one tenant.

        Must be called after anything mutates a tenant's state outside
        :meth:`step` (the async oracle's completion path does).  The
        σ̃ / best-observed columns are copied immediately; the best-UCB
        column is marked dirty and recomputed lazily on the next read,
        so invalidation stays O(1).
        """
        tenant_id = int(tenant_id)
        state = self.tenants.get(tenant_id)
        if state is None:
            raise KeyError(f"unknown tenant id {tenant_id}")
        self._ensure_decision_capacity(tenant_id)
        self._dc_sigma[tenant_id] = state.sigma_tilde
        self._dc_best_obs[tenant_id] = state.best_observed
        self._dc_dirty.add(tenant_id)
        self.decision_epoch = next(_EPOCHS)

    def active_id_array(self) -> np.ndarray:
        """Active tenant ids as a read-only ascending numpy array.

        Cached against the registry's membership version, so steady
        rounds (no churn) pay nothing to rebuild it.
        """
        version = self.tenants.version
        if self._dc_active_version != version:
            active = np.array(self.tenants.active_ids(), dtype=np.intp)
            active.setflags(write=False)
            self._dc_active = active
            self._dc_active_version = version
            if active.size:
                self._ensure_decision_capacity(int(active[-1]))
        return self._dc_active

    def _refresh_best_ucbs(self) -> None:
        if not self._dc_dirty:
            return
        for tenant_id in tuple(self._dc_dirty):
            if self.tenants.is_active(tenant_id):
                picker = self.tenants[tenant_id].picker
                self._dc_best_ucb[tenant_id] = picker.best_ucb()
                self._dc_dirty.discard(tenant_id)
            # Retired tenants stay dirty: reactivation re-invalidates,
            # and the active slices below never read their rows.

    def potentials(self) -> np.ndarray:
        """Current σ̃ across *active* tenants (∞ for never-served),
        aligned with :meth:`active_ids`."""
        return self._dc_sigma[self.active_id_array()]

    def decision_best_ucbs(self) -> np.ndarray:
        """``max_k B(k)`` per active tenant, aligned with
        :meth:`active_ids` (∞ for heuristic pickers)."""
        self._refresh_best_ucbs()
        return self._dc_best_ucb[self.active_id_array()]

    def decision_gaps(self) -> np.ndarray:
        """ease.ml's line-8 quantity per active tenant — largest UCB
        minus best accuracy so far — aligned with :meth:`active_ids`."""
        index = self.active_id_array()
        self._refresh_best_ucbs()
        return self._dc_best_ucb[index] - self._dc_best_obs[index]

    def global_best_sum(self) -> float:
        """Σ_i best accuracy so far over active tenants — the progress
        signal HYBRID watches."""
        # Plain left-to-right summation (not np.sum's pairwise order)
        # keeps the value bit-identical to the pre-cache implementation.
        return float(sum(self._dc_best_obs[self.active_id_array()].tolist()))

    # ------------------------------------------------------------------
    # The serve loop
    # ------------------------------------------------------------------
    def next_dispatch(
        self, busy: Container[int] = ()
    ) -> Optional[Tuple[TenantState, Selection]]:
        """Algorithm 2's two-level pick: a tenant, then its model.

        The one place the user picker is asked: every driver (:meth:`step`
        and the cluster oracle's ``run_concurrent``) dispatches through
        here.  ``busy`` holds the ids of tenants that cannot take a job
        now.  If the user picker names one, the pick is kept as this
        scheduler's deferred pick and None is returned; the next call
        serves it before asking the user picker again, so stateful
        pickers such as ROUNDROBIN keep their sequence.  A deferred
        tenant that departed meanwhile is dropped for a fresh pick.
        """
        if not len(self.tenants):
            raise RuntimeError(
                "no active tenants to serve; admit one with add_tenant()"
            )
        user, self._deferred_pick = self._deferred_pick, None
        if user is None or not self.tenants.is_active(user):
            user = self.user_picker.pick(self)
            if not self.tenants.is_active(user):
                raise IndexError(
                    f"user picker returned {user}, which is not an active "
                    f"tenant (active ids: {self.active_ids()})"
                )
        if user in busy:
            self._deferred_pick = user
            return None
        tenant = self.tenants[user]
        pick_started = time.perf_counter()
        selection = tenant.picker.select()
        self._m_pick_seconds.observe(time.perf_counter() - pick_started)
        self._m_picks.labels(user).inc()
        return tenant, selection

    def step(self) -> StepRecord:
        """Run one round: pick user, pick model, train, update."""
        tenant, selection = self.next_dispatch()
        observation = self.oracle.observe(tenant.index, selection.arm)
        return self.complete(
            tenant, selection, observation.reward, observation.cost
        )

    def complete(
        self,
        tenant: TenantState,
        selection: Selection,
        reward: float,
        cost: float,
    ) -> StepRecord:
        """Feed one finished training run back into the scheduler.

        The second half of a round, shared by :meth:`step` and drivers
        that train out of band (the async cluster oracle): picker
        observation, the Algorithm 2 line-6 recurrence, decision-cache
        invalidation, a :class:`StepRecord`, and the user picker's
        ``notify`` hook.
        """
        tenant.picker.observe(selection.arm, reward)
        tenant.absorb(
            selection, reward, cost, clamp_potential=self.clamp_potential
        )
        self.invalidate_tenant(tenant.index)
        self.step_count += 1
        self.total_cost += cost
        record = StepRecord(
            t=self.step_count,
            user=tenant.index,
            arm=selection.arm,
            reward=reward,
            cost=cost,
            cumulative_cost=self.total_cost,
            ucb_value=selection.ucb_value,
            sigma_tilde=tenant.sigma_tilde,
        )
        self.records.append(record)
        self.user_picker.notify(self, record)
        return record

    def run(
        self,
        *,
        max_steps: Optional[int] = None,
        cost_budget: Optional[float] = None,
        stop: Optional[Callable[["MultiTenantScheduler"], bool]] = None,
    ) -> RunResult:
        """Run until a step or cost budget is exhausted.

        ``cost_budget`` is checked before each step: the run stops once
        the cumulative cost has reached it, so the last step may
        overshoot it by up to one model's cost (matching how a real
        cluster finishes its last job).
        """
        if max_steps is None and cost_budget is None and stop is None:
            raise ValueError(
                "provide max_steps, cost_budget or a stop predicate"
            )
        while True:
            if max_steps is not None and self.step_count >= max_steps:
                break
            if cost_budget is not None and self.total_cost >= cost_budget:
                break
            if stop is not None and stop(self):
                break
            self.step()
        return RunResult(records=list(self.records), n_users=self.n_known)
