"""The ease.ml server: declarative apps over multi-tenant scheduling.

This is the end-to-end composition of Figure 1:

1. users register *apps* by submitting a DSL program (schema matching
   generates candidate models into the user-level task pool);
2. users ``feed`` input/output pairs (stored centrally) and may
   ``refine`` them (toggle noisy labels off);
3. the server runs the multi-tenant model-selection loop — HYBRID
   user-picking with cost-aware GP-UCB model-picking by default — and
   live-trains candidates from the model zoo;
4. ``infer`` answers with the best model found so far for that app.

Substitution note (DESIGN.md §5): the paper's candidate models for
image workloads are GPU-trained CNNs.  Live training here instantiates
the numpy model zoo instead, while ``EaseMLApp.paper_candidates``
still exposes the faithful Figure 4 candidate list (with normalization
variants) for inspection and trace-driven experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.beta import AlgorithmOneBeta
from repro.core.model_picking import GPUCBPicker
from repro.core.multitenant import MultiTenantScheduler, StepRecord
from repro.core.oracles import Observation
from repro.core.user_picking import (
    GreedyPicker,
    HybridPicker,
    RandomUserPicker,
    RoundRobinPicker,
    UserPicker,
)
from repro.engine.clock import SimClock
from repro.engine.events import EventKind, EventLog
from repro.gp.covariance import covariance_from_features
from repro.gp.kernels import RBF, ConstantKernel
from repro.ml.base import Estimator, train_test_split
from repro.ml.preprocessing import StandardScaler
from repro.ml.zoo import ModelZoo, default_zoo
from repro.platform.candidates import CandidateModel, generate_candidates
from repro.platform.dsl import parse_program
from repro.platform.normalization import (
    NormalizationFunction,
    default_normalization_family,
    prescale_unit,
)
from repro.platform.schema import Program
from repro.platform.storage import ExampleStore, SharedStorage
from repro.platform.templates import Template, WorkloadKind, match_template
from repro.errors import ApiError, ApiErrorCode
from repro.utils.rng import RandomState, SeedLike

#: Events a served platform (``EaseMLServer(served=True)``) keeps: the
#: newest ones, in a ring, so a long-running service holds a fixed
#: window of its timeline.
SERVED_EVENT_LOG_CAPACITY = 1024

#: Workload kinds the live trainer can serve (classification-shaped).
_TRAINABLE_KINDS = (
    WorkloadKind.IMAGE_CLASSIFICATION,
    WorkloadKind.TIMESERIES_CLASSIFICATION,
    WorkloadKind.TREE_CLASSIFICATION,
    WorkloadKind.GENERAL_CLASSIFICATION,
)


@dataclass(frozen=True)
class LiveCandidate:
    """One trainable candidate: a zoo entry plus optional normalization."""

    zoo_name: str
    normalization: Optional[NormalizationFunction] = None

    @property
    def name(self) -> str:
        if self.normalization is None:
            return self.zoo_name
        return f"{self.zoo_name}+{self.normalization.name}"


@dataclass(slots=True)
class TrainingOutcome:
    """One completed training run for an app."""

    step: int
    candidate: str
    accuracy: float
    cost: float
    improved: bool


class EaseMLApp:
    """One registered user application (the generated "binaries")."""

    def __init__(
        self,
        name: str,
        program: Program,
        store: ExampleStore,
        server: "EaseMLServer",
    ) -> None:
        self.name = name
        self.program = program
        self.store = store
        self._server = server
        self.template: Template = match_template(program)
        #: The faithful Figure 4 candidate list (paper model names).
        self.paper_candidates: List[CandidateModel] = generate_candidates(
            program
        )
        #: What the live trainer will actually run (zoo-backed).
        self.live_candidates: List[LiveCandidate] = (
            server._build_live_candidates(self)
        )
        self.history: List[TrainingOutcome] = []
        self.best_accuracy: float = -math.inf
        self.best_candidate: Optional[str] = None
        #: ``step`` of the training run that produced the served model
        #: (the versioning half of batch inference: clients can tell
        #: which run answered).
        self.best_version: Optional[int] = None
        #: A closed app is retired from scheduling (its tenant departed)
        #: but keeps serving ``infer`` from its best model.
        self.closed: bool = False
        self._best_estimator: Optional[Estimator] = None
        self._best_transform: Optional[
            Callable[[np.ndarray], np.ndarray]
        ] = None
        self.n_classes: int = program.output.flat_size

    # ------------------------------------------------------------------
    # The three operators
    # ------------------------------------------------------------------
    def feed(
        self,
        inputs: Sequence[np.ndarray],
        outputs: Sequence[Union[int, np.ndarray]],
    ) -> List[int]:
        """Store input/output example pairs (the ``feed`` operator).

        Outputs may be integer class labels (converted to one-hot of
        the declared output size) or full output tensors.  The pairs
        land as one block, all or none: a bad row rejects the call
        before anything is stored.
        """
        if len(inputs) != len(outputs):
            raise ValueError(
                f"got {len(inputs)} inputs but {len(outputs)} outputs"
            )
        inputs, X = self._input_block(inputs)
        Y = self._output_block(outputs)
        ids = list(self.store.add_block(X, Y))
        self._server.log.append(
            self._server.clock.now, EventKind.FEED, app=self.name,
            count=len(ids),
        )
        self._server._notify_persist(
            "feed", app=self.name, inputs=inputs, outputs=outputs,
            example_ids=ids,
        )
        return ids

    def _input_block(self, inputs) -> Tuple[object, np.ndarray]:
        """``(inputs as float, (k, d) block)`` for a feed's inputs.

        The first is what the journal records: the rows as sent, in
        float64, nested shape kept.
        """
        input_size = self.program.input.flat_size
        k = len(inputs)
        try:
            rows = np.asarray(inputs, dtype=float)
        except ValueError:
            # Rows of different shapes (equal sizes are still fine).
            rows = [np.asarray(x, dtype=float) for x in inputs]
            sizes = [x.size for x in rows]
        else:
            sizes = [rows[0].size] if k else []
        for size in sizes:
            if size != input_size:
                raise ValueError(
                    f"input has {size} scalars, schema declares "
                    f"{input_size}"
                )
        if k == 0:
            return rows, np.empty((0, input_size))
        if isinstance(rows, list):
            return rows, np.stack([x.ravel() for x in rows])
        return rows, rows.reshape(k, input_size)

    def _output_block(self, outputs) -> np.ndarray:
        """The ``(k, c)`` output block: labels one-hot, tensors flat."""
        c = self.program.output.flat_size
        Y = np.zeros((len(outputs), c))
        for i, y in enumerate(outputs):
            if isinstance(y, (int, np.integer)):
                label = int(y)
                if not 0 <= label < self.n_classes:
                    raise ValueError(
                        f"label {label} out of range [0, {self.n_classes})"
                    )
                Y[i, label] = 1.0
                continue
            y = np.asarray(y, dtype=float)
            if y.size != c:
                raise ValueError(
                    f"output has {y.size} scalars, schema declares {c}"
                )
            Y[i] = y.ravel()
        return Y

    def refine(self) -> List[Tuple[int, bool]]:
        """All fed examples and their enabled flags (``refine`` view)."""
        self._server.log.append(
            self._server.clock.now, EventKind.REFINE, app=self.name,
        )
        return self.store.flags()

    def set_example_enabled(self, example_id: int, enabled: bool) -> None:
        """Toggle one example on/off (the ``refine`` action)."""
        try:
            self.store.set_enabled(example_id, enabled)
        except IndexError:
            raise ApiError(
                ApiErrorCode.NOT_FOUND,
                f"app {self.name!r} has no example {example_id}; "
                f"{len(self.store)} example(s) are stored, with ids "
                f"0..{len(self.store) - 1} — list them with refine()",
                app=self.name,
                example_id=int(example_id),
            ) from None

    def infer(self, x: np.ndarray) -> int:
        """Predict with the best model so far (the ``infer`` operator)."""
        x = np.asarray(x, dtype=float).ravel()[None, :]
        return int(self.infer_rows(x)[0])

    def infer_rows(self, X: np.ndarray) -> np.ndarray:
        """Vectorized ``infer``: one ``(B, n)`` batch, one ``predict``.

        Every estimator in ``repro.ml`` predicts rows independently, so
        the batch answer is bit-identical to B scalar :meth:`infer`
        calls — but it costs one transform, one predict, and ONE
        :data:`EventKind.INFER` event (with a ``rows=`` attribute)
        instead of B of each.
        """
        if self._best_estimator is None:
            raise RuntimeError(
                f"app {self.name!r} has no trained model yet; run the "
                "server first"
            )
        X = np.asarray(X, dtype=float)
        if X.ndim != 2:
            raise ValueError(
                f"infer_rows expects a (B, n) matrix, got shape {X.shape}"
            )
        if self._best_transform is not None:
            X = self._best_transform(X)
        predictions = self._best_estimator.predict(X)
        self._server.log.append(
            self._server.clock.now, EventKind.INFER, app=self.name,
            rows=int(len(X)),
        )
        return np.asarray(predictions, dtype=np.int64)

    # ------------------------------------------------------------------
    # Reporting (Figure 3d's "report")
    # ------------------------------------------------------------------
    def report(self) -> List[TrainingOutcome]:
        """The improvement history (every run that beat the best)."""
        return [h for h in self.history if h.improved]

    def candidate_names(self) -> List[str]:
        return [c.name for c in self.live_candidates]


class EaseMLServer:
    """The shared ease.ml service instance.

    Parameters
    ----------
    zoo:
        Model zoo used for live training (default: :func:`default_zoo`).
    strategy:
        User-picking strategy name: ``"hybrid"`` (ease.ml default),
        ``"greedy"``, ``"round_robin"`` or ``"random"``.
    cost_aware:
        Use cost-aware GP-UCB model picking (the §3.2 twist).
    test_fraction:
        Held-out fraction of each app's enabled examples used to score
        candidates.
    include_normalization:
        Expand image-shaped apps with the Figure 5 family.
    runtime_placement:
        Placement policy of the simulated cluster every training job
        runs on (:class:`repro.runtime.ClusterRuntime`, driven through
        :class:`repro.runtime.AsyncClusterOracle`): ``"single"``
        (default, the paper's whole pool per job, one job at a time),
        ``"dedicated"`` or ``"partition"``.  The concurrent policies
        keep up to one job per app in flight and absorb results in
        completion order.  Training outcomes are computed at dispatch
        (the simulated job then occupies the cluster for its cost)
        but applied to app state — best model, history, improvement
        events — only when the simulated job *completes*, so app
        status and ``infer`` never reflect jobs still in flight.  The
        shared clock, the event log and the scheduler's step costs
        are wall-clock time on the configured pool.
    n_gpus, scaling_efficiency:
        Pool shape of the simulated cluster.
    preemption_overhead:
        Single-GPU work units lost per preemption (checkpoint/restore
        cost).
    served:
        Build the platform of a long-running service (what
        ``ServiceGateway`` does): :attr:`log` keeps only the newest
        :data:`SERVED_EVENT_LOG_CAPACITY` events, so it holds a fixed
        window of the timeline however long the service runs.
    """

    _STRATEGIES = ("hybrid", "greedy", "round_robin", "random")

    def __init__(
        self,
        zoo: Optional[ModelZoo] = None,
        *,
        strategy: str = "hybrid",
        cost_aware: bool = True,
        gp_noise: float = 0.05,
        test_fraction: float = 0.3,
        include_normalization: bool = True,
        min_examples: int = 10,
        runtime_placement: str = "single",
        n_gpus: int = 24,
        scaling_efficiency: float = 0.9,
        preemption_overhead: float = 0.0,
        seed: SeedLike = 0,
        served: bool = False,
    ) -> None:
        if strategy not in self._STRATEGIES:
            raise ValueError(
                f"strategy must be one of {self._STRATEGIES}, "
                f"got {strategy!r}"
            )
        from repro.runtime.placement import PLACEMENT_POLICIES

        if runtime_placement not in PLACEMENT_POLICIES:
            raise ValueError(
                f"runtime_placement must be one of "
                f"{sorted(PLACEMENT_POLICIES)}, got {runtime_placement!r}"
            )
        self.zoo = zoo if zoo is not None else default_zoo()
        self.strategy = strategy
        self.cost_aware = bool(cost_aware)
        self.gp_noise = float(gp_noise)
        self.test_fraction = float(test_fraction)
        self.include_normalization = bool(include_normalization)
        self.min_examples = int(min_examples)
        self.runtime_placement = runtime_placement
        self.n_gpus = int(n_gpus)
        self.scaling_efficiency = float(scaling_efficiency)
        self.preemption_overhead = float(preemption_overhead)
        self._rng = RandomState(seed)

        self.storage = SharedStorage()
        self.apps: List[EaseMLApp] = []
        self.clock = SimClock()
        self.log = EventLog(SERVED_EVENT_LOG_CAPACITY if served else None)
        #: Persistence observers: callbacks fired on feed / admit /
        #: retire so a write-ahead journal (repro.persist) can record
        #: platform mutations even when they bypass the gateway.
        self._persist_hooks: List[Callable[[str, dict], None]] = []
        self._scheduler: Optional[MultiTenantScheduler] = None
        self._runtime_oracle = None
        # Runtime backend: outcomes banked at dispatch, keyed by the
        # job id the imminent submit will create, applied on completion.
        self._deferred_outcomes: Dict[int, Tuple] = {}
        # Fired (under whatever lock the caller holds) whenever a
        # training outcome improves an app's best model; the serving
        # layer uses this to invalidate prediction caches and publish
        # promotion events.
        self._promotion_callbacks: List[Callable[[EaseMLApp], None]] = []
        # Keyed by stable tenant id (the app's index in self.apps) so
        # membership can be sparse: late arrivals fill their slot when
        # admitted, never shifting anyone else's.
        self._cost_estimates: Dict[int, np.ndarray] = {}
        self._splits: Dict[
            int, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
        ] = {}

    # ------------------------------------------------------------------
    # Persistence hooks
    # ------------------------------------------------------------------
    def on_persist(self, callback: Callable[[str, dict], None]) -> None:
        """Observe platform mutations for write-ahead journaling.

        ``callback(kind, info)`` fires after a mutation lands:
        ``"feed"`` (info: app, inputs, outputs, example_ids),
        ``"admit"`` (info: app, user) and ``"retire"`` (info: app,
        user, cancelled).  The service gateway's durable control plane
        (:mod:`repro.persist`) registers here so these records reach
        the journal in the order they happened.
        """
        self._persist_hooks.append(callback)

    def on_promotion(self, callback: Callable[[EaseMLApp], None]) -> None:
        """Register ``callback(app)`` to fire when a training outcome
        becomes an app's new best model.

        The callback runs inline inside :meth:`_apply_outcome` — under
        the gateway lock when training completes through the service —
        so it must be fast and must not call back into the platform.
        """
        self._promotion_callbacks.append(callback)

    def _notify_persist(self, kind: str, **info) -> None:
        for callback in self._persist_hooks:
            callback(kind, info)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_app(
        self, program: Union[str, Program], name: str
    ) -> EaseMLApp:
        """Register a new user application from DSL text or a Program.

        Registration is open for the lifetime of the server: an app
        registered after scheduling has started simply becomes a
        not-yet-admitted tenant — feed it past ``min_examples`` and it
        joins the live run (a ``USER_ARRIVED`` event) at the next
        :meth:`admit_app` / :meth:`run` / training submit.
        """
        if isinstance(program, str):
            program = parse_program(program, name=name)
        if name in self.storage:
            raise ValueError(f"an app named {name!r} already exists")
        store = self.storage.create(name)
        app = EaseMLApp(name, program, store, self)
        if app.template.kind not in _TRAINABLE_KINDS:
            raise NotImplementedError(
                f"live training for {app.template.kind.value!r} workloads "
                "is not supported; use trace-driven experiments instead"
            )
        self.apps.append(app)
        if self._runtime_oracle is not None:
            # The trainer is already live: grow a row for the newcomer
            # now (placeholder planning costs until admission profiles
            # the real ones; inactive tenants are never dispatched).
            user = len(self.apps) - 1
            self._runtime_oracle.trainer.add_user(
                self._app_tasks(user, app),
                np.ones(len(app.live_candidates)),
            )
        return app

    def _build_live_candidates(self, app: EaseMLApp) -> List[LiveCandidate]:
        kind = match_template(app.program).kind
        candidates = [LiveCandidate(name) for name in self.zoo.names()]
        image_shaped = kind in (WorkloadKind.IMAGE_CLASSIFICATION,)
        if self.include_normalization and image_shaped:
            for zoo_name in self.zoo.names():
                for func in default_normalization_family():
                    candidates.append(LiveCandidate(zoo_name, func))
        return candidates

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _make_user_picker(self) -> UserPicker:
        if self.strategy == "hybrid":
            return HybridPicker(seed=self._rng)
        if self.strategy == "greedy":
            return GreedyPicker(seed=self._rng)
        if self.strategy == "round_robin":
            return RoundRobinPicker()
        return RandomUserPicker(seed=self._rng)

    def _candidate_features(self, app: EaseMLApp, n: int, d: int, c: int):
        """Feature vectors for the GP prior over an app's candidates."""
        families = sorted({self.zoo[lc.zoo_name].family for lc in
                           app.live_candidates})
        fam_index = {f: i for i, f in enumerate(families)}
        rows = []
        costs = []
        for lc in app.live_candidates:
            entry = self.zoo[lc.zoo_name]
            cost = entry.cost_estimate(n, d, c)
            one_hot = [0.0] * len(families)
            one_hot[fam_index[entry.family]] = 1.0
            k = lc.normalization.k if lc.normalization else 0.0
            rows.append([np.log10(cost)] + one_hot + [k])
            costs.append(cost)
        features = np.asarray(rows)
        scaler = StandardScaler().fit(features)
        return scaler.transform(features), np.asarray(costs)

    def _build_picker(self, user: int, app: EaseMLApp) -> GPUCBPicker:
        """Profile one app and build its GP-UCB picker.

        Fills the per-tenant split and planning-cost tables under the
        app's stable id as a side effect.
        """
        X, Y = app.store.enabled_arrays()
        y = np.argmax(Y, axis=1) if Y.shape[1] > 1 else (
            Y.ravel() > 0.5
        ).astype(int)
        X_train, X_test, y_train, y_test = train_test_split(
            X, y, test_fraction=self.test_fraction, seed=self._rng
        )
        self._splits[user] = (X_train, X_test, y_train, y_test)
        n, d = X_train.shape
        c = max(int(np.unique(y_train).shape[0]), 2)
        features, costs = self._candidate_features(app, n, d, c)
        self._cost_estimates[user] = costs
        prior = covariance_from_features(
            ConstantKernel(0.09) * RBF(1.0), features
        )
        return GPUCBPicker(
            prior,
            AlgorithmOneBeta(len(app.live_candidates)),
            costs if self.cost_aware else None,
            noise=self.gp_noise,
            prior_mean=np.full(len(app.live_candidates), 0.5),
        )

    def _prepare(self, *, only_ready: bool = False) -> None:
        """Build the scheduler over the current tenant membership.

        By default every (open) app must be ready — the strict
        paper-style start, where forgetting to feed an app is an error.
        With ``only_ready`` the ready subset starts scheduling and the
        rest remain unadmitted until :meth:`admit_app` brings them in
        as live arrivals (the service gateway's policy).
        """
        if not self.apps:
            raise RuntimeError("no apps registered")
        self._cost_estimates = {}
        self._splits = {}
        pickers: Dict[int, GPUCBPicker] = {}
        for user, app in enumerate(self.apps):
            if app.closed:
                continue
            if app.store.n_enabled < self.min_examples:
                if only_ready:
                    continue
                raise RuntimeError(
                    f"app {app.name!r} has {app.store.n_enabled} enabled "
                    f"examples; at least {self.min_examples} are required "
                    "before scheduling"
                )
            pickers[user] = self._build_picker(user, app)
        if not pickers:
            raise RuntimeError(
                f"no app has {self.min_examples} enabled examples yet; "
                "feed more before scheduling"
            )
        self._scheduler = MultiTenantScheduler(
            self._build_runtime_oracle(), pickers, self._make_user_picker()
        )

    def _app_tasks(self, user: int, app: EaseMLApp):
        """Per-candidate training callables for the runtime trainer."""

        def task(model: int):
            def run() -> Tuple[float, float]:
                observation = self._train_candidate(user, model)
                return observation.reward, observation.cost

            return run

        return [task(m) for m in range(len(app.live_candidates))]

    def _build_runtime_oracle(self):
        """Route training through the event-driven cluster runtime."""
        from repro.engine.cluster import GPUPool
        from repro.engine.trainer import CallableTrainer
        from repro.runtime.oracle import AsyncClusterOracle
        from repro.runtime.placement import make_placement

        # Every registered app gets a trainer row (ids are app
        # positions); apps not yet admitted carry placeholder planning
        # costs that admission replaces with profiled ones.
        tasks = [
            self._app_tasks(u, app) for u, app in enumerate(self.apps)
        ]
        cost_rows = [
            self._cost_estimates.get(u, np.ones(len(app.live_candidates)))
            for u, app in enumerate(self.apps)
        ]
        trainer = CallableTrainer(tasks, cost_rows)
        self._runtime_oracle = AsyncClusterOracle(
            trainer,
            GPUPool(self.n_gpus, scaling_efficiency=self.scaling_efficiency),
            make_placement(self.runtime_placement),
            clock=self.clock,
            log=self.log,
            preemption_overhead=self.preemption_overhead,
        )
        self._runtime_oracle.runtime.on_completion(
            self._apply_completed_outcome
        )
        return self._runtime_oracle

    # ------------------------------------------------------------------
    # Dynamic tenant lifecycle
    # ------------------------------------------------------------------
    def is_admitted(self, name: str) -> bool:
        """Is this app an *active* tenant of the running scheduler?"""
        app = self.get_app(name)
        if self._scheduler is None:
            return False
        return self._scheduler.tenants.is_active(self.apps.index(app))

    def admit_app(self, name: str) -> int:
        """Admit an app to the live scheduler; returns its tenant id.

        Idempotent for already-active tenants.  The newcomer is
        profiled (split, planning costs, GP prior) exactly like an
        initial tenant, joins the scheduler's active set, and lands in
        the event log as ``USER_ARRIVED``.
        """
        app = self.get_app(name)
        user = self.apps.index(app)
        if self._scheduler is None:
            raise RuntimeError(
                "scheduling has not started; call run() (or the "
                "gateway's submit path) first"
            )
        if self._scheduler.tenants.is_active(user):
            return user
        if app.closed:
            raise RuntimeError(f"app {name!r} is closed")
        if app.store.n_enabled < self.min_examples:
            raise RuntimeError(
                f"app {app.name!r} has {app.store.n_enabled} enabled "
                f"examples; at least {self.min_examples} are required "
                "before scheduling"
            )
        picker = self._build_picker(user, app)
        costs = self._cost_estimates[user]
        self._scheduler.add_tenant(picker, costs, tenant_id=user)
        self._runtime_oracle.trainer.update_costs(user, costs)
        runtime = self._runtime_oracle.runtime
        runtime.user_arrives(user)
        runtime.run_until(self.clock.now)
        self._notify_persist("admit", app=name, user=user)
        return user

    def retire_app(self, name: str) -> List[int]:
        """Close an app: retire its tenant from the live run.

        Emits ``USER_DEPARTED``; the departed tenant's queued jobs are
        cancelled (returned as job ids), running jobs drain through the
        normal completion path, and its share of the pool is released
        at the next placement re-cut.  The app keeps serving ``infer``
        from its best model — closing only stops training.
        """
        app = self.get_app(name)
        if app.closed:
            raise RuntimeError(f"app {name!r} is already closed")
        app.closed = True
        user = self.apps.index(app)
        cancelled: List[int] = []
        if self._scheduler is None or not self._scheduler.tenants.is_active(
            user
        ):
            return cancelled
        self._scheduler.retire_tenant(user)
        runtime = self._runtime_oracle.runtime
        before = {j.job_id for j in runtime.failed_jobs()}
        runtime.user_departs(user)
        runtime.run_until(self.clock.now)
        cancelled = sorted(
            j.job_id
            for j in runtime.failed_jobs()
            if j.job_id not in before and j.user == user
        )
        self._notify_persist(
            "retire", app=name, user=user, cancelled=list(cancelled)
        )
        return cancelled

    def _admit_ready(self) -> None:
        """Admit every fed-past-threshold app not yet in the live run."""
        for user, app in enumerate(self.apps):
            if app.closed or self._scheduler.tenants.is_active(user):
                continue
            if app.store.n_enabled >= self.min_examples:
                self.admit_app(app.name)

    def _train_candidate(self, user: int, model: int) -> Observation:
        app = self.apps[user]
        candidate = app.live_candidates[model]
        X_train, X_test, y_train, y_test = self._splits[user]

        transform = _make_transform(candidate.normalization)
        Xtr = transform(X_train)
        Xte = transform(X_test)

        entry = self.zoo[candidate.zoo_name]
        estimator = entry.make(int(self._rng.integers(0, 2**31 - 1)))
        estimator.fit(Xtr, y_train)
        accuracy = estimator.score(Xte, y_test)
        cost = max(estimator.work_units / 1e5, 1e-6)
        # The outcome is computed now (the simulated job occupies the
        # cluster for its cost) but applied only at job completion, so
        # app state never reflects jobs still in flight.  Every trainer
        # call is immediately followed by the runtime submit that
        # creates job id len(jobs) — that adjacency is the keying
        # invariant here.
        next_job_id = len(self._runtime_oracle.runtime.jobs)
        self._deferred_outcomes[next_job_id] = (
            user, model, estimator, transform, accuracy, cost
        )
        return Observation(float(accuracy), float(cost))

    def _apply_outcome(
        self, user, model, estimator, transform, accuracy, cost
    ) -> None:
        """Land one training result in app state (best model, history)."""
        app = self.apps[user]
        candidate = app.live_candidates[model]
        improved = accuracy > app.best_accuracy
        if improved:
            app.best_accuracy = accuracy
            app.best_candidate = candidate.name
            app.best_version = len(app.history) + 1
            app._best_estimator = estimator
            app._best_transform = transform
            # App-level improvement event (the runtime separately logs
            # the per-job lifecycle).
            self.log.append(
                self.clock.now, EventKind.MODEL_RETURNED, app=app.name,
                candidate=candidate.name, accuracy=accuracy,
            )
            for callback in self._promotion_callbacks:
                callback(app)
        app.history.append(
            TrainingOutcome(
                step=len(app.history) + 1,
                candidate=candidate.name,
                accuracy=accuracy,
                cost=cost,
                improved=improved,
            )
        )

    def _apply_completed_outcome(self, job) -> None:
        """Runtime completion hook: apply the job's banked outcome."""
        pending = self._deferred_outcomes.pop(job.job_id, None)
        if pending is not None:
            self._apply_outcome(*pending)

    def run(
        self,
        *,
        max_steps: Optional[int] = None,
        cost_budget: Optional[float] = None,
    ) -> List[StepRecord]:
        """Run the multi-tenant loop; returns the new step records.

        Under ``single`` placement one job runs at a time; under the
        concurrent placements up to one job per app is in flight and
        observations land in completion order.  Record costs, the
        clock and ``cost_budget`` are wall-clock time on the pool.
        """
        if self._scheduler is None:
            self._prepare()
        else:
            # Dynamic membership: apps registered (and fed) since the
            # last run join as live arrivals before this one.
            self._admit_ready()
        before = self._scheduler.step_count
        self._runtime_oracle.run_concurrent(
            self._scheduler,
            max_jobs=max_steps,
            cost_budget=(
                self._scheduler.total_cost + cost_budget
                if cost_budget is not None
                else None
            ),
        )
        return self._scheduler.records[before:]

    @property
    def scheduler(self) -> Optional[MultiTenantScheduler]:
        return self._scheduler

    def get_app(self, name: str) -> EaseMLApp:
        for app in self.apps:
            if app.name == name:
                return app
        raise ApiError(
            ApiErrorCode.NOT_FOUND,
            f"no app named {name!r}; registered apps: "
            f"{sorted(a.name for a in self.apps)} — register it first "
            "with register_app()",
            app=name,
        )


def _make_transform(
    normalization: Optional[NormalizationFunction],
) -> Callable[[np.ndarray], np.ndarray]:
    """Row-wise input transform for a candidate's normalization."""

    if normalization is None:
        return lambda X: np.asarray(X, dtype=float)

    def transform(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        out = np.empty_like(X)
        for i in range(X.shape[0]):
            out[i] = normalization(prescale_unit(X[i]))
        return out

    return transform
