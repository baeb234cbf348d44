"""repro — a reproduction of "Ease.ml: Towards Multi-tenant Resource
Sharing for Machine Learning Workloads" (Li, Zhong, Liu, Wu, Zhang;
VLDB 2018).

Public surface
--------------
The subpackages are importable directly; the names re-exported here
cover the common workflow:

1. declare apps / load datasets (:mod:`repro.platform`,
   :mod:`repro.datasets`),
2. schedule multi-tenant model selection (:mod:`repro.core`),
3. execute on the event-driven simulated cluster
   (:mod:`repro.runtime` over :mod:`repro.engine`) with trace-replay
   or live trainers (:mod:`repro.ml`),
4. reproduce the paper's evaluation (:mod:`repro.experiments`).

The names resolve on first use: ``import repro`` loads no subpackage,
and looking a name up imports the module that defines it (and what
that module imports), nothing else.  So ``from repro import
MultiTenantScheduler`` starts without the HTTP service, and ``from
repro import EaseMLClient`` without the scheduler.

Quickstart::

    from repro import (
        EaseMLServer, program_from_shapes, load_deeplearning,
        ExperimentConfig, run_experiment,
    )

    # Trace-driven multi-tenant scheduling on the DEEPLEARNING matrix:
    result = run_experiment(
        load_deeplearning(),
        ["easeml", "most_cited", "most_recent"],
        ExperimentConfig(n_trials=5, cost_aware=True,
                         budget_fraction=0.10),
    )
    print(result.render())
"""

from repro._lazy import lazy_exports

__version__ = "1.5.0"

#: Every re-exported name and the module that defines it.  Importing
#: ``repro`` loads none of them: a name imports its module on first
#: use, so the scheduler core starts without the service stack.
_EXPORTS = {
    # core
    "GPUCB": "repro.core.ucb",
    "UCB1": "repro.core.ucb",
    "AlgorithmOneBeta": "repro.core.beta",
    "TheoremBeta": "repro.core.beta",
    "MatrixOracle": "repro.core.oracles",
    "MultiTenantScheduler": "repro.core.multitenant",
    "GPUCBPicker": "repro.core.model_picking",
    "MostCitedPicker": "repro.core.model_picking",
    "MostRecentPicker": "repro.core.model_picking",
    "FCFSPicker": "repro.core.user_picking",
    "RoundRobinPicker": "repro.core.user_picking",
    "RandomUserPicker": "repro.core.user_picking",
    "GreedyPicker": "repro.core.user_picking",
    "HybridPicker": "repro.core.user_picking",
    "SingleTenantRegretTracker": "repro.core.regret",
    "MultiTenantRegretTracker": "repro.core.regret",
    # datasets
    "ModelSelectionDataset": "repro.datasets.base",
    "load_deeplearning": "repro.datasets.deeplearning",
    "load_179classifier": "repro.datasets.classifier179",
    "load_benchmark_suite": "repro.datasets",
    "generate_syn": "repro.datasets.synthetic",
    # engine
    "GPUPool": "repro.engine.cluster",
    "TraceTrainer": "repro.engine.trainer",
    # runtime
    "ClusterRuntime": "repro.runtime.kernel",
    "AsyncClusterOracle": "repro.runtime.oracle",
    "WorkloadGenerator": "repro.runtime.workload",
    "WorkloadTrace": "repro.runtime.workload",
    "make_placement": "repro.runtime.placement",
    "replay_trace": "repro.runtime.workload",
    "first_divergence": "repro.runtime.trace",
    "diff_event_logs": "repro.runtime.trace",
    # service
    "API_VERSION": "repro.service.api",
    "ApiError": "repro.errors",
    "ApiErrorCode": "repro.errors",
    "ServiceGateway": "repro.service.gateway",
    "TenantQuota": "repro.service.gateway",
    "EaseMLClient": "repro.service.client",
    # gp
    "FiniteArmGP": "repro.gp.regression",
    "RBF": "repro.gp.kernels",
    "Matern": "repro.gp.kernels",
    "ConstantKernel": "repro.gp.kernels",
    # ml
    "default_zoo": "repro.ml.zoo",
    # platform
    "EaseMLServer": "repro.platform.server",
    "parse_program": "repro.platform.dsl",
    "program_from_shapes": "repro.platform.dsl",
    # experiments
    "ExperimentConfig": "repro.experiments.protocol",
    "run_experiment": "repro.experiments.harness",
}

__all__ = ["__version__", *_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
