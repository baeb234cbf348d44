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

from repro.core import (
    GPUCB,
    UCB1,
    AlgorithmOneBeta,
    FCFSPicker,
    GPUCBPicker,
    GreedyPicker,
    HybridPicker,
    MatrixOracle,
    MostCitedPicker,
    MostRecentPicker,
    MultiTenantRegretTracker,
    MultiTenantScheduler,
    RandomUserPicker,
    RoundRobinPicker,
    SingleTenantRegretTracker,
    TheoremBeta,
)
from repro.datasets import (
    ModelSelectionDataset,
    generate_syn,
    load_179classifier,
    load_benchmark_suite,
    load_deeplearning,
)
from repro.engine import GPUPool, TraceTrainer
from repro.experiments import (
    ExperimentConfig,
    run_experiment,
)
from repro.gp import RBF, ConstantKernel, FiniteArmGP, Matern
from repro.ml import default_zoo
from repro.platform import (
    EaseMLServer,
    parse_program,
    program_from_shapes,
)
from repro.runtime import (
    AsyncClusterOracle,
    ClusterRuntime,
    WorkloadGenerator,
    WorkloadTrace,
    diff_event_logs,
    first_divergence,
    make_placement,
    replay_trace,
)
from repro.service import (
    API_VERSION,
    ApiError,
    ApiErrorCode,
    EaseMLClient,
    ServiceGateway,
    TenantQuota,
)

__version__ = "1.5.0"

__all__ = [
    "__version__",
    # core
    "GPUCB",
    "UCB1",
    "AlgorithmOneBeta",
    "TheoremBeta",
    "MatrixOracle",
    "MultiTenantScheduler",
    "GPUCBPicker",
    "MostCitedPicker",
    "MostRecentPicker",
    "FCFSPicker",
    "RoundRobinPicker",
    "RandomUserPicker",
    "GreedyPicker",
    "HybridPicker",
    "SingleTenantRegretTracker",
    "MultiTenantRegretTracker",
    # datasets
    "ModelSelectionDataset",
    "load_deeplearning",
    "load_179classifier",
    "load_benchmark_suite",
    "generate_syn",
    # engine
    "GPUPool",
    "TraceTrainer",
    # runtime
    "ClusterRuntime",
    "AsyncClusterOracle",
    "WorkloadGenerator",
    "WorkloadTrace",
    "make_placement",
    "replay_trace",
    "first_divergence",
    "diff_event_logs",
    # service
    "API_VERSION",
    "ApiError",
    "ApiErrorCode",
    "ServiceGateway",
    "TenantQuota",
    "EaseMLClient",
    # gp
    "FiniteArmGP",
    "RBF",
    "Matern",
    "ConstantKernel",
    # ml
    "default_zoo",
    # platform
    "EaseMLServer",
    "parse_program",
    "program_from_shapes",
    # experiments
    "ExperimentConfig",
    "run_experiment",
]
