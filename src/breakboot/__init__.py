"""Bootstrap sup-Wald and sup-F tests for multiple structural breaks in
linear models estimated by two-stage least squares."""

from .bootstrap import (
    BootstrapConfig,
    MultiplierStream,
    bootstrap_sup_test_design,
    pvalue_and_quantile,
    wf_generate,
    wr_generate,
)
from .dgp import ScenarioConfig, ScenarioTruth, draw_errors, generate, scenario_model_spec
from .estimation import (
    FirstStage,
    OlsFit,
    RegimeEstimates,
    RobustBlocks,
    eicker_white,
    first_stage,
    fit_regimes,
    make_design,
    ols,
    second_stage,
)
from .exceptions import (
    BootstrapFailureError,
    BreakbootError,
    ConfigError,
    DegenerateSSRError,
    EmptyDrawsError,
    InfeasiblePartitionError,
    RankDeficientError,
    SingularMiddleError,
    SingularQError,
)
from .harness import CellResult, McConfig, run_cell, run_table, test_dataset
from .model import (
    Dataset,
    ModelSpec,
    Partition,
    Role,
    build_instrument_rows,
    no_breaks,
    regime_of,
)
from .partition_search import (
    AdmissibleGrid,
    enumerate_partitions,
    global_ssr_breaks,
    min_regime_length,
    rf_break_grid_and_fit,
)
from .sequential import SequentialResult, estimate_rf_breaks_design
from .stats import (
    ContrastMatrix,
    TestOutcome,
    f_at,
    sup_f_design,
    sup_wald_design,
    sup_wald_seq_design,
    wald_at,
)

__version__ = "0.1.0"
