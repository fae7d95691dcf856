"""Statistical-parity measures for ranked outputs, a controlled-bias ranking
generator, dataset ingestion helpers, and a prototype-based fair re-scoring
optimizer."""

from .ranking import (
    Ranking,
    RankingFormatError,
    ValidationError,
    build_schedule,
    read_ranking_csv,
    write_ranking_csv,
)
from .measures import (
    DegenerateGroupError,
    FairnessReport,
    MeasureKind,
    RrdInapplicableError,
    fairness_report,
    measure_from_flags,
    normalizer,
    report_to_json,
)
from .generator import (
    aggregate_values,
    generate_unfair,
    merge_order,
    random_base_ranking,
    sweep_values,
)
from .fairopt import (
    DivergenceError,
    FeatureMatrix,
    Hyperparams,
    PrototypeModel,
    TRACE_COLUMNS,
    accuracy_score_diff,
    apply_model,
    gradient,
    losses,
    soft_assignments,
    total_loss,
    train,
)

__version__ = "0.1.0"
