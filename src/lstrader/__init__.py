"""Latent-source kernel regression for short-horizon price prediction.

Pipeline in brief: coarsen ticks onto a 10-second grid, mine normalized
price-window patterns into N banks (by default three: 30/60/120 minutes;
any strictly increasing list of window lengths works), score live windows
against the banks with an exponential-similarity kernel, combine the N bank
predictions with the order-book imbalance through a fitted affine layer of
N + 2 weights, and trade a +1/0/-1 position on a threshold rule.
"""

from .evaluator import BacktestReport, SweepRow, emit_report, sharpe, sweep_thresholds
from .latent_source import (
    LabelDist,
    LabeledSet,
    LatentSourceSpec,
    Placement,
    SyntheticSeries,
    demo_spec,
    generate_labeled,
    generate_price_series,
)
from .market_data import PriceSeries, TickTable, coarsen, imbalance, parse_ticks
from .pattern_bank import (
    BankPattern,
    ClusterSet,
    PatternBank,
    WindowSet,
    build_banks,
    extract_windows,
    kmeans,
    normalize,
    select_effective,
)
from .regression import (
    CalibrationResult,
    CombinerWeights,
    KernelChoice,
    PredictorModel,
    assemble_features,
    calibrate_c,
    classify_binary,
    empirical_conditional,
    feature_block,
    fit_weights,
    kernel_weights,
    predict_dp,
    predict_label,
    similarity,
    similarity_many,
)
from .trader import Position, Trade, run_backtest, step

__version__ = "0.1.0"
