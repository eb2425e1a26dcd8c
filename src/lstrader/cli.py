"""Command-line front door for the full prediction/backtest pipeline.

The subcommands (each parser's help says what it does), the flags, the
pipeline's three periods and what each command writes are set out once, in
README.md ("CLI"). The parsed command line is the pipeline's only config. A
flag that a staged command shares with the pipeline is declared once, in a
parent parser, and the pipeline runs each stage through the same helper as
its staged command. report is the one command that scores and trades a series.
"""

from __future__ import annotations

import argparse
import math
import os
import platform
import sys

import numpy as np

from . import __version__, evaluator
from .latent_source import LatentSourceSpec, generate_price_series
from .market_data import DEFAULT_INTERVAL, PriceSeries, coarsen, open_text, parse_ticks, write_json
from .pattern_bank import (
    DEFAULT_NUM_CLUSTERS,
    DEFAULT_NUM_SELECTED,
    DEFAULT_WINDOW_LENGTHS,
    PatternBank,
    build_banks,
    check_mining,
)
from .regression import (
    DEFAULT_C_GRID,
    KERNEL_EXP_SIMILARITY,
    MIN_FIT_SAMPLES,
    KernelChoice,
    PredictorModel,
    calibrate_c,
    check_c_grid,
    fit_points,
)

SPLIT_TOLERANCE = 1e-9
AUTO_THRESHOLD_QUANTILES = (0.5, 0.7, 0.8, 0.9, 0.95, 0.99)


def _listed(values: tuple, text: str) -> tuple:
    """values, unless the comma-separated text held none: argparse then names the flag."""
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one value, got {text!r}")
    return values


def _parse_floats(text: str) -> tuple[float, ...]:
    return _listed(tuple(float(tok) for tok in text.split(",") if tok.strip() != ""), text)


def _parse_ints(text: str) -> tuple[int, ...]:
    return _listed(tuple(int(tok) for tok in text.split(",") if tok.strip() != ""), text)


def _parse_seed(text: str) -> int:
    """A --seed: numpy takes non-negative integers only, so argparse names the flag."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _number(rule: str, accept):
    """An argparse type for a float flag: argparse names the flag unless
    accept(value) holds, and text that is not a number fails it as nan."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not accept(value):
            raise argparse.ArgumentTypeError(f"expected {rule}, got {text!r}")
        return value
    return parse


# an --interval of inf passes, and is refused where the bucket times it gives are not finite
_parse_interval = _number("a number > 0", lambda v: v > 0)
_parse_start_price = _number("a finite number > 0", lambda v: math.isfinite(v) and v > 0)
_parse_finite = _number("a finite number", math.isfinite)


def _quantile(ordered: np.ndarray, q: float) -> float:
    """np.quantile(a, q), linear method, bit for bit from ordered = np.sort(a):
    np.quantile's own partition calls np.unique, which imports numpy.ma."""
    index = (len(ordered) - 1) * q
    # at the last value (n = 1 reads it as both ends), gamma is 1 and b is returned
    lo = min(math.floor(index), len(ordered) - 2)
    a, b, gamma = ordered[lo], ordered[lo + 1], index - lo
    return float(b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma)


def _auto_thresholds(dp: np.ndarray) -> tuple[float, ...]:
    """Deterministic threshold grid from the |dp| distribution."""
    magnitude = np.sort(np.abs(dp))
    values = [_quantile(magnitude, q) for q in AUTO_THRESHOLD_QUANTILES]
    grid = sorted({v for v in values if v > 0})
    if not grid:
        peak = float(magnitude[-1])
        grid = [peak / 2 if peak > 0 else 1e-6]
    return tuple(grid)


def _naming(path, run, *args):
    """run(*args), a ValueError it raises prefixed with path: a command's series
    file, run once the flags are checked, so what is left to fail is the file."""
    try:
        return run(*args)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _generate(args, seed):
    """The synthetic series of --spec under the series flags; seed None means the spec's."""
    spec = LatentSourceSpec.load_json(args.spec)
    return generate_price_series(
        spec,
        duration=args.duration,
        seed=spec.seed if seed is None else seed,
        interval=args.interval,
        start_price=args.start_price,
        imbalance_gain=args.imbalance_gain,
    )


def cmd_gen(args) -> int:
    result = _generate(args, args.seed)
    result.series.to_csv(args.out)
    if args.placements:
        try:
            write_json(args.placements, [
                {"start": p.start, "source": p.source, "length": p.length} for p in result.placements
            ])
        except OSError:
            os.remove(args.out)  # a failed gen leaves no series behind
            raise
    print(f"wrote {len(result.series)} buckets to {args.out}")
    return 0


def _ingest(args) -> PriceSeries:
    """The --ticks file coarsened onto the --interval grid."""
    ticks = parse_ticks(args.ticks)
    if len(ticks) == 0:
        raise ValueError(f"{args.ticks}: no ticks after the header")
    return coarsen(ticks, interval=args.interval)


def cmd_ingest(args) -> int:
    series = _ingest(args)
    series.to_csv(args.out)
    print(f"wrote {len(series)} buckets to {args.out}")
    return 0


def _build_banks(args, series, seed, out_dir):
    """One bank per --windows length under the mining flags, each written to
    out_dir as bank_<window>.json; (banks, file names)."""
    banks = build_banks(series, window_lengths=args.windows, k=args.k, m=args.m, seed=seed)
    os.makedirs(out_dir, exist_ok=True)
    names = [f"bank_{bank.window_length}.json" for bank in banks]
    for bank, name in zip(banks, names):
        bank.save_json(os.path.join(out_dir, name))
    return banks, names


def cmd_build_banks(args) -> int:
    check_mining(args.windows, args.k, args.m)
    series = PriceSeries.from_csv(args.series)
    _, names = _naming(args.series, _build_banks, args, series, args.seed, args.out_dir)
    for name in names:
        print(f"wrote {os.path.join(args.out_dir, name)}")
    return 0


def _load_banks_from_dir(bank_dir: str) -> list[tuple[PatternBank, str]]:
    """(bank, path) of each bank_*.json file in bank_dir, shortest window first."""
    names = sorted(n for n in os.listdir(bank_dir) if n.startswith("bank_") and n.endswith(".json"))
    if not names:
        raise FileNotFoundError(f"no bank_*.json files in {bank_dir}")
    paths = [os.path.join(bank_dir, n) for n in names]
    return sorted(((PatternBank.load(p), p) for p in paths), key=lambda bp: bp[0].window_length)


def _fit_model(series, banks, bank_refs, c_grid, out_dir: str):
    """Calibrate c, refit weights and write model.json, which refers to the
    banks' existing files by bank_refs (paths relative to out_dir)."""
    calibration = calibrate_c(c_grid, series, banks)
    os.makedirs(out_dir, exist_ok=True)
    model = PredictorModel(
        banks=tuple(banks),
        kernel=KernelChoice(KERNEL_EXP_SIMILARITY, c=calibration.c),
        weights=calibration.weights,
    )
    model_path = os.path.join(out_dir, "model.json")
    model.save_json(model_path, bank_refs)
    return model, model_path, calibration


def cmd_fit(args) -> int:
    check_c_grid(args.c_grid)
    series = PriceSeries.from_csv(args.series)
    banks, paths = zip(*_load_banks_from_dir(args.banks_dir))
    refs = [os.path.relpath(path, args.out_dir) for path in paths]
    model, model_path, calibration = _naming(args.series, _fit_model, series, banks, refs,
                                             args.c_grid, args.out_dir)
    print(f"calibrated c={calibration.c} (grid MSE: {calibration.errors})")
    print(f"wrote {model_path}")
    return 0


def _evaluate(model, series, args, out_dir, **extra_summary):
    """Score once, sweep --thresholds (by default a grid from |dp|), emit the bundle
    into out_dir (extra_summary joins summary.json); return the peak-profit backtest."""
    ts, dp = model.dp_stream(series)
    thresholds = _auto_thresholds(dp) if args.thresholds is None else args.thresholds
    rows = evaluator.sweep_thresholds(series, (ts, dp), thresholds)
    report = min(rows, key=lambda r: (-r.total_profit, r.threshold))
    extra = {"kernel_c": model.kernel.c, "used_ridge": model.weights.used_ridge, **extra_summary}
    evaluator.emit_report(
        report, rows, model.banks, out_dir, series, args.sharpe_variant, extra_summary=extra
    )
    return report


def cmd_report(args) -> int:
    if args.thresholds is not None:
        evaluator.check_thresholds(args.thresholds)
    series = PriceSeries.from_csv(args.series)
    model = PredictorModel.load_json(args.model)
    _naming(args.series, fit_points, series, model.banks)  # refuses a series too short for the model
    report = _evaluate(model, series, args, args.out_dir)
    print(f"wrote report bundle to {args.out_dir} (best threshold {report.threshold})")
    return 0


def _input_entry(path) -> dict:
    """An input file as the manifest records it: base name and SHA-256 of its bytes."""
    import hashlib  # its OpenSSL costs 3.6 MiB of RSS, which no other command needs

    digest = hashlib.sha256()
    with open_text(path, newline="") as fh:
        for piece in iter(lambda: fh.read(1 << 16), ""):
            digest.update(piece.encode("utf-8"))
    return {"name": os.path.basename(path), "sha256": digest.hexdigest()}


def _manifest(args, calibration) -> dict:
    """The pipeline's config, seed, versions and BLAS library, and what
    calibration decided. Neither --out nor the input's directory is recorded,
    so two runs of one config write the same bundle wherever they run."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = {key: value for key, value in vars(args).items() if key not in ("func", "out")}
    config.update({key: _input_entry(config[key]) for key in ("spec", "ticks") if config[key] is not None})
    return {
        "args": config,
        "seed": args.seed,
        "versions": {"lstrader": __version__, "numpy": np.__version__,
                     "python": platform.python_version()},
        "blas": {"name": blas["name"], "version": blas.get("version")},
        "c_grid_mse": calibration.errors,
        "used_ridge": calibration.weights.used_ridge,
    }


def cmd_pipeline(args) -> int:
    """All stages in order; every setting is a flag of the parsed command line."""
    split, out = args.split, args.out
    if len(split) != 3 or not all(f > 0 for f in split):
        raise ValueError("split needs three positive fractions")
    if not abs(sum(split) - 1.0) <= SPLIT_TOLERANCE:
        raise ValueError(f"split fractions sum to {sum(split)!r}, expected 1")
    check_mining(args.windows, args.k, args.m)
    check_c_grid(args.c_grid)
    if args.thresholds is not None:
        evaluator.check_thresholds(args.thresholds)
    seed_seq = np.random.SeedSequence(args.seed)
    gen_seed, bank_seed = (int(s.generate_state(1)[0]) for s in seed_seq.spawn(2))

    series = _generate(args, gen_seed).series if args.spec is not None else _ingest(args)
    n = len(series)
    n1 = int(split[0] * n)
    n2 = int(split[1] * n)
    bounds = {"train": (0, n1), "fit": (n1, n1 + n2), "eval": (n1 + n2, n)}
    if not (0 < n1 < n1 + n2 < n):
        raise ValueError(f"series of {n} buckets cannot be split into three periods")
    # windows end inside their period: a bank needs one labeled window of the
    # longest length, calibration MIN_FIT_SAMPLES points, evaluation one point
    longest = max(args.windows)
    for name, need in (("train", longest + 1), ("fit", longest + 1 + MIN_FIT_SAMPLES),
                       ("eval", longest + 2)):
        lo, hi = bounds[name]
        if hi - lo < need:
            raise ValueError(f"{name} period has {hi - lo} buckets, need at least {need} "
                             f"for windows of length {longest}")
    os.makedirs(out, exist_ok=True)
    series.to_csv(os.path.join(out, "series.csv"))
    periods = {k: list(v) for k, v in bounds.items()}
    periods.update(n_buckets=n, interval=series.interval)
    write_json(os.path.join(out, "periods.json"), periods)
    print(f"periods: train={bounds['train']} fit={bounds['fit']} eval={bounds['eval']}")

    train, fit_series, eval_series = (series.slice(*bounds[name]) for name in ("train", "fit", "eval"))

    banks, names = _build_banks(args, train, bank_seed, os.path.join(out, "banks"))
    refs = [os.path.join("banks", name) for name in names]
    model, model_path, calibration = _fit_model(fit_series, banks, refs, args.c_grid, out)
    write_json(os.path.join(out, "manifest.json"), _manifest(args, calibration))
    print(f"calibrated c={calibration.c}, weights ridge_fallback={model.weights.used_ridge}")

    report = _evaluate(model, eval_series, args, out, seed=args.seed)
    ratio = evaluator.sharpe(report.round_trip_profits, report.benchmark_move, args.sharpe_variant)
    print(
        f"eval: threshold={report.threshold} profit={report.total_profit} "
        f"trades={report.num_trades} sharpe={ratio}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lstrader",
        description="Latent-source kernel regression trading pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by a staged command and the pipeline, each declared once
    interval = argparse.ArgumentParser(add_help=False)
    interval.add_argument("--interval", type=_parse_interval, default=DEFAULT_INTERVAL)
    synthetic = argparse.ArgumentParser(add_help=False, parents=[interval])
    synthetic.add_argument("--duration", type=float, default=259200.0)
    synthetic.add_argument("--start-price", type=_parse_start_price, default=500.0)
    synthetic.add_argument("--imbalance-gain", type=_parse_finite, default=0.0)
    mining = argparse.ArgumentParser(add_help=False)
    mining.add_argument("--windows", type=_parse_ints, default=DEFAULT_WINDOW_LENGTHS)
    mining.add_argument("--k", type=int, default=DEFAULT_NUM_CLUSTERS)
    mining.add_argument("--m", type=int, default=DEFAULT_NUM_SELECTED)
    calibration = argparse.ArgumentParser(add_help=False)
    calibration.add_argument("--c-grid", type=_parse_floats, default=DEFAULT_C_GRID)
    evaluation = argparse.ArgumentParser(add_help=False)
    evaluation.add_argument("--thresholds", type=_parse_floats, default=None)
    evaluation.add_argument(
        "--sharpe-variant", choices=evaluator.SHARPE_VARIANTS, default=evaluator.SHARPE_SQRT
    )

    gen = sub.add_parser("gen", parents=[synthetic], help="generate a synthetic price series")
    gen.add_argument("--spec", required=True, help="latent source spec JSON")
    gen.add_argument("--out", required=True, help="output PriceSeries CSV")
    gen.add_argument("--seed", type=_parse_seed, default=None, help="defaults to the spec's seed")
    gen.add_argument("--placements", default=None, help="optional placements JSON out")
    gen.set_defaults(func=cmd_gen)

    ingest = sub.add_parser(
        "ingest", parents=[interval], help="coarsen a tick CSV onto the bucket grid"
    )
    ingest.add_argument("--ticks", required=True)
    ingest.add_argument("--out", required=True)
    ingest.set_defaults(func=cmd_ingest)

    banks = sub.add_parser("build-banks", parents=[mining], help="build pattern banks from a series")
    banks.add_argument("--series", required=True)
    banks.add_argument("--out-dir", required=True)
    banks.add_argument("--seed", type=_parse_seed, default=0)
    banks.set_defaults(func=cmd_build_banks)

    fit = sub.add_parser(
        "fit", parents=[calibration], help="calibrate the kernel constant and fit the combiner"
    )
    fit.add_argument("--series", required=True)
    fit.add_argument("--banks-dir", required=True)
    fit.add_argument("--out-dir", required=True)
    fit.set_defaults(func=cmd_fit)

    report = sub.add_parser("report", parents=[evaluation], help="threshold sweep + report bundle")
    report.add_argument("--series", required=True)
    report.add_argument("--model", required=True)
    report.add_argument("--out-dir", required=True)
    report.set_defaults(func=cmd_report)

    pipeline = sub.add_parser(
        "pipeline", parents=[synthetic, mining, calibration, evaluation], help="all stages in order"
    )
    source = pipeline.add_mutually_exclusive_group(required=True)
    source.add_argument("--spec", default=None, help="latent source spec JSON")
    source.add_argument("--ticks", default=None, help="tick CSV input")
    pipeline.add_argument("--out", required=True)
    pipeline.add_argument("--split", type=_parse_floats, default=(1 / 3, 1 / 3, 1 / 3))
    pipeline.add_argument("--seed", type=_parse_seed, default=0)
    pipeline.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints usage itself
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        path = exc.filename if exc.filename else exc
        print(f"error: missing input file: {path}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
