"""Command-line front end: dataset generation/export, experiment execution,
and hyperparameter grid search, all driven by INI config files.

Exit codes: 0 success, 2 usage or configuration error, 3 data error,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

from .core import ConfigurationError, DataError
from .evaluation import (
    ExperimentSpec,
    build_schedule,
    default_grids,
    grid_search,
    run_experiment,
    write_grid_csv,
    write_results_csv,
    write_segments_csv,
    write_summary_csv,
)
from .learners import HoeffdingTreeParams
from .model import MarlineConfig
from .streams import (
    BENCHMARK_FAMILIES,
    CsvDataset,
    CsvStreamSpec,
    RowFilter,
    SyntheticDataset,
    benchmark_dataset,
    export_schedule_csv,
)

CONFIG_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

_TREE_KEYS = ("grace_period", "split_confidence", "tie_threshold", "leaf_prediction")
_DETECTOR_KEYS = (
    "drift_confidence",
    "warning_confidence",
    "min_observations",
    "warning_level",
    "drift_level",
)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="marline",
        description="Streaming multi-source transfer learning experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("generate", "materialise a configured dataset to CSV"),
        ("run", "execute an experiment and write result CSVs"),
        ("grid", "run a hyperparameter grid search"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="experiment config file")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override base seed")
        cmd.add_argument(
            "--parallelism", type=int, default=1, help="worker count for runs"
        )
        cmd.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override a config value (repeatable)",
        )
    return parser.parse_args(argv)


def _load_config(path: str, overrides: list[str]) -> configparser.ConfigParser:
    if not os.path.isfile(path):
        raise ConfigurationError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from exc
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigurationError(f"--set expects SECTION.KEY=VALUE, got {item!r}")
        key_path, value = item.split("=", 1)
        section, key = key_path.split(".", 1)
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section.strip(), key.strip(), value.strip())
    version = parser.getint("experiment", "config_version", fallback=CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigurationError(f"unsupported config_version {version}")
    return parser


def _get(parser, section, key, kind=str, default=None, required=False):
    if not parser.has_option(section, key):
        if required:
            raise ConfigurationError(f"missing config key [{section}] {key}")
        return default
    raw = parser.get(section, key)
    try:
        if kind is bool:
            return parser.getboolean(section, key)
        return kind(raw)
    except ValueError as exc:
        raise ConfigurationError(f"bad value for [{section}] {key}: {raw!r}") from exc


def _csv_stream(parser: configparser.ConfigParser, section: str) -> CsvStreamSpec:
    path = _get(parser, section, "path", required=True)
    features = _get(parser, section, "features", required=True)
    target_column = _get(parser, section, "target_column", required=True)
    filter_text = _get(parser, section, "filter", default="")
    return CsvStreamSpec(
        path=path,
        feature_columns=tuple(c.strip() for c in features.split(",") if c.strip()),
        target_column=target_column,
        row_filter=RowFilter.parse(filter_text) if filter_text else RowFilter(),
    )


def _build_dataset(parser: configparser.ConfigParser):
    kind = _get(parser, "dataset", "kind", required=True)
    if kind == "synthetic":
        family = _get(parser, "dataset", "family", required=True)
        if family not in BENCHMARK_FAMILIES:
            raise ConfigurationError(
                f"unknown dataset family {family!r}; choose from {BENCHMARK_FAMILIES}"
            )
        class_size = _get(parser, "dataset", "class_size", int, required=True)
        dataset = benchmark_dataset(family, class_size)
        if not _get(parser, "dataset", "include_sources", bool, default=True):
            dataset = SyntheticDataset(target=dataset.target, sources=())
        return dataset
    if kind == "csv":
        if not parser.has_section("target"):
            raise ConfigurationError("csv datasets need a [target] section")
        target = _csv_stream(parser, "target")
        sources = tuple(
            _csv_stream(parser, section)
            for section in parser.sections()
            if section.startswith("source")
        )
        return CsvDataset(target=target, sources=sources)
    raise ConfigurationError(f"unknown dataset kind {kind!r}")


def _n_features(dataset) -> int:
    if isinstance(dataset, SyntheticDataset):
        return dataset.target.n_features
    return len(dataset.target.feature_columns)


def _build_model_config(parser: configparser.ConfigParser, n_features: int) -> MarlineConfig:
    tree_kwargs = {}
    for key in _TREE_KEYS:
        if parser.has_option("model", key):
            kind = int if key == "grace_period" else str if key == "leaf_prediction" else float
            tree_kwargs[key] = _get(parser, "model", key, kind)
    detector_params = {}
    for key in _DETECTOR_KEYS:
        if parser.has_option("model", key):
            kind = int if key == "min_observations" else float
            detector_params[key] = _get(parser, "model", key, kind)
    return MarlineConfig(
        n_features=n_features,
        ensemble_size=_get(parser, "model", "ensemble_size", int, default=20),
        base_ensemble=_get(parser, "model", "base_ensemble", default="bagging"),
        detector=_get(parser, "model", "detector", default="hddm_a"),
        forgetting_factor=_get(parser, "model", "forgetting_factor", float, default=0.9),
        performance_index=_get(parser, "model", "performance_index", float, default=0.4),
        tree=HoeffdingTreeParams(**tree_kwargs),
        detector_params=detector_params,
    )


def build_experiment_spec(
    parser: configparser.ConfigParser, seed_override: int | None = None
) -> ExperimentSpec:
    dataset = _build_dataset(parser)
    config = _build_model_config(parser, _n_features(dataset))
    seed = seed_override
    if seed is None:
        seed = _get(parser, "experiment", "seed", int, default=0)
    return ExperimentSpec(
        approach=_get(
            parser, "experiment", "approach", default="marline_with_source"
        ),
        config=config,
        dataset=dataset,
        runs=_get(parser, "experiment", "runs", int, default=30),
        seed_base=seed,
        evaluation=_get(
            parser, "experiment", "evaluation", default="prequential_reset"
        ),
        window_fraction=_get(
            parser, "experiment", "window_fraction", float, default=0.1
        ),
        interleave_policy=_get(
            parser, "experiment", "interleave", default="round_robin"
        ),
        warmup_fraction=_get(
            parser, "experiment", "warmup_fraction", float, default=0.1
        ),
    )


def _parse_grid_range(text: str) -> list[float]:
    """Grid axis syntax: ``start:step:end`` (inclusive) or a comma list."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigurationError(f"grid range must be start:step:end, got {text!r}")
        start, step, end = (float(p) for p in parts)
        if step <= 0:
            raise ConfigurationError("grid step must be positive")
        count = int(round((end - start) / step))
        values = [round(start + i * step, 12) for i in range(count + 1)]
        return [v for v in values if v <= end + 1e-12]
    return [float(p) for p in text.split(",") if p.strip()]


def _build_grids(parser: configparser.ConfigParser) -> dict:
    if not parser.has_section("grid"):
        return default_grids()
    grids = {}
    for key in ("ensemble_size", "forgetting_factor", "performance_index"):
        if parser.has_option("grid", key):
            try:
                values = _parse_grid_range(parser.get("grid", key))
                if key == "ensemble_size":
                    if any(v != int(v) for v in values):
                        raise ValueError("ensemble sizes must be whole numbers")
                    values = [int(v) for v in values]
            except (ValueError, OverflowError) as exc:
                raise ConfigurationError(f"bad [grid] {key}: {exc}") from exc
            grids[key] = values
    return grids or default_grids()


def _cmd_generate(args: argparse.Namespace) -> int:
    parser = _load_config(args.config, args.overrides)
    spec = build_experiment_spec(parser, args.seed)
    schedule = build_schedule(spec, run_index=0)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "dataset.csv")
    export_schedule_csv(schedule, out_path)
    print(f"wrote {len(schedule.entries)} rows to {out_path}")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    parser = _load_config(args.config, args.overrides)
    spec = build_experiment_spec(parser, args.seed)
    result = run_experiment(spec, parallelism=args.parallelism)
    os.makedirs(args.out, exist_ok=True)
    write_results_csv(result, os.path.join(args.out, "results.csv"))
    write_summary_csv(result, os.path.join(args.out, "summary.csv"))
    write_segments_csv(result, os.path.join(args.out, "segments.csv"))
    print(
        f"{spec.approach}: {spec.runs} runs, "
        f"objective={result.objective:.6f}, results in {args.out}"
    )
    return EXIT_OK


def _cmd_grid(args: argparse.Namespace) -> int:
    parser = _load_config(args.config, args.overrides)
    spec = build_experiment_spec(parser, args.seed)
    grids = _build_grids(parser)
    result = grid_search(spec, grids, parallelism=args.parallelism)
    os.makedirs(args.out, exist_ok=True)
    write_grid_csv(result, os.path.join(args.out, "grid_results.csv"))
    best = result.best_spec.config
    print(
        f"best: ensemble_size={best.ensemble_size} "
        f"forgetting_factor={best.forgetting_factor} "
        f"performance_index={best.performance_index} "
        f"objective={result.best_objective:.6f}"
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    handlers = {"generate": _cmd_generate, "run": _cmd_run, "grid": _cmd_grid}
    try:
        return handlers[args.command](args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    raise SystemExit(main())
