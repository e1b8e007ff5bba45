"""Command-line front end: dataset generation/export, experiment execution,
and hyperparameter grid search, all driven by INI config files.

Exit codes: 0 success, 2 usage or configuration error, 3 data error,
4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import configparser
import inspect
import os
import sys

from .core import ConfigurationError, DataError
from .drift import DETECTORS
from .evaluation import (
    DEFAULT_GRIDS,
    ExperimentSpec,
    build_schedule,
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

# [experiment] keys named differently from the ExperimentSpec field they set.
_EXPERIMENT_KEYS = {"seed_base": "seed", "interleave_policy": "interleave"}


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
            "--parallelism",
            type=int,
            default=1,
            help="worker processes for runs; at most the number of runs and of CPUs",
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
    # No section is special: a [DEFAULT] section would lend its keys to every
    # other section and hide them from the unknown-key check. Values are
    # literal: a '%' in a path, filter or value is not interpolation syntax.
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from exc
    for item in overrides:
        key_path, equals, value = item.partition("=")
        section, _, key = key_path.partition(".")
        section, key = section.strip(), key.strip()
        if not (equals and section and key):
            raise ConfigurationError(f"--set expects SECTION.KEY=VALUE, got {item!r}")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value.strip())
    return parser


class _Reader:
    """Typed reads from a parsed config that remember what they read, so that
    a section or key nothing reads can be rejected by name."""

    def __init__(self, parser: configparser.ConfigParser) -> None:
        self.parser = parser
        self.read: set[tuple[str, str | None]] = set()

    def get(self, section, key, kind=str, default=None, required=False):
        self.read.add((section, None))
        if not self.parser.has_option(section, key):
            if required:
                raise ConfigurationError(f"missing config key [{section}] {key}")
            return default
        self.read.add((section, key))
        raw = self.parser.get(section, key)
        try:
            if kind is bool:
                return self.parser.getboolean(section, key)
            return kind(raw)
        except ValueError as exc:
            raise ConfigurationError(f"bad value for [{section}] {key}: {raw!r}") from exc

    def fields(self, section: str, owner, keys: dict | None = None) -> dict:
        """The values ``section`` gives for the parameters of ``owner`` that
        have a scalar default, each read as the type of that default; ``keys``
        maps a parameter to its config key where the two names differ."""
        values = {}
        for name, parameter in inspect.signature(owner).parameters.items():
            if isinstance(parameter.default, (int, float, str)):
                key = (keys or {}).get(name, name)
                value = self.get(section, key, type(parameter.default))
                if value is not None:
                    values[name] = value
        return values

    def reject_unread(self) -> None:
        for section in self.parser.sections():
            if (section, None) not in self.read:
                raise ConfigurationError(f"unknown config section [{section}]")
            for key in self.parser.options(section):
                if (section, key) not in self.read:
                    raise ConfigurationError(f"unknown config key [{section}] {key}")


def _csv_stream(reader: _Reader, section: str) -> CsvStreamSpec:
    path = reader.get(section, "path", required=True)
    features = reader.get(section, "features", required=True)
    target_column = reader.get(section, "target_column", required=True)
    filter_text = reader.get(section, "filter", default="")
    return CsvStreamSpec(
        path=path,
        feature_columns=tuple(c.strip() for c in features.split(",") if c.strip()),
        target_column=target_column,
        row_filter=RowFilter.parse(filter_text) if filter_text else RowFilter(),
    )


def _build_dataset(reader: _Reader):
    kind = reader.get("dataset", "kind", required=True)
    if kind == "synthetic":
        family = reader.get("dataset", "family", required=True)
        class_size = reader.get("dataset", "class_size", int, required=True)
        dataset = benchmark_dataset(family, class_size)
        if not reader.get("dataset", "include_sources", bool, default=True):
            dataset = SyntheticDataset(target=dataset.target, sources=())
        return dataset
    if kind == "csv":
        if not reader.parser.has_section("target"):
            raise ConfigurationError("csv datasets need a [target] section")
        target = _csv_stream(reader, "target")
        sources = tuple(
            _csv_stream(reader, section)
            for section in reader.parser.sections()
            if section.startswith("source")
        )
        return CsvDataset(target=target, sources=sources)
    raise ConfigurationError(f"unknown dataset kind {kind!r}")


# The most values a start:step:end grid axis may span; a longer range is a
# usage error, found before any of its values is built.
MAX_GRID_AXIS_VALUES = 10_000


def _parse_grid_range(text: str) -> list[float]:
    """Grid axis syntax: ``start:step:end`` (inclusive, at most
    ``MAX_GRID_AXIS_VALUES`` values) or a comma list. Raises only
    ConfigurationError."""
    text = text.strip()
    try:
        if ":" not in text:
            return [float(p) for p in text.split(",") if p.strip()]
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid range must be start:step:end, got {text!r}")
        start, step, end = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("grid step must be positive")
        count = int(round((end - start) / step))
    except (ValueError, OverflowError) as exc:
        raise ConfigurationError(str(exc)) from exc
    if count >= MAX_GRID_AXIS_VALUES:
        raise ConfigurationError(
            f"grid range spans {count + 1} values; at most {MAX_GRID_AXIS_VALUES} are allowed"
        )
    values = [round(start + i * step, 12) for i in range(count + 1)]
    return [v for v in values if v <= end + 1e-12]


def _build_grids(reader: _Reader) -> dict:
    grids = {}
    for key in DEFAULT_GRIDS:
        text = reader.get("grid", key)
        if text is not None:
            try:
                values = _parse_grid_range(text)
                if key == "ensemble_size":
                    if any(v != int(v) for v in values):
                        raise ValueError("ensemble sizes must be whole numbers")
                    values = [int(v) for v in values]
            except (ValueError, OverflowError, ConfigurationError) as exc:
                raise ConfigurationError(f"bad [grid] {key}: {exc}") from exc
            grids[key] = values
    return grids


def _read_config(
    parser: configparser.ConfigParser, seed_override: int | None = None
) -> tuple[ExperimentSpec, dict]:
    """The experiment and the grid axes that a parsed config describes. Each
    [experiment] and [model] key is named, typed and defaulted by the field
    or detector parameter it sets; a section or key that nothing here reads
    raises ConfigurationError. An empty grid means the default grid."""
    reader = _Reader(parser)
    version = reader.get("experiment", "config_version", int, default=CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigurationError(f"unsupported config_version {version}")
    dataset = _build_dataset(reader)
    detector_params = {}
    for detector in DETECTORS.values():
        detector_params.update(reader.fields("model", detector))
    config = MarlineConfig(
        n_features=dataset.n_features,
        tree=HoeffdingTreeParams(**reader.fields("model", HoeffdingTreeParams)),
        detector_params=detector_params,
        **reader.fields("model", MarlineConfig),
    )
    experiment = reader.fields("experiment", ExperimentSpec, _EXPERIMENT_KEYS)
    if seed_override is not None:
        experiment["seed_base"] = seed_override
    spec = ExperimentSpec(
        approach=reader.get("experiment", "approach", default="marline_with_source"),
        config=config,
        dataset=dataset,
        **experiment,
    )
    grids = _build_grids(reader)
    reader.reject_unread()
    return spec, grids


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {path}: {exc}") from exc


def _cmd_generate(args: argparse.Namespace, spec: ExperimentSpec, grids: dict) -> int:
    schedule = build_schedule(spec, run_index=0)
    out_path = os.path.join(args.out, "dataset.csv")
    export_schedule_csv(schedule, out_path)
    print(f"wrote {len(schedule.entries)} rows to {out_path}")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace, spec: ExperimentSpec, grids: dict) -> int:
    result = run_experiment(spec, parallelism=args.parallelism)
    write_results_csv(result, os.path.join(args.out, "results.csv"))
    write_summary_csv(result, os.path.join(args.out, "summary.csv"))
    write_segments_csv(result, os.path.join(args.out, "segments.csv"))
    print(
        f"{spec.approach}: {spec.runs} runs, "
        f"objective={result.objective:.6f}, results in {args.out}"
    )
    return EXIT_OK


def _cmd_grid(args: argparse.Namespace, spec: ExperimentSpec, grids: dict) -> int:
    result = grid_search(spec, grids, parallelism=args.parallelism)
    write_grid_csv(result, os.path.join(args.out, "grid_results.csv"))
    best = result.best_spec.config
    point = " ".join(f"{name}={getattr(best, name)}" for name in DEFAULT_GRIDS)
    print(f"best: {point} objective={result.best_objective:.6f}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    handlers = {"generate": _cmd_generate, "run": _cmd_run, "grid": _cmd_grid}
    try:
        if args.parallelism < 1:
            raise ConfigurationError("--parallelism must be >= 1")
        spec, grids = _read_config(_load_config(args.config, args.overrides), args.seed)
        _make_out_dir(args.out)
        return handlers[args.command](args, spec, grids)
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


if __name__ == "__main__":
    entrypoint()
