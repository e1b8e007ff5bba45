"""Data sources: synthetic Gaussian stream generators with no-drift, abrupt,
and incremental regimes; the built-in two-feature benchmark families; CSV
ingestion with median binarisation; and multi-stream interleaving.
"""

from __future__ import annotations

import csv
import itertools
import math
import statistics
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .core import MAX_ABS_FEATURE, NEG, POS, ConfigurationError, DataError, Example

DRIFT_TYPES = ("no_drift", "abrupt", "incremental")
INTERLEAVE_POLICIES = ("round_robin", "target_paced")


@dataclass(frozen=True)
class GaussianConceptSpec:
    """Class-conditional Gaussians (diagonal covariance) for one concept."""

    mean_neg: tuple[float, ...]
    mean_pos: tuple[float, ...]
    cov_diag: tuple[float, ...]

    def __post_init__(self) -> None:
        d = len(self.mean_neg)
        if len(self.mean_pos) != d or len(self.cov_diag) != d:
            raise ConfigurationError("concept mean/covariance lengths differ")
        if any(v <= 0.0 for v in self.cov_diag):
            raise ConfigurationError("covariance diagonal must be positive")

    @property
    def n_features(self) -> int:
        return len(self.mean_neg)


@dataclass(frozen=True)
class SyntheticStreamSpec:
    """Recipe for one synthetic stream.

    ``class_size`` is the number of examples per class per concept segment.
    Abrupt streams need exactly two concepts; incremental streams walk the
    first concept's class centres towards each other by one unit per
    coordinate every ``increment_period`` examples until they swap.
    """

    drift_type: str
    class_size: int
    concepts: tuple[GaussianConceptSpec, ...]
    increment_period: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.drift_type not in DRIFT_TYPES:
            raise ConfigurationError(f"unknown drift_type {self.drift_type!r}")
        if self.class_size < 1:
            raise ConfigurationError("class_size must be >= 1")
        if not self.concepts:
            raise ConfigurationError("at least one concept is required")
        if self.drift_type == "abrupt" and len(self.concepts) != 2:
            raise ConfigurationError("abrupt streams take exactly 2 concepts")
        if self.drift_type == "incremental":
            if len(self.concepts) != 1:
                raise ConfigurationError(
                    "incremental streams take a single starting concept"
                )
            period = self.increment_period
            if period is None:
                period = 2 * self.class_size
            if period < 1:
                raise ConfigurationError("increment_period must be >= 1")
            object.__setattr__(self, "increment_period", period)
        dims = {c.n_features for c in self.concepts}
        if len(dims) != 1:
            raise ConfigurationError("all concepts must share dimensionality")

    @property
    def n_features(self) -> int:
        return self.concepts[0].n_features


# A checked row's Example is built as its dataclass __init__ would build it,
# without the per-row checks of __post_init__.
_new = object.__new__
_set = object.__setattr__


class _LazyExamples(Sequence):
    """Read-only examples over a drawn feature matrix, checked as a batch.

    The constructor makes, once for the whole batch, the checks that
    ``Example`` makes per row: ``features`` is a float64 matrix with one row
    per label, and ``labels`` holds integers equal to 0 or 1; else it raises
    ValueError. Item ``i`` builds its ``Example`` on first access and returns
    that same object afterwards, so rows nobody reads are never built. A
    slice builds the rows it reads that are not built yet in one pass, and
    returns a tuple. A built example is ``Example(row, label)`` made without
    those checks again: frozen, a read-only float64 view of the shared
    matrix as ``features``, and an ``int`` label.
    """

    __slots__ = ("_features", "_labels", "_built")

    def __init__(self, features: np.ndarray, labels) -> None:
        labels = np.asarray(labels)
        if features.dtype != np.float64 or features.ndim != 2:
            raise ValueError(
                f"features must be a float64 matrix, got {features.dtype} of shape "
                f"{features.shape}"
            )
        if labels.shape != features.shape[:1]:
            raise ValueError(f"{features.shape[0]} rows, but labels of shape {labels.shape}")
        if not np.issubdtype(labels.dtype, np.integer) or np.any((labels != NEG) & (labels != POS)):
            raise ValueError(f"labels must be integers equal to {NEG} or {POS}")
        features.flags.writeable = False
        self._features = features
        self._labels: list[int] = labels.tolist()
        self._built: list[Example | None] = [None] * len(self._labels)

    def __len__(self) -> int:
        return len(self._labels)

    def __getitem__(self, index):
        built = self._built
        if not isinstance(index, slice):
            example = built[index]
            # index + 1 is 0 for the last row, whose slice runs to the end.
            return example if example is not None else self[index : index + 1 or None][0]
        examples = built[index]
        if None in examples:
            rows = range(*index.indices(len(built)))
            for i, row, label in zip(rows, self._features[index], self._labels[index]):
                if built[i] is None:
                    built[i] = example = _new(Example)
                    _set(example, "features", row)
                    _set(example, "label", label)
            examples = built[index]
        return tuple(examples)



@dataclass(frozen=True)
class GeneratedStream:
    examples: Sequence[Example]
    drift_marks: tuple[int, ...]  # index of the first example of each new concept


def _incremental_stages(start: GaussianConceptSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """Mean pairs for each stage of an incremental walk, start to swap.

    Each class centre steps one unit per coordinate towards the other class's
    starting centre, clamped there, until the two have traded places.
    """
    mean_neg = np.asarray(start.mean_neg, dtype=float)
    mean_pos = np.asarray(start.mean_pos, dtype=float)
    delta = mean_pos - mean_neg
    n_steps = int(math.ceil(float(np.max(np.abs(delta))))) if np.any(delta) else 0
    stages = []
    for k in range(n_steps + 1):
        travelled = np.sign(delta) * np.minimum(float(k), np.abs(delta))
        stages.append((mean_neg + travelled, mean_pos - travelled))
    return stages


def generate_synthetic(spec: SyntheticStreamSpec) -> GeneratedStream:
    """Materialise a synthetic stream: strictly alternating NEG/POS labels,
    seeded sampling, and ground-truth drift marks at each concept change.

    The whole stream is drawn with one ``standard_normal((n, d))`` call, which
    consumes the generator exactly as n calls of ``standard_normal(d)`` do.
    """
    if spec.drift_type == "incremental":
        cov = np.asarray(spec.concepts[0].cov_diag, dtype=float)
        segments = [
            (np.stack(means), cov, int(spec.increment_period))
            for means in _incremental_stages(spec.concepts[0])
        ]
    else:
        segments = [
            (
                np.array([concept.mean_neg, concept.mean_pos], dtype=float),
                np.asarray(concept.cov_diag, dtype=float),
                2 * spec.class_size,
            )
            for concept in spec.concepts
        ]
    n = sum(length for _, _, length in segments)
    features = np.random.default_rng(spec.seed).standard_normal((n, spec.n_features))
    labels: list[np.ndarray] = []
    marks: list[int] = []
    start = 0
    for means, cov, length in segments:
        if start > 0:
            marks.append(start)
        segment_labels = np.arange(length) % 2
        rows = features[start : start + length]
        rows[...] = means[segment_labels] + rows * np.sqrt(cov)
        labels.append(segment_labels)
        start += length
    return GeneratedStream(_LazyExamples(features, np.concatenate(labels)), tuple(marks))


# ----------------------------------------------------------------------
# Built-in two-feature Gaussian benchmark families
# ----------------------------------------------------------------------

_TARGET_START = ((2.0, 3.0), (7.0, 8.0))
_TARGET_AFTER_ABRUPT = ((2.0, 9.0), (5.0, 4.0))
_NON_SIMILAR_SOURCE = ((-2.0, -3.0), (-7.0, 2.0))
_SIMILAR_NO_DRIFT_SOURCE = ((2.0, 1.0), (7.0, 8.0))
_INCREMENTAL_SIMILAR_SOURCES = (
    ((2.0, 3.0), (7.0, 8.0)),
    ((3.0, 4.0), (6.0, 7.0)),
    ((4.0, 5.0), (5.0, 6.0)),
    ((5.0, 6.0), (4.0, 5.0)),
    ((6.0, 7.0), (3.0, 4.0)),
    ((7.0, 8.0), (2.0, 3.0)),
)
_COV_NARROW = (1.0, 2.0)
_COV_WIDE = (2.0, 2.0)
SOURCE_CLASS_SIZE = 5000

BENCHMARK_FAMILIES = (
    "no_drift_similar",
    "no_drift_non_similar",
    "abrupt_similar",
    "abrupt_non_similar",
    "incremental_similar",
    "incremental_non_similar",
)


@dataclass(frozen=True)
class SyntheticDataset:
    """A target stream spec plus its source stream specs."""

    target: SyntheticStreamSpec
    sources: tuple[SyntheticStreamSpec, ...] = ()

    @property
    def n_features(self) -> int:
        return self.target.n_features


def _concept(means, cov) -> GaussianConceptSpec:
    return GaussianConceptSpec(mean_neg=means[0], mean_pos=means[1], cov_diag=cov)


def _stationary_source(means, class_size: int = SOURCE_CLASS_SIZE) -> SyntheticStreamSpec:
    return SyntheticStreamSpec(
        drift_type="no_drift",
        class_size=class_size,
        concepts=(_concept(means, _COV_NARROW),),
    )


def benchmark_dataset(family: str, class_size: int) -> SyntheticDataset:
    """The built-in two-feature Gaussian benchmark datasets.

    Six families: {no_drift, abrupt, incremental} x {similar, non_similar}
    source kinds. Targets in the no-drift and non-similar families use the
    wider class covariance; sources are always stationary with 5000 examples
    per class.
    """
    if family not in BENCHMARK_FAMILIES:
        raise ConfigurationError(
            f"unknown benchmark family {family!r}; choose from {BENCHMARK_FAMILIES}"
        )
    similar = not family.endswith("non_similar")
    if family.startswith("no_drift"):
        drift_type = "no_drift"
    elif family.startswith("abrupt"):
        drift_type = "abrupt"
    else:
        drift_type = "incremental"
    target_cov = _COV_NARROW
    if drift_type == "no_drift" or not similar:
        target_cov = _COV_WIDE

    if drift_type == "no_drift":
        target = SyntheticStreamSpec(
            drift_type="no_drift",
            class_size=class_size,
            concepts=(_concept(_TARGET_START, target_cov),),
        )
        source_means = (_SIMILAR_NO_DRIFT_SOURCE,) if similar else (_NON_SIMILAR_SOURCE,)
    elif drift_type == "abrupt":
        target = SyntheticStreamSpec(
            drift_type="abrupt",
            class_size=class_size,
            concepts=(
                _concept(_TARGET_START, target_cov),
                _concept(_TARGET_AFTER_ABRUPT, target_cov),
            ),
        )
        source_means = (_TARGET_AFTER_ABRUPT,) if similar else (_NON_SIMILAR_SOURCE,)
    else:
        target = SyntheticStreamSpec(
            drift_type="incremental",
            class_size=class_size,
            concepts=(_concept(_TARGET_START, target_cov),),
            increment_period=2 * class_size,
        )
        source_means = (
            _INCREMENTAL_SIMILAR_SOURCES if similar else (_NON_SIMILAR_SOURCE,)
        )

    sources = tuple(_stationary_source(means) for means in source_means)
    return SyntheticDataset(target=target, sources=sources)


def reseed_dataset(dataset: SyntheticDataset, seed_seq: np.random.SeedSequence) -> SyntheticDataset:
    """Fresh per-stream seeds derived from one seed sequence."""
    children = seed_seq.spawn(1 + len(dataset.sources))
    new_target = replace(
        dataset.target, seed=int(children[0].generate_state(1)[0])
    )
    new_sources = tuple(
        replace(src, seed=int(child.generate_state(1)[0]))
        for src, child in zip(dataset.sources, children[1:])
    )
    return SyntheticDataset(target=new_target, sources=new_sources)


# ----------------------------------------------------------------------
# CSV ingestion
# ----------------------------------------------------------------------

_FILTER_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<=": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
}


@dataclass(frozen=True)
class RowFilter:
    """Conjunction of simple column comparisons, e.g. ``is_holiday == 1``."""

    conditions: tuple[tuple[str, str, str], ...] = ()

    @classmethod
    def parse(cls, text: str) -> "RowFilter":
        conditions = []
        for clause in text.split("&"):
            clause = clause.strip()
            if not clause:
                continue
            for op in ("==", "!=", "<=", ">=", "<", ">"):
                if op in clause:
                    column, value = clause.split(op, 1)
                    conditions.append((column.strip(), op, value.strip()))
                    break
            else:
                raise ConfigurationError(f"cannot parse filter clause {clause!r}")
        return cls(tuple(conditions))

    def matches(self, row: dict) -> bool:
        for column, op, raw in self.conditions:
            if column not in row:
                raise ConfigurationError(f"filter column {column!r} not in file")
            cell = row[column]
            try:
                left, right = float(cell), float(raw)
            except (TypeError, ValueError):
                left, right = str(cell), raw
            if not _FILTER_OPS[op](left, right):
                return False
        return True


@dataclass(frozen=True)
class CsvStreamSpec:
    """Recipe for building a stream from a CSV file."""

    path: str
    feature_columns: tuple[str, ...]
    target_column: str
    row_filter: RowFilter = field(default_factory=RowFilter)


@dataclass(frozen=True)
class CsvDataset:
    """A target CSV stream plus source CSV streams with as many features."""

    target: CsvStreamSpec
    sources: tuple[CsvStreamSpec, ...] = ()

    def __post_init__(self) -> None:
        for source in self.sources:
            if len(source.feature_columns) != self.n_features:
                raise ConfigurationError(
                    f"{source.path}: {len(source.feature_columns)} features, "
                    f"but the target has {self.n_features}"
                )

    @property
    def n_features(self) -> int:
        return len(self.target.feature_columns)


def _number(spec: CsvStreamSpec, idx: int, row: dict, column: str) -> float:
    """The finite number of size at most ``MAX_ABS_FEATURE`` in ``column`` of
    file row ``idx``, else DataError."""
    cell = row[column]
    try:
        value = float(cell)
        if -MAX_ABS_FEATURE <= value <= MAX_ABS_FEATURE:
            return value
        problem = "out-of-range" if math.isfinite(value) else "non-finite"
    except (TypeError, ValueError):
        problem = "non-numeric"
    role = "target" if column == spec.target_column else "value"
    raise DataError(f"{spec.path}: row {idx}: {problem} {role} {cell!r} in column {column!r}")


def ingest_csv(spec: CsvStreamSpec) -> list[Example]:
    """Read a CSV into examples: features taken raw, label POS when the
    target value exceeds the median of the filtered rows, file order kept."""
    try:
        with open(spec.path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            header = reader.fieldnames or []
            missing = [
                c
                for c in (*spec.feature_columns, spec.target_column)
                if c not in header
            ]
            if missing:
                raise ConfigurationError(
                    f"{spec.path}: missing columns {', '.join(missing)}"
                )
            rows = [
                (idx, row)
                for idx, row in enumerate(reader, start=2)
                if spec.row_filter.matches(row)
            ]
    except OSError as exc:
        raise ConfigurationError(f"cannot read {spec.path}: {exc}") from exc
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{spec.path}: unreadable CSV: {exc}") from exc
    if not rows:
        raise ConfigurationError(f"{spec.path}: no rows match the filter")

    targets = [_number(spec, idx, row, spec.target_column) for idx, row in rows]
    median = statistics.median(targets)
    return [
        Example(
            np.array([_number(spec, idx, row, column) for column in spec.feature_columns]),
            POS if target > median else NEG,
        )
        for (idx, row), target in zip(rows, targets)
    ]


# ----------------------------------------------------------------------
# Interleaving
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class StreamSchedule:
    """A fully ordered arrival sequence over all streams.

    ``drift_marks`` holds (stream_id, global entry index) pairs pointing at
    the first entry of each new concept of that stream.
    """

    entries: tuple[tuple[str, Example], ...]
    drift_marks: tuple[tuple[str, int], ...]
    target_id: str

    def target_drift_indices(self) -> tuple[int, ...]:
        return tuple(i for sid, i in self.drift_marks if sid == self.target_id)


@dataclass(frozen=True)
class StreamData:
    stream_id: str
    examples: Sequence[Example]
    drift_marks: tuple[int, ...] = ()


def _turns(counts: list[int]) -> np.ndarray:
    """The stream of each item when streams take turns: item c of every
    stream that has one, in stream order, then item c + 1. Stream j gives
    ``counts[j]`` items."""
    counts = np.asarray(counts, dtype=np.intp)
    return np.nonzero(np.arange(counts.max(initial=0))[:, None] < counts)[1]


def interleave(
    target: StreamData,
    sources: tuple[StreamData, ...] = (),
    policy: str = "round_robin",
    warmup_fraction: float = 0.1,
) -> StreamSchedule:
    """Merge source and target streams into one arrival order, ending at the
    last target example.

    round_robin: one example from each source, then one from the target,
    cycling; exhausted sources are skipped. target_paced: the leading
    ``warmup_fraction`` of every source (of its full length) arrives first,
    then sources are drip-fed one example after each target example but the
    last. Source examples that would follow the last target example can never
    influence a scored prediction, so they are never read.

    The order is planned first, as the index of the stream of each entry.
    Every stream's examples arrive in their order, so each stream gives a
    prefix: it is read with one slice, and the entries are taken from those
    prefixes in the planned order.
    """
    if policy not in INTERLEAVE_POLICIES:
        raise ConfigurationError(f"unknown interleave policy {policy!r}")
    if not target.examples:
        raise ConfigurationError("target stream is empty")
    if not 0.0 <= warmup_fraction <= 1.0:
        raise ConfigurationError("warmup_fraction must be in [0, 1]")

    streams = (*sources, target)
    n_target = len(target.examples)
    if policy == "round_robin":
        # Turn c brings example c of every stream that has one, the target
        # last, so the n_target turns use at most n_target examples a source.
        plan = _turns([min(len(s.examples), n_target) for s in streams])
    else:
        warm = [math.ceil(warmup_fraction * len(s.examples)) for s in sources]
        # After each target example but the last, the next source with
        # examples left past its warm-up gives one, the sources taking turns;
        # no source gives more than those n_target - 1.
        drip = _turns([min(len(s.examples) - n, n_target - 1) for s, n in zip(sources, warm)])
        drip = drip[: n_target - 1]
        # Target example t follows t target and min(t, len(drip)) drip
        # examples; drip example d follows d + 1 target and d drip examples.
        plan = np.empty(n_target + len(drip), dtype=np.intp)
        t = np.arange(n_target)
        plan[t + np.minimum(t, len(drip))] = len(sources)
        plan[1 : 2 * len(drip) : 2] = drip
        plan = np.concatenate([np.repeat(np.arange(len(sources)), warm), plan])

    # Stream j gives its first used[j] examples, and each entry is the next
    # (stream id, example) pair of its stream.
    used = np.bincount(plan, minlength=len(streams)).tolist()
    prefixes = [zip(itertools.repeat(s.stream_id), s.examples[:n]) for s, n in zip(streams, used)]
    entries = tuple(map(next, map(prefixes.__getitem__, plan.tolist())))
    # A stream's example m is its entry m, counting from 0.
    marks = []
    for j, (s, n) in enumerate(zip(streams, used)):
        kept = sorted(m for m in set(s.drift_marks) if 0 <= m < n)
        if kept:
            marks.extend((i, s.stream_id) for i in np.flatnonzero(plan == j)[kept].tolist())
    marks.sort()
    return StreamSchedule(entries, tuple((sid, i) for i, sid in marks), target.stream_id)


def write_csv(path: str, header: list[str], rows) -> None:
    """Write ``header`` and ``rows`` to ``path`` as CSV; a path that cannot
    be written raises ConfigurationError."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc


def export_schedule_csv(schedule: StreamSchedule, path: str) -> None:
    """Write a schedule as CSV: t, stream_id, f1..fd, label, is_drift_mark."""
    if not schedule.entries:
        raise ConfigurationError("cannot export an empty schedule")
    d = schedule.entries[0][1].n_features
    mark_set = {i for _, i in schedule.drift_marks}
    header = ["t", "stream_id", *[f"f{j + 1}" for j in range(d)], "label", "is_drift_mark"]
    rows = (
        [
            i + 1,
            stream_id,
            *[f"{v:.10g}" for v in example.features],
            example.label,
            1 if i in mark_set else 0,
        ]
        for i, (stream_id, example) in enumerate(schedule.entries)
    )
    write_csv(path, header, rows)
