"""Tests for synthetic stream generation, CSV ingestion, and interleaving."""

from __future__ import annotations

import math
import os
import tempfile
from collections.abc import Sequence
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marline.core import MAX_ABS_FEATURE, NEG, POS, ConfigurationError, DataError, Example
from marline.streams import (
    BENCHMARK_FAMILIES,
    INTERLEAVE_POLICIES,
    CsvStreamSpec,
    GaussianConceptSpec,
    RowFilter,
    StreamData,
    StreamSchedule,
    SyntheticStreamSpec,
    _incremental_stages,
    _LazyExamples,
    benchmark_dataset,
    export_schedule_csv,
    generate_synthetic,
    ingest_csv,
    interleave,
)


def class_mean(examples, label):
    return np.mean([e.features for e in examples if e.label == label], axis=0)


def class_var(examples, label):
    return np.var([e.features for e in examples if e.label == label], axis=0)


# ----------------------------------------------------------------------
# Synthetic generation
# ----------------------------------------------------------------------


def test_no_drift_target_matches_configured_centres():
    dataset = benchmark_dataset("no_drift_similar", 5000)
    generated = generate_synthetic(dataset.target)
    assert len(generated.examples) == 10_000
    assert generated.drift_marks == ()
    assert class_mean(generated.examples, NEG) == pytest.approx([2.0, 3.0], abs=0.1)
    assert class_mean(generated.examples, POS) == pytest.approx([7.0, 8.0], abs=0.1)


def test_non_similar_source_matches_configured_centres():
    dataset = benchmark_dataset("no_drift_non_similar", 50)
    source = generate_synthetic(dataset.sources[0])
    assert len(source.examples) == 10_000  # sources always 5000 per class
    assert class_mean(source.examples, NEG) == pytest.approx([-2.0, -3.0], abs=0.1)
    assert class_mean(source.examples, POS) == pytest.approx([-7.0, 2.0], abs=0.1)


def test_abrupt_stream_switches_concept_once():
    dataset = benchmark_dataset("abrupt_similar", 50)
    generated = generate_synthetic(dataset.target)
    assert len(generated.examples) == 200  # 2 concepts x 2 classes x 50
    assert generated.drift_marks == (100,)


def test_incremental_marks_every_period_until_swap():
    # Starting centres (2,3) and (7,8) are 5 unit steps apart per coordinate,
    # so the walk has 5 increments and 6 stages of one period each.
    dataset = benchmark_dataset("incremental_similar", 50)
    generated = generate_synthetic(dataset.target)
    assert generated.drift_marks == (100, 200, 300, 400, 500)
    assert len(generated.examples) == 600
    final = generated.examples[-100:]
    assert class_mean(final, NEG) == pytest.approx([7.0, 8.0], abs=0.75)
    assert class_mean(final, POS) == pytest.approx([2.0, 3.0], abs=0.75)


def test_incremental_stages_visit_the_similar_source_centres():
    dataset = benchmark_dataset("incremental_similar", 500)
    generated = generate_synthetic(dataset.target)
    # Stage 3 (examples 3000:4000) sits at centres (5,6)/(4,5).
    stage = generated.examples[3000:4000]
    assert class_mean(stage, NEG) == pytest.approx([5.0, 6.0], abs=0.25)
    assert class_mean(stage, POS) == pytest.approx([4.0, 5.0], abs=0.25)


def test_labels_strictly_alternate_and_balance():
    for family in BENCHMARK_FAMILIES:
        generated = generate_synthetic(benchmark_dataset(family, 20).target)
        labels = [e.label for e in generated.examples]
        assert labels[: len(labels)] == [t % 2 for t in range(len(labels))]
        boundaries = [0, *generated.drift_marks, len(labels)]
        for lo, hi in zip(boundaries, boundaries[1:]):
            segment = labels[lo:hi]
            assert segment.count(NEG) == segment.count(POS)


def test_identical_seed_gives_byte_identical_streams():
    spec = benchmark_dataset("abrupt_non_similar", 100).target
    a = generate_synthetic(spec)
    b = generate_synthetic(spec)
    assert len(a.examples) == len(b.examples)
    for ea, eb in zip(a.examples, b.examples):
        assert ea.label == eb.label
        assert np.array_equal(ea.features, eb.features)


def test_different_seeds_give_different_samples():
    spec = benchmark_dataset("no_drift_similar", 50).target
    a = generate_synthetic(replace(spec, seed=1))
    b = generate_synthetic(replace(spec, seed=2))
    assert not np.array_equal(a.examples[0].features, b.examples[0].features)


def test_empirical_covariance_matches_spec_diagonal():
    dataset = benchmark_dataset("abrupt_similar", 5000)
    generated = generate_synthetic(dataset.target)
    first_concept = generated.examples[:10_000]
    for label in (NEG, POS):
        var = class_var(first_concept, label)
        assert var == pytest.approx([1.0, 2.0], rel=0.1)
    wide = generate_synthetic(benchmark_dataset("no_drift_similar", 5000).target)
    assert class_var(wide.examples, NEG) == pytest.approx([2.0, 2.0], rel=0.1)


def reference_stream(spec):
    """The per-example generator: one ``standard_normal(d)`` per example."""
    rng = np.random.default_rng(spec.seed)
    if spec.drift_type == "incremental":
        cov = np.asarray(spec.concepts[0].cov_diag, dtype=float)
        segments = [
            (means, cov, spec.increment_period)
            for means in _incremental_stages(spec.concepts[0])
        ]
    else:
        segments = [
            (
                (np.asarray(c.mean_neg, dtype=float), np.asarray(c.mean_pos, dtype=float)),
                np.asarray(c.cov_diag, dtype=float),
                2 * spec.class_size,
            )
            for c in spec.concepts
        ]
    features, labels, marks = [], [], []
    for means, cov, length in segments:
        if features:
            marks.append(len(features))
        for t in range(length):
            label = t % 2
            features.append(means[label] + rng.standard_normal(cov.shape[0]) * np.sqrt(cov))
            labels.append(label)
    return np.array(features), labels, tuple(marks)


@pytest.mark.parametrize("family", BENCHMARK_FAMILIES)
def test_vectorised_generator_equals_the_per_example_loop(family):
    for class_size in (1, 7):
        dataset = benchmark_dataset(family, class_size)
        specs = [dataset.target, *(replace(s, class_size=class_size) for s in dataset.sources)]
        if dataset.target.drift_type == "incremental":
            specs.append(replace(dataset.target, increment_period=2 * class_size + 1))
        for seed in (0, 1, 12345):
            for spec in specs:
                spec = replace(spec, seed=seed)
                features, labels, marks = reference_stream(spec)
                generated = generate_synthetic(spec)
                assert generated.drift_marks == marks
                assert np.array_equal(
                    np.array([e.features for e in generated.examples]), features
                )
                assert [e.label for e in generated.examples] == labels


def test_generated_examples_are_built_on_access_and_read_only():
    generated = generate_synthetic(benchmark_dataset("abrupt_similar", 5).target)
    examples = generated.examples
    assert len(examples) == 20
    first = examples[3]
    assert examples[3] is first
    assert examples[-17] is first
    assert examples[2:4] == (examples[2], first)
    assert type(first.label) is int
    with pytest.raises(ValueError):
        first.features[0] = 0.0
    with pytest.raises(IndexError):
        examples[20]


@pytest.mark.parametrize("read", ["index", "slice", "slice after index"])
def test_a_generated_example_is_the_example_of_its_row(read):
    features = np.random.default_rng(4).standard_normal((9, 3))
    labels = [0, 1, 1, 0, 0, 1, 0, 1, 1]
    examples = _LazyExamples(features, np.array(labels))
    if read == "index":
        built = [examples[i] for i in range(9)]
    elif read == "slice":
        built = list(examples[::-1])[::-1]
    else:
        some = examples[4], examples[-2]
        built = list(examples[:])
        assert built[4] is some[0] and built[7] is some[1]
    assert examples[:] == tuple(built)
    assert [examples[i] for i in range(9)] == built
    for i, example in enumerate(built):
        reference = Example(features[i], labels[i])
        assert type(example) is Example
        assert vars(example).keys() == vars(reference).keys()
        assert example.features.tobytes() == reference.features.tobytes()
        assert example.features.dtype == reference.features.dtype == np.float64
        assert example.features.shape == reference.features.shape == (3,)
        assert not example.features.flags.writeable
        assert not reference.features.flags.writeable
        assert type(example.label) is type(reference.label) is int
        assert example.label == reference.label
        with pytest.raises(FrozenInstanceError):
            example.label = 1 - example.label
        with pytest.raises(FrozenInstanceError):
            example.features = reference.features


@pytest.mark.parametrize(
    "features, labels",
    [
        (np.zeros((2, 2)), [0, 1.0]),
        (np.zeros((2, 2)), [0, 2]),
        (np.zeros((2, 2), dtype=np.float32), [0, 1]),
        (np.zeros(2), [0, 1]),
        (np.zeros((3, 2)), [0, 1]),
    ],
    ids=["float label", "label 2", "float32 matrix", "1-D matrix", "a row without label"],
)
def test_a_batch_that_an_example_would_refuse_is_refused_whole(features, labels):
    # The checks are made before any row is built or the matrix is locked.
    with pytest.raises(ValueError):
        _LazyExamples(features, labels)
    assert features.flags.writeable


@pytest.mark.parametrize("label", [0, 1, True, False, np.int64(1), np.int8(0)])
def test_examples_accept_integer_labels(label):
    assert Example([1.0, 2.0], label).label == label


@pytest.mark.parametrize("label", [1.0, 0.0, np.float64(0.0), 0.5, 2, -1, "1", None])
def test_examples_refuse_labels_that_are_not_0_or_1_integers(label):
    with pytest.raises(ValueError, match="label must be"):
        Example([1.0, 2.0], label)


def test_spec_validation_errors():
    concept = GaussianConceptSpec((0.0, 0.0), (1.0, 1.0), (1.0, 1.0))
    with pytest.raises(ConfigurationError):
        SyntheticStreamSpec("abrupt", 10, (concept,))
    with pytest.raises(ConfigurationError):
        SyntheticStreamSpec("no_drift", 0, (concept,))
    with pytest.raises(ConfigurationError):
        GaussianConceptSpec((0.0,), (1.0,), (0.0,))
    with pytest.raises(ConfigurationError):
        benchmark_dataset("gradual_similar", 10)


# ----------------------------------------------------------------------
# CSV ingestion
# ----------------------------------------------------------------------


def write_csv(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_median_rule_labels(tmp_path):
    path = write_csv(
        tmp_path / "demand.csv",
        ["temp", "count"],
        [[10, 1], [11, 2], [12, 3], [13, 4], [14, 5]],
    )
    spec = CsvStreamSpec(path, ("temp",), "count")
    examples = ingest_csv(spec)
    # median 3; strictly-greater values are POS
    assert [e.label for e in examples] == [NEG, NEG, NEG, POS, POS]


def test_hand_written_file_round_trips_exactly(tmp_path):
    path = write_csv(
        tmp_path / "four.csv",
        ["a", "b", "cnt"],
        [[1.5, -2.0, 10], [0.25, 3.5, 40], [7.0, 0.0, 20], [-1.0, 1.0, 30]],
    )
    examples = ingest_csv(CsvStreamSpec(path, ("a", "b"), "cnt"))
    assert len(examples) == 4
    assert np.array_equal(examples[0].features, [1.5, -2.0])
    assert np.array_equal(examples[1].features, [0.25, 3.5])
    # median of {10, 40, 20, 30} is 25
    assert [e.label for e in examples] == [NEG, POS, NEG, POS]


def test_features_are_taken_raw_without_normalisation(tmp_path):
    # Extremes of the bike-sharing input space must pass through unchanged.
    path = write_csv(
        tmp_path / "ranges.csv",
        ["at", "cnt"],
        [[-1.5, 0], [34.0, 7860], [10.0, 100]],
    )
    examples = ingest_csv(CsvStreamSpec(path, ("at",), "cnt"))
    assert [e.features[0] for e in examples] == [-1.5, 34.0, 10.0]


def test_missing_column_is_a_configuration_error(tmp_path):
    path = write_csv(tmp_path / "cols.csv", ["a", "cnt"], [[1, 2]])
    with pytest.raises(ConfigurationError, match="missing columns"):
        ingest_csv(CsvStreamSpec(path, ("a", "b"), "cnt"))
    with pytest.raises(ConfigurationError):
        ingest_csv(CsvStreamSpec(path, ("a",), "total"))


def test_non_numeric_cell_reports_row_number(tmp_path):
    path = write_csv(
        tmp_path / "badcell.csv", ["a", "cnt"], [[1, 2], ["oops", 3], [2, 4]]
    )
    with pytest.raises(DataError, match="row 3"):
        ingest_csv(CsvStreamSpec(path, ("a",), "cnt"))
    path2 = write_csv(tmp_path / "badtgt.csv", ["a", "cnt"], [[1, 2], [2, "x"]])
    with pytest.raises(DataError, match="row 3"):
        ingest_csv(CsvStreamSpec(path2, ("a",), "cnt"))


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_target_reports_row_number(tmp_path, bad):
    path = write_csv(
        tmp_path / "nantgt.csv", ["a", "cnt"], [[1, 2], [2, 5], [3, bad], [4, 1]]
    )
    with pytest.raises(DataError, match="row 4: non-finite target"):
        ingest_csv(CsvStreamSpec(path, ("a",), "cnt"))


def test_empty_filter_result_is_a_configuration_error(tmp_path):
    path = write_csv(tmp_path / "filtered.csv", ["a", "flag", "cnt"], [[1, 0, 2]])
    spec = CsvStreamSpec(
        path, ("a",), "cnt", row_filter=RowFilter.parse("flag == 1")
    )
    with pytest.raises(ConfigurationError, match="no rows match"):
        ingest_csv(spec)


def test_row_filter_selects_subsets(tmp_path):
    path = write_csv(
        tmp_path / "days.csv",
        ["a", "is_weekend", "cnt"],
        [[1, 1, 5], [2, 0, 6], [3, 1, 7], [4, 0, 8]],
    )
    examples = ingest_csv(
        CsvStreamSpec(path, ("a",), "cnt", row_filter=RowFilter.parse("is_weekend == 1"))
    )
    assert [e.features[0] for e in examples] == [1.0, 3.0]
    # median of {5, 7} is 6: labels NEG, POS
    assert [e.label for e in examples] == [NEG, POS]


_FILTER_NAMES = st.text(alphabet="ab_ =<>!&.1", max_size=4)
_FILTER_CLAUSES = st.builds(
    "{}{}{}".format,
    _FILTER_NAMES,
    st.sampled_from(["==", "!=", "<=", ">=", "<", ">", "=", "=<", "!", ""]),
    st.one_of(st.text(max_size=6), st.floats().map(repr), st.integers().map(str)),
)
_FILTER_CELLS = st.one_of(
    st.none(), st.text(max_size=6), st.floats().map(repr), st.integers().map(str)
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.text(max_size=20), st.lists(_FILTER_CLAUSES, max_size=4).map(" & ".join)),
    st.data(),
)
def test_row_filters_raise_only_configuration_errors(text, data):
    # A filter comes from the config and its cells from a CSV row, where
    # csv.DictReader gives None for a missing cell and a list under the key
    # None for extra ones. ConfigurationError exits 2; anything else would
    # exit 4 as an internal error.
    try:
        row_filter = RowFilter.parse(text)
    except ConfigurationError:
        return
    columns = [column for column, _, _ in row_filter.conditions]
    columns = data.draw(st.lists(st.sampled_from(columns))) if columns else []
    row = {column: data.draw(_FILTER_CELLS) for column in columns}
    row.update(data.draw(st.dictionaries(_FILTER_NAMES, _FILTER_CELLS, max_size=3)))
    if data.draw(st.booleans()):
        row[None] = data.draw(st.lists(st.text(max_size=3), max_size=2))
    try:
        assert row_filter.matches(row) in (True, False)
    except ConfigurationError:
        pass


def test_median_split_is_nearly_balanced_on_distinct_values(tmp_path):
    rng = np.random.default_rng(13)
    for n in (7, 24, 101):
        values = rng.permutation(np.arange(n) + 0.5)
        path = write_csv(
            tmp_path / f"bal{n}.csv", ["a", "cnt"], [[i, v] for i, v in enumerate(values)]
        )
        examples = ingest_csv(CsvStreamSpec(path, ("a",), "cnt"))
        pos = sum(e.label == POS for e in examples)
        assert abs(pos - (n - pos)) <= 1


def test_missing_file_is_a_configuration_error(tmp_path):
    with pytest.raises(ConfigurationError, match="nope.csv"):
        ingest_csv(CsvStreamSpec(str(tmp_path / "nope.csv"), ("a",), "cnt"))


@pytest.mark.parametrize(
    "content",
    [b"a,cnt\n1,2\n\xff,3\n", b"\xfe\xffa,cnt\n1,2\n", b'a,cnt\n"' + b"x" * 200_000 + b'",1\n'],
)
def test_a_file_that_is_not_utf8_csv_is_a_data_error_naming_it(tmp_path, content):
    path = tmp_path / "binary.csv"
    path.write_bytes(content)
    with pytest.raises(DataError, match="binary.csv: unreadable CSV"):
        ingest_csv(CsvStreamSpec(str(path), ("a",), "cnt"))


@pytest.mark.parametrize("cell", ["1e101", "-1e101", "1e300"])
def test_a_number_beyond_the_feature_bound_reports_row_number(tmp_path, cell):
    path = write_csv(tmp_path / "huge.csv", ["a", "cnt"], [[1, 2], [cell, 3], [2, 4]])
    with pytest.raises(DataError, match="row 3: out-of-range value"):
        ingest_csv(CsvStreamSpec(path, ("a",), "cnt"))
    with pytest.raises(DataError, match="row 3: out-of-range target"):
        ingest_csv(CsvStreamSpec(path, ("cnt",), "a"))
    path = write_csv(tmp_path / "bound.csv", ["a", "cnt"], [[1e100, 2], [-1e100, 3]])
    examples = ingest_csv(CsvStreamSpec(path, ("a",), "cnt"))
    assert [e.features[0] for e in examples] == [MAX_ABS_FEATURE, -MAX_ABS_FEATURE]


_CSV_CELLS = st.one_of(
    st.integers(-3, 3).map(str),
    st.floats().map(repr),
    st.sampled_from(["1e101", "-1e100", "nan", "inf", "", '"', " ", "a"]),
    st.text(max_size=4),
)
_CSV_TEXT = st.lists(
    st.lists(_CSV_CELLS, min_size=2, max_size=4).map(",".join), min_size=1, max_size=6
).map("\n".join)


@st.composite
def csv_bytes(draw):
    """A file's bytes: a header that names the columns or not, rows of
    cells, and now and then raw bytes spliced in anywhere."""
    header = draw(st.sampled_from(["a,b,cnt", "cnt,a,b", "a,cnt", ""]))
    content = (header + "\n" + draw(_CSV_TEXT)).encode("utf-8")
    if draw(st.integers(0, 3)) == 0:
        at = draw(st.integers(0, len(content)))
        content = content[:at] + draw(st.binary(min_size=1, max_size=4)) + content[at:]
    return content


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(csv_bytes(), st.binary(max_size=40)),
    st.sampled_from(["", "b == 1", "a > 0 & b != x"]),
)
@example(b"a,b,cnt\n1,1,2\n\xff,1,3\n", "")
def test_ingest_csv_raises_only_data_or_configuration_errors(content, filter_text):
    # DataError exits 3 and ConfigurationError 2; anything else would exit
    # 4 as an internal error.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.csv")
        with open(path, "wb") as fh:
            fh.write(content)
        spec = CsvStreamSpec(path, ("a", "b"), "cnt", RowFilter.parse(filter_text))
        try:
            examples = ingest_csv(spec)
        except (DataError, ConfigurationError):
            return
    assert examples
    for e in examples:
        assert e.features.shape == (2,)
        assert np.all(np.abs(e.features) <= MAX_ABS_FEATURE)


# ----------------------------------------------------------------------
# Interleaving
# ----------------------------------------------------------------------


def ex(value):
    return Example(np.array([float(value), 0.0]), NEG)


def test_round_robin_alternates_source_then_target():
    target = StreamData("T", (ex(0), ex(1)))
    source = StreamData("S1", (ex(10), ex(11)))
    schedule = interleave(target, (source,))
    assert [sid for sid, _ in schedule.entries] == ["S1", "T", "S1", "T"]


def test_round_robin_with_no_sources_is_the_target_stream():
    target = StreamData("T", (ex(0), ex(1), ex(2)), drift_marks=(1,))
    schedule = interleave(target, ())
    assert [sid for sid, _ in schedule.entries] == ["T", "T", "T"]
    assert schedule.drift_marks == (("T", 1),)


def test_round_robin_positions_with_six_sources():
    target = StreamData("T", tuple(ex(i) for i in range(3)))
    sources = tuple(
        StreamData(f"S{j}", tuple(ex(10 * j + i) for i in range(3))) for j in range(6)
    )
    schedule = interleave(target, sources)
    assert len(schedule.entries) == 21
    target_positions = [
        i + 1 for i, (sid, _) in enumerate(schedule.entries) if sid == "T"
    ]
    assert target_positions == [7, 14, 21]


def test_round_robin_skips_exhausted_streams():
    target = StreamData("T", tuple(ex(i) for i in range(4)))
    source = StreamData("S1", (ex(10),))
    schedule = interleave(target, (source,))
    assert [sid for sid, _ in schedule.entries] == ["S1", "T", "T", "T", "T"]


def test_drift_marks_carry_adjusted_global_indices():
    target = StreamData("T", tuple(ex(i) for i in range(4)), drift_marks=(2,))
    source = StreamData("S1", tuple(ex(10 + i) for i in range(4)), drift_marks=(1,))
    schedule = interleave(target, (source,))
    # order: S1 T S1 T S1 T S1 T; source example 1 is entry 2, target
    # example 2 is entry 5
    assert ("S1", 2) in schedule.drift_marks
    assert ("T", 5) in schedule.drift_marks
    assert schedule.target_drift_indices() == (5,)


def test_target_paced_emits_warmup_first():
    target = StreamData("T", tuple(ex(i) for i in range(3)))
    source = StreamData("S1", tuple(ex(10 + i) for i in range(10)))
    schedule = interleave(target, (source,), policy="target_paced", warmup_fraction=0.3)
    kinds = [sid for sid, _ in schedule.entries]
    assert kinds[:3] == ["S1", "S1", "S1"]  # ceil(0.3 * 10)
    assert kinds[3] == "T"
    assert kinds.count("T") == 3


def test_empty_target_is_rejected():
    with pytest.raises(ConfigurationError):
        interleave(StreamData("T", ()), ())


def test_truncation_drops_trailing_source_entries():
    target = StreamData("T", (ex(0),))
    source = StreamData("S1", tuple(ex(10 + i) for i in range(5)))
    schedule = interleave(target, (source,))
    assert [sid for sid, _ in schedule.entries] == ["S1", "T"]


@pytest.mark.parametrize("policy", ["round_robin", "target_paced"])
def test_interleave_ends_at_the_last_target_entry(policy):
    target = StreamData("T", tuple(ex(i) for i in range(3)), drift_marks=(2,))
    sources = (
        StreamData("S1", tuple(ex(10 + i) for i in range(8)), drift_marks=(6,)),
        StreamData("S2", tuple(ex(20 + i) for i in range(8)), drift_marks=(7,)),
    )
    schedule = interleave(target, sources, policy=policy, warmup_fraction=0.25)
    kinds = [sid for sid, _ in schedule.entries]
    assert kinds[-1] == "T"
    assert kinds.count("T") == 3
    assert schedule.target_drift_indices() == (len(kinds) - 1,)
    # marks of source examples that would come after the target are gone
    assert all(sid == "T" for sid, _ in schedule.drift_marks)


class CountingExamples(Sequence):
    """A stream that records the highest index read, by index or slice."""

    def __init__(self, examples):
        self.examples = examples
        self.highest = -1

    def __len__(self):
        return len(self.examples)

    def __getitem__(self, index):
        if isinstance(index, slice):
            read = range(*index.indices(len(self.examples)))
            self.highest = max(self.highest, max(read, default=-1))
        else:
            assert isinstance(index, int) and index >= 0
            self.highest = max(self.highest, index)
        return self.examples[index]


@pytest.mark.parametrize(
    "policy, fraction, expected",
    [
        # S1 S2 T S1 S2 T S1 S2 T
        ("round_robin", 0.1, [2, 2]),
        # ceil(0.1 * 50) = 5 warm-up each, then S1 after T0 and S2 after T1
        ("target_paced", 0.1, [5, 5]),
        ("target_paced", 0.37, [19, 19]),
        ("target_paced", 0.0, [0, 0]),
    ],
)
def test_interleave_reads_no_source_item_past_the_last_target(policy, fraction, expected):
    target = StreamData("T", tuple(ex(i) for i in range(3)))
    counters = [CountingExamples(tuple(ex(100 * j + i) for i in range(50))) for j in (1, 2)]
    sources = tuple(StreamData(f"S{j + 1}", c) for j, c in enumerate(counters))
    schedule = interleave(target, sources, policy=policy, warmup_fraction=fraction)
    kinds = [sid for sid, _ in schedule.entries]
    assert kinds[-1] == "T"
    assert [c.highest for c in counters] == expected
    assert [c.highest for c in counters] == [kinds.count("S1") - 1, kinds.count("S2") - 1]
    if policy == "target_paced":
        n_warm = math.ceil(fraction * 50)
        assert kinds[: 2 * n_warm] == ["S1"] * n_warm + ["S2"] * n_warm


# The per-entry merge that ``interleave`` replaced, kept as it was.
def reference_interleave(
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
    """
    if policy not in INTERLEAVE_POLICIES:
        raise ConfigurationError(f"unknown interleave policy {policy!r}")
    if not target.examples:
        raise ConfigurationError("target stream is empty")
    if not 0.0 <= warmup_fraction <= 1.0:
        raise ConfigurationError("warmup_fraction must be in [0, 1]")

    mark_sets = {s.stream_id: set(s.drift_marks) for s in (*sources, target)}
    entries: list[tuple[str, Example]] = []
    marks: list[tuple[str, int]] = []

    def emit(stream_id: str, local_index: int, example: Example) -> None:
        if local_index in mark_sets[stream_id]:
            marks.append((stream_id, len(entries)))
        entries.append((stream_id, example))

    if policy == "round_robin":
        cursors = {s.stream_id: 0 for s in (*sources, target)}
        order = [*sources, target]
        while cursors[target.stream_id] < len(target.examples):
            for stream in order:
                i = cursors[stream.stream_id]
                if i < len(stream.examples):
                    emit(stream.stream_id, i, stream.examples[i])
                    cursors[stream.stream_id] = i + 1
    else:
        cursors = {s.stream_id: 0 for s in sources}
        for stream in sources:
            n_warm = math.ceil(warmup_fraction * len(stream.examples))
            for i in range(n_warm):
                emit(stream.stream_id, i, stream.examples[i])
            cursors[stream.stream_id] = n_warm
        rotation = 0
        last = len(target.examples) - 1
        for t, example in enumerate(target.examples):
            emit(target.stream_id, t, example)
            if t == last:
                break
            for offset in range(len(sources)):
                stream = sources[(rotation + offset) % len(sources)]
                i = cursors[stream.stream_id]
                if i < len(stream.examples):
                    emit(stream.stream_id, i, stream.examples[i])
                    cursors[stream.stream_id] = i + 1
                    rotation = (rotation + offset + 1) % len(sources)
                    break

    return StreamSchedule(tuple(entries), tuple(marks), target.stream_id)


@st.composite
def interleave_cases(draw):
    """A target and up to four sources, each a generated batch or a tuple of
    examples: empty, shorter or longer than the target, with drift marks
    anywhere, also past the stream's end; a policy and a warm-up fraction."""

    def stream(stream_id, min_size):
        n = draw(st.integers(min_size, 45))
        marks = tuple(draw(st.lists(st.integers(-2, n + 2), max_size=4)))
        features = np.random.default_rng(n).standard_normal((n, 2))
        labels = np.arange(n) % 2
        if draw(st.booleans()):
            examples = _LazyExamples(features, labels)
        else:
            examples = tuple(Example(row, int(label)) for row, label in zip(features, labels))
        return StreamData(stream_id, examples, marks)

    target = stream("T", 1)
    sources = tuple(stream(f"S{j + 1}", 0) for j in range(draw(st.integers(0, 4))))
    policy = draw(st.sampled_from(["round_robin", "target_paced"]))
    fraction = draw(st.one_of(st.sampled_from([0.0, 0.1, 0.37, 0.5, 1.0]), st.floats(0.0, 1.0)))
    return target, sources, policy, fraction


@settings(max_examples=400, deadline=None)
@given(interleave_cases())
def test_interleave_equals_the_per_entry_merge(case):
    # The bulk merge runs first, so a generated batch builds its rows in
    # bulk, and the reference then reads the same objects by index.
    target, sources, policy, fraction = case
    schedule = interleave(target, sources, policy, fraction)
    expected = reference_interleave(target, sources, policy, fraction)
    assert len(schedule.entries) == len(expected.entries)
    for (sid, example), (expected_sid, expected_example) in zip(
        schedule.entries, expected.entries
    ):
        assert sid == expected_sid
        assert example is expected_example
    assert schedule.drift_marks == expected.drift_marks
    assert schedule.target_id == expected.target_id


def test_export_schedule_csv_layout(tmp_path):
    target = StreamData("T", (ex(1), ex(2)), drift_marks=(1,))
    schedule = interleave(target, ())
    out = tmp_path / "dataset.csv"
    export_schedule_csv(schedule, str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,stream_id,f1,f2,label,is_drift_mark"
    assert lines[1] == "1,T,1,0,0,0"
    assert lines[2] == "2,T,2,0,0,1"
