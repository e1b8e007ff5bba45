"""Tests for the command-line front end."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marline.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    _load_config,
    _read_config,
    main,
)
from marline.core import ConfigurationError, DataError
from marline.evaluation import ExperimentSpec
from marline.learners import HoeffdingTreeParams
from marline.model import MarlineConfig
from marline.streams import (
    CsvDataset,
    CsvStreamSpec,
    RowFilter,
    SyntheticDataset,
    benchmark_dataset,
)


def write_config(path, body):
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return str(path)


RUN_CONFIG = """
    [experiment]
    approach = marline_with_source
    runs = 2
    seed = 11
    evaluation = prequential_reset

    [model]
    base_ensemble = bagging
    detector = hddm_a
    ensemble_size = 2
    forgetting_factor = 0.9
    performance_index = 0.4

    [dataset]
    kind = synthetic
    family = abrupt_similar
    class_size = 10
"""


def test_generate_abrupt_target_writes_expected_row_count(tmp_path, capsys):
    config = write_config(
        tmp_path / "gen.ini",
        """
        [experiment]
        seed = 3

        [dataset]
        kind = synthetic
        family = abrupt_similar
        class_size = 50
        include_sources = false
        """,
    )
    out = tmp_path / "out"
    assert main(["generate", "--config", config, "--out", str(out)]) == EXIT_OK
    lines = (out / "dataset.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 200  # header + 2 concepts x 2 classes x 50
    assert lines[0].startswith("t,stream_id,f1,f2,label,is_drift_mark")
    # exactly one drift mark, at the concept switch
    marked = [line for line in lines[1:] if line.endswith(",1")]
    assert len(marked) == 1
    assert marked[0].split(",")[0] == "101"


def test_run_is_byte_identical_for_identical_config_and_seed(tmp_path):
    config = write_config(tmp_path / "run.ini", RUN_CONFIG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", config, "--out", str(out_a)]) == EXIT_OK
    assert main(["run", "--config", config, "--out", str(out_b)]) == EXIT_OK
    for name in ("results.csv", "summary.csv", "segments.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    header = (out_a / "results.csv").read_text().splitlines()[0]
    assert header == "run,t,segment,accuracy_running,accuracy_window,source_weight_ratio"


def test_seed_flag_changes_the_results(tmp_path):
    config = write_config(tmp_path / "run.ini", RUN_CONFIG)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", config, "--out", str(out_a), "--seed", "1"]) == EXIT_OK
    assert main(["run", "--config", config, "--out", str(out_b), "--seed", "2"]) == EXIT_OK
    assert (out_a / "results.csv").read_bytes() != (out_b / "results.csv").read_bytes()


def test_missing_config_exits_with_usage_error_naming_the_path(tmp_path, capsys):
    missing = str(tmp_path / "nowhere.ini")
    code = main(["run", "--config", missing, "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    assert missing in capsys.readouterr().err


def test_unknown_flag_exits_with_usage_error(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--frobnicate"])
    assert excinfo.value.code == EXIT_USAGE


def test_malformed_config_is_a_usage_error(tmp_path, capsys):
    config = write_config(tmp_path / "bad.ini", "[dataset]\nkind = synthetic\n")
    code = main(["run", "--config", config, "--out", str(tmp_path / "o")])
    assert code == EXIT_USAGE
    assert "family" in capsys.readouterr().err


def test_set_overrides_take_precedence(tmp_path):
    config = write_config(
        tmp_path / "gen.ini",
        """
        [dataset]
        kind = synthetic
        family = abrupt_similar
        class_size = 50
        include_sources = false
        """,
    )
    out = tmp_path / "out"
    code = main(
        [
            "generate",
            "--config",
            config,
            "--out",
            str(out),
            "--set",
            "dataset.class_size=5",
        ]
    )
    assert code == EXIT_OK
    lines = (out / "dataset.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 20


def test_csv_dataset_run_and_data_error(tmp_path, capsys):
    data = tmp_path / "stream.csv"
    rows = ["a,b,cnt"] + [f"{i},{i % 3},{(i * 37) % 101}" for i in range(60)]
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    config = write_config(
        tmp_path / "csv.ini",
        f"""
        [experiment]
        approach = base_plain
        runs = 1
        evaluation = sliding_window
        window_fraction = 0.2

        [model]
        ensemble_size = 2

        [dataset]
        kind = csv

        [target]
        path = {data}
        features = a, b
        target_column = cnt
        """,
    )
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == EXIT_OK
    assert (out / "results.csv").exists()

    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,cnt\n1,2,3\n1,zzz,4\n", encoding="utf-8")
    code = main(
        [
            "run",
            "--config",
            config,
            "--out",
            str(out),
            "--set",
            f"target.path={bad}",
        ]
    )
    assert code == EXIT_DATA
    assert "row 3" in capsys.readouterr().err


def test_grid_subcommand_writes_grid_table(tmp_path):
    config = write_config(
        tmp_path / "grid.ini",
        RUN_CONFIG
        + """
    [grid]
    ensemble_size = 1,2
    forgetting_factor = 0.9:0.05:1
    performance_index = 0.4
    """,
    )
    out = tmp_path / "out"
    assert main(["grid", "--config", config, "--out", str(out)]) == EXIT_OK
    lines = (out / "grid_results.csv").read_text().strip().splitlines()
    assert lines[0] == "ensemble_size,forgetting_factor,performance_index,objective"
    assert len(lines) == 1 + 2 * 3 * 1  # 2 sizes x 3 thetas x 1 sigma


def test_grid_range_parsing_matches_published_counts(tmp_path):
    from marline.cli import _parse_grid_range

    thetas = _parse_grid_range("0.9:0.01:1")
    assert len(thetas) == 11
    assert thetas[0] == pytest.approx(0.9)
    assert thetas[-1] == pytest.approx(1.0)
    sigmas = _parse_grid_range("0.1:0.1:1")
    assert len(sigmas) == 10
    sizes = _parse_grid_range("1:1:30")
    assert len(sizes) == 30
    assert len(_parse_grid_range("0:1:9999")) == 10_000
    with pytest.raises(ConfigurationError, match="spans 10001 values; at most 10000"):
        _parse_grid_range("0:1:10000")


grid_numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, 1.0, 1e-9, 1e-12, 1e308, -1e308, 5e-324]),
)


@settings(max_examples=300, deadline=None)
@given(start=grid_numbers, step=grid_numbers, end=grid_numbers)
def test_any_grid_range_is_parsed_promptly_or_is_a_usage_error(start, step, end):
    from marline.cli import MAX_GRID_AXIS_VALUES, _parse_grid_range

    begin = time.perf_counter()
    try:
        values = _parse_grid_range(f"{start!r}:{step!r}:{end!r}")
    except ConfigurationError:
        pass
    else:
        assert len(values) <= MAX_GRID_AXIS_VALUES
    assert time.perf_counter() - begin < 1.0


@pytest.mark.parametrize(
    "axis, message",
    [
        ("ensemble_size=a,b", "could not convert string to float: 'a'"),
        ("forgetting_factor=0.9:x:1", "could not convert string to float: 'x'"),
        ("ensemble_size=1:nan:3", "cannot convert float NaN to integer"),
        ("ensemble_size=inf", "cannot convert float infinity to integer"),
        ("ensemble_size=1.5,2", "ensemble sizes must be whole numbers"),
        ("forgetting_factor=0:1e-9:1", "grid range spans 1000000001 values"),
    ],
)
def test_malformed_grid_axis_is_a_usage_error(tmp_path, capsys, axis, message):
    config = write_config(tmp_path / "grid.ini", RUN_CONFIG)
    out = tmp_path / "out"
    code = main(["grid", "--config", config, "--out", str(out), "--set", f"grid.{axis}"])
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_negative_seed_flag_is_a_usage_error(tmp_path, capsys):
    config = write_config(tmp_path / "run.ini", RUN_CONFIG)
    out = tmp_path / "out"
    code = main(["run", "--config", config, "--out", str(out), "--seed", "-3"])
    assert code == EXIT_USAGE
    assert "seed must be >= 0, got -3" in capsys.readouterr().err


def test_negative_seed_in_config_is_a_usage_error(tmp_path, capsys):
    config = write_config(tmp_path / "run.ini", RUN_CONFIG.replace("seed = 11", "seed = -3"))
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == EXIT_USAGE
    assert "seed must be >= 0, got -3" in capsys.readouterr().err


def test_detector_key_of_another_detector_is_a_usage_error(tmp_path, capsys):
    config = write_config(tmp_path / "run.ini", RUN_CONFIG)
    out = tmp_path / "out"
    code = main(
        ["run", "--config", config, "--out", str(out), "--set", "model.min_observations=5"]
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "detector 'hddm_a' does not take min_observations" in err


def test_generate_rejects_a_key_of_another_detector(tmp_path, capsys):
    config = write_config(tmp_path / "gen.ini", RUN_CONFIG)
    out = tmp_path / "out"
    code = main(
        ["generate", "--config", config, "--out", str(out), "--set", "model.min_observations=5"]
    )
    assert code == EXIT_USAGE
    assert "detector 'hddm_a' does not take min_observations" in capsys.readouterr().err
    assert not (out / "dataset.csv").exists()


def test_out_of_range_warmup_fraction_is_a_usage_error_under_round_robin(tmp_path, capsys):
    config = write_config(tmp_path / "run.ini", RUN_CONFIG)
    out = tmp_path / "out"
    code = main(
        ["run", "--config", config, "--out", str(out), "--set", "experiment.warmup_fraction=7"]
    )
    assert code == EXIT_USAGE
    assert "warmup_fraction must be in [0, 1]" in capsys.readouterr().err


CSV_CONFIG = """
    [experiment]
    approach = base_plain
    runs = 1
    evaluation = sliding_window

    [model]
    ensemble_size = 2

    [dataset]
    kind = csv

    [target]
    path = {data}
    features = a, b
    target_column = cnt

    [source:s]
    path = {data}
    features = a, b
    target_column = cnt
"""


def write_csv_config(tmp_path, body=CSV_CONFIG):
    data = tmp_path / "stream.csv"
    rows = ["a,b,cnt"] + [f"{i},{i % 3},{(i * 37) % 101}" for i in range(40)]
    data.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return write_config(tmp_path / "csv.ini", body.format(data=data))


@pytest.mark.parametrize(
    "row, named",
    [(b"\xff,1,2", "unreadable CSV"), (b"1e101,1,2", "row 3: out-of-range value '1e101'")],
)
def test_a_csv_row_not_utf8_or_beyond_the_feature_bound_is_a_data_error(
    tmp_path, capsys, row, named
):
    config = write_csv_config(tmp_path)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"a,b,cnt\n1,2,3\n" + row + b"\n")
    out = tmp_path / "out"
    code = main(["run", "--config", config, "--out", str(out), "--set", f"target.path={bad}"])
    assert code == EXIT_DATA
    assert f"{bad}: {named}" in capsys.readouterr().err


def test_a_config_file_not_utf8_is_a_usage_error_naming_it(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_bytes(b"[experiment]\nruns = 1\xff\n")
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert f"cannot parse {config}: 'utf-8' codec can't decode" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, name",
    [
        ("generate", "dataset.csv"),
        ("run", "results.csv"),
        ("run", "segments.csv"),
        ("grid", "grid_results.csv"),
    ],
)
def test_an_output_file_that_cannot_be_written_is_a_usage_error_naming_it(
    tmp_path, capsys, command, name
):
    grid = """
    [grid]
    ensemble_size = 1
    forgetting_factor = 0.9
    performance_index = 0.4
    """
    config = write_config(tmp_path / "run.ini", RUN_CONFIG + grid)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert main([command, "--config", config, "--out", str(out)]) == EXIT_USAGE
    assert f"cannot write {out / name}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "base, old, new, named",
    [
        ("run", "runs = 2", "rnus = 2", "unknown config key [experiment] rnus"),
        ("run", "seed = 11", "seed_base = 11", "unknown config key [experiment] seed_base"),
        ("run", "ensemble_size = 2", "ensemble_sise = 2",
         "unknown config key [model] ensemble_sise"),
        ("run", "ensemble_size = 2", "eps_clamp = 1e-9", "unknown config key [model] eps_clamp"),
        ("run", "class_size = 10", "class_size = 10\n    include_source = false",
         "unknown config key [dataset] include_source"),
        ("run", "[model]", "[modle]", "unknown config section [modle]"),
        ("run", "[model]", "[DEFAULT]\n    runs = 1\n    [model]",
         "unknown config section [DEFAULT]"),
        ("run", "class_size = 10", "class_size = 10\n    [target]\n    path = x.csv",
         "unknown config section [target]"),
        # Through `run`, which never starts a grid search, even where the
        # misspelt axis would leave `grid` with the full default grid.
        ("run", "class_size = 10", "class_size = 10\n    [grid]\n    ensemble_sizes = 1,2",
         "unknown config key [grid] ensemble_sizes"),
        ("csv", "[target]", "[target]\n    filtre = a > 1", "unknown config key [target] filtre"),
        ("csv", "[source:s]", "[source:s]\n    filtre = a > 1",
         "unknown config key [source:s] filtre"),
        ("csv", "kind = csv", "kind = csv\n    family = abrupt_similar",
         "unknown config key [dataset] family"),
    ],
    ids=[
        "experiment-key",
        "experiment-field-name",
        "model-key",
        "model-eps-clamp",
        "dataset-key",
        "section",
        "default-section",
        "target-section-of-synthetic",
        "grid-key",
        "target-key",
        "source-key",
        "dataset-key-of-synthetic",
    ],
)
def test_a_key_or_section_nothing_reads_is_a_usage_error_naming_it(
    tmp_path, capsys, base, old, new, named
):
    if base == "run":
        assert old in RUN_CONFIG
        config = write_config(tmp_path / "run.ini", RUN_CONFIG.replace(old, new))
    else:
        assert old in CSV_CONFIG
        config = write_csv_config(tmp_path, CSV_CONFIG.replace(old, new))
    out = tmp_path / "out"
    assert main(["run", "--config", config, "--out", str(out)]) == EXIT_USAGE
    assert named in capsys.readouterr().err
    assert not out.exists()


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_shipped_configs_build_the_spec_they_describe():
    bike = CsvDataset(
        target=CsvStreamSpec(
            path="data/london_merged.csv",
            feature_columns=("t1", "t2", "hum", "wind_speed"),
            target_column="cnt",
            row_filter=RowFilter.parse("is_weekend == 1"),
        ),
        sources=(
            CsvStreamSpec(
                path="data/washington_day.csv",
                feature_columns=("temp", "atemp", "hum", "windspeed"),
                target_column="cnt",
                row_filter=RowFilter.parse("workingday == 1"),
            ),
        ),
    )
    expected = {
        "abrupt_non_similar.ini": ExperimentSpec(
            approach="marline_with_source",
            config=MarlineConfig(
                n_features=2,
                ensemble_size=20,
                base_ensemble="bagging",
                detector="hddm_a",
                forgetting_factor=0.9,
                performance_index=0.4,
            ),
            dataset=benchmark_dataset("abrupt_non_similar", 50),
            runs=30,
            seed_base=42,
            evaluation="prequential_reset",
            window_fraction=0.1,
            interleave_policy="round_robin",
        ),
        "bike_sharing_weekend.ini": ExperimentSpec(
            approach="marline_with_source",
            config=MarlineConfig(
                n_features=4,
                ensemble_size=20,
                base_ensemble="bagging",
                detector="hddm_a",
                forgetting_factor=0.9,
                performance_index=0.4,
            ),
            dataset=bike,
            runs=30,
            seed_base=42,
            evaluation="sliding_window",
            window_fraction=0.1,
        ),
        "grid_no_drift.ini": ExperimentSpec(
            approach="marline_with_source",
            config=MarlineConfig(n_features=2, base_ensemble="bagging", detector="hddm_a"),
            dataset=benchmark_dataset("no_drift_similar", 50),
            runs=5,
            seed_base=7,
            evaluation="prequential_reset",
        ),
    }
    assert sorted(expected) == sorted(p.name for p in CONFIGS.glob("*.ini"))
    for name, spec in expected.items():
        assert _read_config(_load_config(str(CONFIGS / name), []))[0] == spec, name
    _, grids = _read_config(_load_config(str(CONFIGS / "grid_no_drift.ini"), []))
    assert grids == {
        "ensemble_size": [10, 20, 30],
        "forgetting_factor": [0.9, 0.95, 1.0],
        "performance_index": [0.2, 0.4],
    }


EVERY_KEY_CONFIG = """
    [experiment]
    config_version = 1
    approach = base_detector_reset
    runs = 3
    seed = 5
    evaluation = sliding_window
    window_fraction = 0.25
    interleave = target_paced
    warmup_fraction = 0.3

    [model]
    base_ensemble = boosting
    ensemble_size = 7
    forgetting_factor = 0.95
    performance_index = 0.2
    grace_period = 50
    split_confidence = 0.001
    tie_threshold = 0.1
    leaf_prediction = majority
    {detector_keys}

    [dataset]
    kind = synthetic
    family = incremental_non_similar
    class_size = 12
    include_sources = false
"""


@pytest.mark.parametrize(
    "detector_keys, detector, params",
    [
        (
            "detector = ddm\n    min_observations = 40\n"
            "    warning_level = 1.5\n    drift_level = 2.5",
            "ddm",
            {"min_observations": 40, "warning_level": 1.5, "drift_level": 2.5},
        ),
        (
            "detector = hddm_a\n    drift_confidence = 0.01\n    warning_confidence = 0.05",
            "hddm_a",
            {"drift_confidence": 0.01, "warning_confidence": 0.05},
        ),
    ],
    ids=["ddm", "hddm_a"],
)
def test_a_config_setting_every_documented_key_builds_that_spec(
    tmp_path, detector_keys, detector, params
):
    config = write_config(
        tmp_path / "all.ini", EVERY_KEY_CONFIG.format(detector_keys=detector_keys)
    )
    spec = _read_config(_load_config(config, []))[0]
    expected = ExperimentSpec(
        approach="base_detector_reset",
        config=MarlineConfig(
            n_features=2,
            ensemble_size=7,
            base_ensemble="boosting",
            detector=detector,
            forgetting_factor=0.95,
            performance_index=0.2,
            tree=HoeffdingTreeParams(
                grace_period=50,
                split_confidence=0.001,
                tie_threshold=0.1,
                leaf_prediction="majority",
            ),
            detector_params=params,
        ),
        dataset=SyntheticDataset(
            target=benchmark_dataset("incremental_non_similar", 12).target, sources=()
        ),
        runs=3,
        seed_base=5,
        evaluation="sliding_window",
        window_fraction=0.25,
        interleave_policy="target_paced",
        warmup_fraction=0.3,
    )
    assert spec == expected
    assert [type(v) for v in spec.config.detector_params.values()] == [
        type(v) for v in params.values()
    ]
    assert _read_config(_load_config(config, []), seed_override=9)[0].seed_base == 9


def test_misspelt_grid_axis_is_rejected_before_any_grid_runs(tmp_path):
    config = write_config(
        tmp_path / "grid.ini", RUN_CONFIG + "\n    [grid]\n    ensemble_sizes = 1,2\n"
    )
    with pytest.raises(ConfigurationError, match=r"unknown config key \[grid\] ensemble_sizes"):
        _read_config(_load_config(config, []))


def test_set_strips_section_and_key_once(tmp_path, capsys):
    config = write_config(tmp_path / "run.ini", RUN_CONFIG)
    parser = _load_config(config, ["model .ensemble_size = 5"])
    assert _read_config(parser)[0].config.ensemble_size == 5
    out = tmp_path / "out"
    code = main(["run", "--config", config, "--out", str(out), "--set", "modle .ensemble_size=5"])
    assert code == EXIT_USAGE
    assert "unknown config section [modle]" in capsys.readouterr().err
    code = main(["run", "--config", config, "--out", str(out), "--set", "model.=5"])
    assert code == EXIT_USAGE
    assert "--set expects SECTION.KEY=VALUE, got 'model.=5'" in capsys.readouterr().err
    assert not out.exists()


def test_a_percent_sign_in_a_value_is_taken_literally(tmp_path, capsys):
    config = write_config(tmp_path / "run.ini", RUN_CONFIG)
    out = tmp_path / "out"
    code = main(["run", "--config", config, "--out", str(out), "--set", "experiment.approach=50%"])
    assert code == EXIT_USAGE
    assert "unknown approach '50%'" in capsys.readouterr().err
    config = write_config(
        tmp_path / "bag.ini",
        RUN_CONFIG.replace("base_ensemble = bagging", "base_ensemble = bag%ging"),
    )
    assert main(["run", "--config", config, "--out", str(out)]) == EXIT_USAGE
    assert "got 'bag%ging'" in capsys.readouterr().err
    assert not out.exists()


def test_python_dash_m_runs_the_cli(tmp_path):
    import marline

    env = dict(os.environ, PYTHONPATH=str(Path(marline.__file__).resolve().parent.parent))
    config = write_config(tmp_path / "run.ini", RUN_CONFIG)
    out = tmp_path / "out"
    command = [sys.executable, "-m", "marline.cli", "run", "--config", config, "--out", str(out)]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    assert (out / "results.csv").exists()
    missing = str(tmp_path / "nowhere.ini")
    command[5] = missing
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_USAGE
    assert missing in done.stderr


@pytest.mark.parametrize("command", ["generate", "run", "grid"])
def test_a_source_with_another_feature_count_is_a_usage_error(tmp_path, capsys, command):
    target, source = CSV_CONFIG.split("[source:s]")
    body = target + "[source:s]" + source.replace("features = a, b", "features = a, b, cnt")
    config = write_csv_config(tmp_path, body)
    out = tmp_path / "out"
    assert main([command, "--config", config, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"{tmp_path / 'stream.csv'}: 3 features, but the target has 2" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "run", "grid"])
def test_an_out_path_that_cannot_be_a_directory_fails_before_any_work(
    tmp_path, capsys, monkeypatch, command
):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("build_schedule", "run_experiment", "grid_search"):
        monkeypatch.setattr(f"marline.cli.{name}", no_work)
    config = write_config(tmp_path / "run.ini", RUN_CONFIG)
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    for out in (taken, taken / "sub"):
        assert main([command, "--config", config, "--out", str(out)]) == EXIT_USAGE
        assert f"cannot create output directory {out}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "run", "grid"])
@pytest.mark.parametrize("parallelism", ["0", "-3"])
def test_a_parallelism_below_one_fails_before_any_work(
    tmp_path, capsys, monkeypatch, command, parallelism
):
    for name in ("build_schedule", "run_experiment", "grid_search"):
        monkeypatch.setattr(f"marline.cli.{name}", None)
    config = write_config(tmp_path / "run.ini", RUN_CONFIG)
    out = tmp_path / "out"
    argv = [command, "--config", config, "--out", str(out), "--parallelism", parallelism]
    assert main(argv) == EXIT_USAGE
    assert "--parallelism must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_an_hddm_a_warning_that_could_never_fire_is_a_usage_error(tmp_path, capsys):
    config = write_config(tmp_path / "run.ini", RUN_CONFIG)
    out = tmp_path / "out"
    settings = ["model.detector=hddm_a", "model.drift_confidence=0.01", "model.warning_confidence=0.001"]
    argv = ["run", "--config", config, "--out", str(out)]
    assert main(argv + [arg for s in settings for arg in ("--set", s)]) == EXIT_USAGE
    assert "need drift_confidence < warning_confidence" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "settings, message",
    [
        (
            ["model.detector=hddm_a", "model.drift_confidence=0.005", "model.warning_confidence=0.005"],
            "need drift_confidence < warning_confidence",
        ),
        (
            ["model.detector=ddm", "model.warning_level=3.0", "model.drift_level=3.0"],
            "need 0 < warning_level < drift_level",
        ),
    ],
    ids=["hddm_a", "ddm"],
)
def test_a_warning_bound_equal_to_the_drift_bound_is_a_usage_error(
    tmp_path, capsys, settings, message
):
    config = write_config(tmp_path / "run.ini", RUN_CONFIG)
    out = tmp_path / "out"
    argv = ["run", "--config", config, "--out", str(out)]
    assert main(argv + [arg for s in settings for arg in ("--set", s)]) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out.exists()


# Every section and key a config may hold, for the fuzzing below.
STREAM_KEYS = ("path", "features", "target_column", "filter")
CONFIG_KEYS = {
    "experiment": (
        "config_version", "approach", "runs", "seed", "evaluation",
        "window_fraction", "interleave", "warmup_fraction",
    ),
    "model": (
        "base_ensemble", "detector", "ensemble_size", "forgetting_factor",
        "performance_index", "grace_period", "split_confidence", "tie_threshold",
        "leaf_prediction", "min_observations", "warning_level", "drift_level",
        "drift_confidence", "warning_confidence",
    ),
    "dataset": ("kind", "family", "class_size", "include_sources"),
    "grid": ("ensemble_size", "forgetting_factor", "performance_index"),
    "target": STREAM_KEYS,
    "source:s": STREAM_KEYS,
}
SECTION_KEYS = [(section, key) for section, keys in CONFIG_KEYS.items() for key in keys]
FUZZ_BASE = """
[experiment]
runs = 2

[dataset]
kind = {kind}
family = abrupt_similar
class_size = 10

[target]
path = t.csv
features = a, b
target_column = c
"""
config_values = st.one_of(
    st.text(max_size=12),
    st.sampled_from(
        ["0", "-1", "0.5", "1e309", "nan", "inf", "1e-320", "9" * 30, "true", "no", "csv",
         "synthetic", "boosting", "ddm", "majority", "a, b", "a,a", "1:1:3", "0:0:0", "1,2",
         "a > 1", "a == x", "%", "$x"]
    ),
)
config_lines = st.one_of(
    st.sampled_from([f"[{section}]" for section in [*CONFIG_KEYS, "DEFAULT", "x"]]),
    st.builds(
        lambda section_key, value, sep: f"{section_key[1]}{sep}{value}",
        st.sampled_from(SECTION_KEYS), config_values, st.sampled_from([" = ", "=", ": ", " "]),
    ),
    st.text(max_size=20),
)
ini_files = st.one_of(
    st.binary(max_size=200),
    st.builds(
        lambda lines, tail: "\n".join(lines).encode("utf-8", "surrogatepass") + tail,
        st.lists(config_lines, max_size=25),
        st.sampled_from([b"", b"\xff", b"\x00", b"\xc3"]),
    ),
)
set_items = st.one_of(
    st.builds(
        lambda section_key, value: "{}.{}={}".format(*section_key, value),
        st.sampled_from(SECTION_KEYS), config_values,
    ),
    st.text(max_size=30),
)


@settings(max_examples=200, deadline=None)
@given(
    ini=ini_files,
    overrides=st.lists(set_items, max_size=6),
    base=st.sampled_from([None, "synthetic", "csv"]),
)
@example(ini=b"[experiment]\nruns = 1\xff\n", overrides=[], base=None)
def test_any_config_file_and_set_list_is_read_or_refused_cleanly(ini, overrides, base):
    # Whole INI bytes, after a readable config or alone, and --set strings
    # over every key: reading them gives a spec or a usage or data error,
    # never any other exception. Reading opens no data file.
    if base is not None:
        ini = FUZZ_BASE.format(kind=base).encode("utf-8") + ini
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.ini")
        with open(path, "wb") as fh:
            fh.write(ini)
        try:
            _read_config(_load_config(path, overrides))
        except (ConfigurationError, DataError):
            pass


PINNED_GRID_CONFIG = """
    [experiment]
    approach = marline_with_source
    runs = 1
    seed = 5
    evaluation = sliding_window
    window_fraction = 0.2

    [model]
    base_ensemble = boosting
    detector = ddm
    min_observations = 20
    grace_period = 40
    leaf_prediction = majority

    [dataset]
    kind = csv

    [target]
    path = {target}
    features = a, b
    target_column = cnt

    [source:s]
    path = {source}
    features = a, b
    target_column = cnt

    [grid]
    ensemble_size = 3
    forgetting_factor = 0.9, 1
    performance_index = 0.4
"""


def write_pinned_csv_pair(tmp_path):
    """A target and a source CSV whose target column depends on the features,
    the target's dependence flipping halfway through."""
    paths = {}
    for name, rows, flip in (("target", 240, 120), ("source", 300, None)):
        lines = ["a,b,cnt"]
        for i in range(rows):
            a, b = (i * 7) % 23, (i * 13) % 17
            sign = -1 if flip is not None and i >= flip else 1
            lines.append(f"{a},{b},{sign * (3 * a - 2 * b) + (i * 37) % 11}")
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text("\n".join(lines) + "\n", encoding="utf-8")
    return PINNED_GRID_CONFIG.format(**paths)


PINNED_OUTPUTS = {
    "generate": {
        "dataset.csv": "0bbb05a0bf6400f902bd718b53453916de70fc402e463113d4a1c742c001d5b7",
    },
    "run": {
        "results.csv": "5895498bf0e43e8e6fba01af08d7493670dd62a4474c2625bde8c3cf2927a702",
        "segments.csv": "53a2945294931b56d3eab5913fdadcda290b1c173f2113a66181192b25e597ec",
        "summary.csv": "a1da5654d0d91970f2cdacb9bc4b5de959a07340199cc3539987d88484201472",
    },
    "grid": {
        "grid_results.csv": "c0ee84614c4351e6a428d5f11d8481e523dfdb6722cd792d04d6ae0b5f730aef",
    },
    # A run of the grid's CSV pair config: boosting over majority leaves with
    # DDM, whose short-lived target concepts often hold only single-leaf
    # trees, so every step's accuracy and source_weight_ratio pin the passes
    # that skip the projection.
    "run-csv": {
        "results.csv": "fa81974bb842284bd56969db13e7411f7a619c0aa71d0f51e403ae4ac514786c",
        "segments.csv": "0a66b0a708fa0e792e5ef21c03d8c82a78ff811a86ee0f16a31af8a92700835a",
        "summary.csv": "681eb83c9847eb772f813974a973db93036f0ae6cae91af30c559c8a45655b34",
    },
}


SYNTHETIC_GRID_CONFIG = RUN_CONFIG + """
    [grid]
    ensemble_size = 2
    forgetting_factor = 0.9, 1
    performance_index = 0.4
"""


@pytest.mark.parametrize("data", ["csv", "synthetic"])
def test_a_grid_writes_the_same_table_serially_and_in_parallel(tmp_path, data):
    # Two points and two runs; with --parallelism 2 each run, with both
    # its points on its one schedule, is a task of a two-worker pool.
    body = write_pinned_csv_pair(tmp_path) if data == "csv" else SYNTHETIC_GRID_CONFIG
    config = write_config(tmp_path / "grid.ini", body)
    tables = []
    for parallelism in ("1", "2"):
        out = tmp_path / f"out{parallelism}"
        argv = ["grid", "--config", config, "--out", str(out), "--set", "experiment.runs=2"]
        assert main(argv + ["--parallelism", parallelism]) == EXIT_OK
        tables.append((out / "grid_results.csv").read_bytes())
    assert len(tables[0].splitlines()) == 1 + 2
    assert tables[0] == tables[1]


def test_a_huge_parallelism_starts_no_more_workers_than_runs(tmp_path, recording_pool):
    config = write_config(tmp_path / "run.ini", RUN_CONFIG)  # runs = 2
    out = tmp_path / "out"
    argv = ["run", "--config", config, "--out", str(out), "--parallelism", "100000"]
    assert main(argv) == EXIT_OK
    assert recording_pool == [2]


@pytest.mark.parametrize("case", sorted(PINNED_OUTPUTS))
def test_cli_outputs_are_pinned_byte_for_byte(tmp_path, case):
    # The sha256 of every file each subcommand writes, recorded from a known
    # good build (Python 3.11, numpy 2.4, x86-64): a refactor that changes any
    # output byte fails here. A case named command-csv runs on the CSV pair.
    command, _, data = case.partition("-")
    body = write_pinned_csv_pair(tmp_path) if command == "grid" or data == "csv" else RUN_CONFIG
    config = write_config(tmp_path / "pinned.ini", body)
    out = tmp_path / "out"
    assert main([command, "--config", config, "--out", str(out)]) == EXIT_OK
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }
    assert digests == PINNED_OUTPUTS[case]
