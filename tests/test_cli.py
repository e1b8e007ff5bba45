"""Tests for the command-line front end."""

from __future__ import annotations

import textwrap

import pytest

from marline.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main


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


@pytest.mark.parametrize(
    "axis, message",
    [
        ("ensemble_size=a,b", "could not convert string to float: 'a'"),
        ("forgetting_factor=0.9:x:1", "could not convert string to float: 'x'"),
        ("ensemble_size=1:nan:3", "cannot convert float NaN to integer"),
        ("ensemble_size=inf", "cannot convert float infinity to integer"),
        ("ensemble_size=1.5,2", "ensemble sizes must be whole numbers"),
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
