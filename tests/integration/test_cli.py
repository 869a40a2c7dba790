"""Integration tests for the ``python -m repro`` command-line front-end."""

import io
import json
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

COMMON = ["--scale", "small", "--num-models", "8", "--seed", "0"]


def run_cli(*argv) -> str:
    stream = io.StringIO()
    code = main(list(argv), stream=stream)
    assert code == 0, stream.getvalue()
    return stream.getvalue()


class TestParser:
    def test_module_help_from_clean_checkout(self):
        # The acceptance-criterion invocation: `python -m repro select --help`.
        result = subprocess.run(
            [sys.executable, "-m", "repro", "select", "--help"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "--target" in result.stdout
        assert "--num-models" in result.stdout

    @pytest.mark.parametrize("command", ["select", "batch", "experiments"])
    def test_every_subcommand_parses_help(self, command):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command, "--help"])
        assert excinfo.value.code == 0

    def test_missing_command_is_an_error(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([])
        assert excinfo.value.code != 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench"],
            ["select", "--target", "mnli", "--parallel", "thread:2"],
            ["zoo", "build", "--algorithm", "scan"],
        ],
        ids=["bench", "parallel", "algorithm"],
    )
    def test_removed_commands_and_flags_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestSelectCommand:
    def test_select_text_output(self):
        out = run_cli("select", "--target", "mnli", "--top-k", "4", *COMMON)
        assert "selected model" in out
        assert "recalled models" in out

    def test_select_json_output(self):
        out = run_cli("select", "--target", "mnli", "--top-k", "4", "--json", *COMMON)
        payload = json.loads(out)
        assert payload["target"] == "mnli"
        assert payload["recalled_models"]
        assert payload["total_cost"] > 0

    def test_unknown_target_exits_with_error(self):
        stream = io.StringIO()
        code = main(["select", "--target", "nope", *COMMON], stream=stream)
        assert code == 2


class TestBatchCommand:
    def test_batch_default_targets(self):
        out = run_cli("batch", *COMMON)
        assert "totals:" in out

    def test_batch_json(self):
        out = run_cli("batch", "--targets", "mnli", "boolq", "--json", *COMMON)
        payload = json.loads(out)
        assert set(payload["targets"]) == {"mnli", "boolq"}
        assert payload["totals"]["num_tasks"] == 2


class TestZooCommand:
    def test_zoo_add_reports_incremental_update(self):
        out = run_cli("zoo", "add", "--models", "bondi/bert-semaphore-prediction-w4",
                      *COMMON)
        assert "zoo update" in out
        assert "v0-" in out and "v1-" in out
        assert "models       : 8 -> 9" in out

    def test_zoo_add_verify_confirms_equivalence(self):
        out = run_cli("zoo", "add", "--models", "bondi/bert-semaphore-prediction-w4",
                      "--verify", *COMMON)
        assert "bitwise-equal to a from-scratch rebuild" in out

    def test_zoo_remove_json(self):
        out = run_cli("zoo", "remove", "--models", "albert-base-v2", "--json",
                      *COMMON)
        payload = json.loads(out)
        assert payload["removed"] == ["albert-base-v2"]
        assert payload["num_models"] == 7
        assert payload["new_version"].startswith("v1-")

    def test_zoo_refresh_combined(self):
        out = run_cli(
            "zoo", "refresh", "--add", "bondi/bert-semaphore-prediction-w4",
            "--remove", "albert-base-v2", "--json", *COMMON,
        )
        payload = json.loads(out)
        assert payload["added"] and payload["removed"]
        assert payload["num_models"] == 8

    def test_zoo_refresh_without_changes_is_an_error(self):
        stream = io.StringIO()
        code = main(["zoo", "refresh", *COMMON], stream=stream)
        assert code == 2

    def test_zoo_unknown_model_is_friendly_error(self):
        stream = io.StringIO()
        code = main(["zoo", "remove", "--models", "nope", *COMMON], stream=stream)
        assert code == 2

    def test_zoo_build_dense_reports_memory_backing(self):
        out = run_cli("zoo", "build", *COMMON)
        assert "offline build : 8 nlp models" in out
        assert "(memory)" in out

    def test_zoo_build_ooc_spills_to_store(self, tmp_path):
        out = run_cli(
            "zoo", "build", "--ooc", "--max-memory", "16",
            "--store-dir", str(tmp_path / "store"), *COMMON,
        )
        assert "(memmap)" in out
        assert str(tmp_path / "store") in out
        assert "memory budget : 17 MB in flight" in out
        assert list((tmp_path / "store").glob("*.npy"))

    def test_zoo_build_json_matches_dense_and_ooc(self, tmp_path):
        dense = json.loads(run_cli("zoo", "build", "--json", *COMMON))
        spilled = json.loads(run_cli(
            "zoo", "build", "--json", "--ooc",
            "--store-dir", str(tmp_path / "store"), *COMMON,
        ))
        assert dense["similarity_backing"] == "memory"
        assert spilled["similarity_backing"] == "memmap"
        assert "store_path" in spilled and "store_path" not in dense
        # Same offline phase either way.
        assert dense["num_clusters"] == spilled["num_clusters"]
        assert dense["num_models"] == spilled["num_models"] == 8


class TestExperimentsCommand:
    def test_single_experiment_runs(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_EXPERIMENT_SCALE", "small")
        out_file = tmp_path / "report.txt"
        out = run_cli(
            "experiments", "--only", "table3", "--modalities", "cv",
            "--scale", "small", "--out", str(out_file),
        )
        assert "wrote 1 experiment block(s)" in out
        assert "table3" in out_file.read_text()

    def test_experiments_unknown_id_is_friendly_error(self):
        stream = io.StringIO()
        code = main(["experiments", "--only", "fig99", "--scale", "small"],
                    stream=stream)
        assert code == 2


class TestCliErrorPaths:
    """Exit codes and stderr messages of the CLI's failure modes."""

    def test_unknown_modality_exits_2_with_message(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["select", "--target", "mnli", "--modality", "audio"]
            )
        assert excinfo.value.code == 2
        assert "invalid choice: 'audio'" in capsys.readouterr().err

    def test_zoo_remove_nonexistent_model_exits_2(self, capsys):
        stream = io.StringIO()
        code = main(
            ["zoo", "remove", "--models", "no-such/model", *COMMON],
            stream=stream,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "no-such/model" in err

    def test_zoo_refresh_without_changes_exits_2(self, capsys):
        stream = io.StringIO()
        code = main(["zoo", "refresh", *COMMON], stream=stream)
        assert code == 2
        assert "zoo refresh needs" in capsys.readouterr().err

    def test_unknown_target_message_names_known_datasets(self, capsys):
        stream = io.StringIO()
        code = main(["select", "--target", "nope", *COMMON], stream=stream)
        assert code == 2
        assert "unknown target dataset" in capsys.readouterr().err
