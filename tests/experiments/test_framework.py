"""Tests for the experiment framework (results, spec, registry, CLI)."""

import pytest

from repro.experiments.registry import all_experiments, get_experiment, register
from repro.experiments.results import ResultTable
from repro.experiments.spec import SCALES, ExperimentSpec, pick


class TestResultTable:
    def test_add_and_render(self):
        t = ResultTable("X1", "demo", columns=["a", "b"])
        t.add_row(a=1, b=2)
        t.add_note("a note")
        out = t.render()
        assert "[X1] demo" in out
        assert "* a note" in out
        assert len(t) == 1

    def test_schema_enforced(self):
        t = ResultTable("X1", "demo", columns=["a"])
        with pytest.raises(ValueError):
            t.add_row(a=1, z=9)

    def test_free_schema_when_no_columns(self):
        t = ResultTable("X1", "demo")
        t.add_row(anything=1)
        assert t.rows == [{"anything": 1}]

    def test_column_extraction(self):
        t = ResultTable("X1", "demo")
        t.add_row(a=1)
        t.add_row(a=2, b=5)
        assert t.column("a") == [1, 2]
        assert t.column("b") == [5]

    def test_filtered(self):
        t = ResultTable("X1", "demo")
        t.add_row(kind="x", v=1)
        t.add_row(kind="y", v=2)
        assert t.filtered(kind="y") == [{"kind": "y", "v": 2}]

    def test_to_csv(self, tmp_path):
        t = ResultTable("X1", "demo", columns=["a"])
        t.add_row(a=3)
        path = t.to_csv(tmp_path)
        assert path.name == "x1.csv"
        assert path.read_text() == "a\n3\n"


class TestSpec:
    def test_pick_validates_scale(self):
        with pytest.raises(ValueError):
            pick("huge", tiny=1, small=2, medium=3)

    def test_pick_selects(self):
        assert pick("medium", tiny=1, small=2, medium=3) == 3

    def test_spec_call_validates_scale(self):
        spec = ExperimentSpec(
            experiment_id="X9",
            title="t",
            claim="c",
            reference="r",
            run=lambda scale, seed, runner=None: ResultTable("X9", "t"),
        )
        with pytest.raises(ValueError):
            spec(scale="gigantic")

    def test_spec_call_type_checks_result(self):
        spec = ExperimentSpec(
            experiment_id="X9",
            title="t",
            claim="c",
            reference="r",
            run=lambda scale, seed, runner=None: 42,
        )
        with pytest.raises(TypeError):
            spec(scale="tiny")


class TestRegistry:
    def test_all_experiments_complete(self):
        ids = [s.experiment_id for s in all_experiments()]
        assert ids == [
            "E1",
            "E2",
            "E3",
            "E4",
            "E5",
            "E6",
            "E7",
            "E8",
            "E9",
            "E10",
            "E11",
            "E12",
            "E13",
            "E14",
            "E15",
            "E16",
            "E17",
            "E18",
            "E19",
            "E20",
            "A1",
            "A2",
            "A3",
            "A4",
        ]

    def test_get_case_insensitive(self):
        assert get_experiment("e7").experiment_id == "E7"

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            get_experiment("E99")

    def test_register_conflict_raises(self):
        spec = ExperimentSpec(
            experiment_id="E1",
            title="imposter",
            claim="",
            reference="",
            run=lambda scale, seed, runner=None: ResultTable("E1", "x"),
        )
        with pytest.raises(ValueError):
            register(spec)

    def test_every_spec_has_metadata(self):
        for spec in all_experiments():
            assert spec.title
            assert spec.claim
            assert spec.reference
            assert spec.experiment_id[0] in "EA"


class TestCLI:
    def test_list(self, capsys):
        from repro.experiments.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "A3" in out

    def test_info(self, capsys):
        from repro.experiments.cli import main

        assert main(["info", "E7"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 7" in out

    def test_run_single(self, capsys, tmp_path):
        from repro.experiments.cli import main

        assert main(
            ["run", "A1", "--scale", "tiny", "--csv", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "[A1]" in out
        assert (tmp_path / "a1.csv").exists()

    def test_scale_choice_enforced(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["run", "A1", "--scale", "galactic"])

    def test_run_with_explicit_serial_backend(self, capsys):
        from repro.experiments.cli import main

        assert main(["run", "A1", "--scale", "tiny", "--backend", "serial"]) == 0
        assert "[A1]" in capsys.readouterr().out

    def test_backend_choice_enforced(self):
        from repro.experiments.cli import main

        with pytest.raises(SystemExit):
            main(["run", "A1", "--backend", "warp-drive"])

    def test_worker_serve_parser(self):
        from repro.experiments.cli import build_parser

        args = build_parser().parse_args(
            ["worker", "serve", "--port", "7101"]
        )
        assert args.command == "worker"
        assert args.worker_command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 7101

    def test_worker_serve_port_validated(self):
        from repro.experiments.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker", "serve", "--port", "70000"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker", "serve", "--port", "nope"])

    def test_info_reports_every_knob(self, capsys, tmp_path, monkeypatch):
        from repro.experiments.cli import main
        from repro.settings import KNOBS

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_CAP", "9")
        assert main(["info"]) == 0
        lines = capsys.readouterr().out.splitlines()
        for prefix in (
            "backend: ", "cache dir: ", "cache entries: ",
            "code version: ", "experiments: ",
        ):
            assert any(line.startswith(prefix) for line in lines), prefix
        assert f"cache dir: {tmp_path}" in lines
        rows = {
            line.split()[0]: line.split()
            for line in lines[lines.index("settings:") + 1:]
        }
        assert list(rows) == list(KNOBS)
        for name, knob in KNOBS.items():
            assert rows[name][1] == knob.env
            assert rows[name][-1] in ("(environment)", "(default)")
        assert rows["cache_cap"][2:] == ["9", "(environment)"]
        assert rows["cache_dir"][2:] == [str(tmp_path), "(environment)"]

    def test_info_creates_no_cache_directory(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.experiments.cli import main

        missing = tmp_path / "absent" / "results"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(missing))
        assert main(["info"]) == 0
        assert "cache entries: 0" in capsys.readouterr().out.splitlines()
        assert not (tmp_path / "absent").exists()

    def test_info_rejects_an_invalid_knob(self, capsys, tmp_path, monkeypatch):
        from repro.experiments.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_WORKERS", "0")
        monkeypatch.setenv("REPRO_HEARTBEAT", "soon")
        monkeypatch.setenv("REPRO_BACKEND", "warp")
        assert main(["info"]) == 1
        out = capsys.readouterr().out
        for variable in ("REPRO_WORKERS", "REPRO_HEARTBEAT", "REPRO_BACKEND"):
            assert f"invalid: ${variable}: " in out, variable
        assert "node_workers" in out  # valid rows still print

    def test_closed_stdout_ends_without_a_traceback(self, tmp_path):
        # `repro info | head -1`: the reader is gone before the command
        # writes.  The command exits 1 quietly; with the reader there,
        # the same command exits 0.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = {
            k: v for k, v in os.environ.items() if not k.startswith("REPRO_")
        }
        env["REPRO_CACHE_DIR"] = str(tmp_path)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        command = [sys.executable, "-m", "repro", "info"]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            closed = subprocess.run(
                command, stdout=write_end, stderr=subprocess.PIPE,
                text=True, env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in closed.stderr
        assert "BrokenPipeError" not in closed.stderr
        assert closed.returncode == 1
        served = subprocess.run(
            command, capture_output=True, text=True, env=env, timeout=120
        )
        assert served.returncode == 0
        assert served.stdout.startswith("backend: ")

    def test_thresholds_command(self, capsys):
        from repro.experiments.cli import main

        assert main(["thresholds"]) == 0
        out = capsys.readouterr().out
        assert "routing transition" in out
        assert "0.5" in out

    def test_scales_constant(self):
        assert SCALES == ("tiny", "small", "medium")
