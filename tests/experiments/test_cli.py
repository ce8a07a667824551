"""Tests for the command-line interface."""

import pathlib

import pytest

from repro.cli import _cluster_spec, build_parser, main


class TestArgumentParsing:
    def test_cluster_spec_parsing(self):
        spec = _cluster_spec("4x8:2")
        assert (spec.racks, spec.nodes_per_rack, spec.gpu_racks) == (4, 8, 2)
        spec = _cluster_spec("8x8")
        assert spec.gpu_racks == 0

    def test_bad_cluster_spec(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            _cluster_spec("banana")

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--scheduler", "Nope"])

    def test_every_backend_flag_shares_one_default(self):
        import argparse
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        defaults = {
            name: p.get_default("backend") for name, p in sub.choices.items()
            if any("--backend" in a.option_strings for a in p._actions)}
        assert set(defaults) == {"run", "solve", "profile", "serve"}
        assert set(defaults.values()) == {"auto"}, defaults


class TestRunCommand:
    def test_run_prints_metrics(self, capsys):
        rc = main(["run", "--scheduler", "TetriSched", "--workload",
                   "GR MIX", "--jobs", "8", "--cluster", "2x4",
                   "--plan-ahead", "40"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "SLO total" in out
        assert "jobs: 8 total" in out

    def test_run_with_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        rc = main(["run", "--jobs", "6", "--cluster", "2x3",
                   "--plan-ahead", "40", "--trace", str(trace_path)])
        assert rc == 0
        assert trace_path.exists()
        assert '"kind"' in trace_path.read_text()
        out = capsys.readouterr().out
        assert "Cluster utilization" in out
        assert "busy nodes (%)" in out

    def test_run_cs_stack(self, capsys):
        rc = main(["run", "--scheduler", "Rayon/CS", "--jobs", "6",
                   "--cluster", "2x3"])
        assert rc == 0
        assert "Rayon/CS" in capsys.readouterr().out


class TestWorkloadCommand:
    def test_workload_saved(self, tmp_path, capsys):
        out = tmp_path / "wl.json"
        rc = main(["workload", "--composition", "GS HET", "--cluster",
                   "2x4:1", "--jobs", "10", "--out", str(out)])
        assert rc == 0
        assert "wrote 10 jobs" in capsys.readouterr().out
        from repro.workloads.serialization import load_workload_file
        assert len(load_workload_file(out)) == 10


class TestSolveCommand:
    STRL = ("(max (nCk (set r0n0 r0n1) :k 2 :start 0 :dur 2 :v 4)\n"
            "     (nCk (set r0n0 r0n1 r1n0 r1n1) :k 2 :start 0 :dur 3 :v 3))")

    def test_solve_prints_placement(self, tmp_path, capsys):
        f = tmp_path / "req.strl"
        f.write_text(self.STRL)
        rc = main(["solve", str(f), "--cluster", "2x2:1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "objective: 4.000" in out
        assert "placement" in out

    def test_solve_unknown_nodes(self, tmp_path, capsys):
        f = tmp_path / "req.strl"
        f.write_text("(nCk (set mars) :k 1 :start 0 :dur 1 :v 1)")
        rc = main(["solve", str(f), "--cluster", "1x2"])
        assert rc == 2
        assert "unknown nodes" in capsys.readouterr().err


class TestProfileCommand:
    # The default backend (HiGHS when scipy is installed) declares that it
    # ignores warm starts, so none is built and no hit rate is reported;
    # the pure backend takes them.
    @pytest.mark.parametrize("backend_args", [[], ["--backend", "pure"]],
                             ids=["default", "pure"])
    def test_profile_emits_schema_valid_jsonl_and_summary(
            self, tmp_path, capsys, backend_args):
        out = tmp_path / "profile.jsonl"
        rc = main(["profile", "--workload", "GS HET", "--cluster", "2x4:1",
                   "--jobs", "8", "--plan-ahead", "40", "--out", str(out),
                   *backend_args])
        assert rc == 0
        # Every emitted event must satisfy the envelope schema.
        from repro.obs import iter_kinds, read_jsonl_file
        records = read_jsonl_file(out)  # validates each record
        kinds = iter_kinds(records)
        assert kinds.get("sim.cycle", 0) > 0
        assert kinds.get("solver.solve", 0) > 0
        # Summary table: solver work counters + phase timings + hit rate.
        text = capsys.readouterr().out
        assert f"events -> {out}" in text
        # Schedules depend on the HiGHS build, so the run names it.
        assert "[HiGHS " in text and "direct hand-over: " in text
        assert "MILP solves" in text
        assert "Phase timings" in text
        assert "cycle/solve" in text
        if backend_args:
            assert "warm-start hit rate" in text

    def test_profile_leaves_observability_disabled(self, tmp_path):
        from repro.obs import get_registry
        main(["profile", "--workload", "GS HET", "--cluster", "1x4",
              "--jobs", "4", "--plan-ahead", "40",
              "--out", str(tmp_path / "p.jsonl")])
        assert get_registry().enabled is False


class TestFiguresCommand:
    def test_tables_only(self, tmp_path, capsys):
        rc = main(["figures", "table1", "table2", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "table1.txt").exists()
        assert (tmp_path / "table2.txt").exists()

    def test_unknown_id(self, capsys):
        rc = main(["figures", "fig99"])
        assert rc == 2
        assert "unknown ids" in capsys.readouterr().err
