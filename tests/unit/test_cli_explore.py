"""CLI tests for the argparse subcommands, especially `explore`."""

import pytest

from repro.__main__ import _parse_kernel, build_parser, main


class TestParseKernel:
    def test_name_width(self):
        assert _parse_kernel("qcla-32") == ("qcla", 32)

    def test_bare_name_defaults(self):
        assert _parse_kernel("QFT") == ("qft", 32)

    def test_bad_width(self):
        with pytest.raises(ValueError, match="kernel spec"):
            _parse_kernel("qcla-xl")


class TestSubcommands:
    def test_run_subcommand(self, capsys):
        assert main(["run", "table1"]) == 0
        assert "t1q" in capsys.readouterr().out

    def test_bare_key_aliases_run(self, capsys):
        assert main(["table1"]) == 0
        assert "t1q" in capsys.readouterr().out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "tableXX"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "error" in capsys.readouterr().err

    def test_subcommand_help_exits_0(self, capsys):
        assert main(["explore", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--strategy" in out and "--budget" in out

    def test_run_rejects_bad_engine(self, capsys):
        assert main(["run", "fig15", "--engine", "warp"]) == 2
        # There is one dataflow engine: the flag itself is gone.
        assert main(["run", "fig15", "--engine", "legacy"]) == 2

    def test_parser_prog_names_module(self):
        assert build_parser().prog == "python -m repro"


class TestExploreCommand:
    def test_explore_grid(self, tmp_path, capsys):
        code = main(
            [
                "explore", "qrca-8",
                "--strategy", "grid",
                "--budget", "6",
                "--cache-dir", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "best:" in out
        assert "6 new simulations" in out

    def test_explore_warm_cache_and_clear(self, tmp_path, capsys):
        args = [
            "explore", "qrca-8",
            "--strategy", "grid",
            "--budget", "4",
            "--cache-dir", str(tmp_path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "0 new simulations" in capsys.readouterr().out
        assert main(["explore", "--clear-cache", "--cache-dir", str(tmp_path)]) == 0
        assert "cleared 4" in capsys.readouterr().out
        # Store is cold again.
        assert main(args) == 0
        assert "4 new simulations" in capsys.readouterr().out

    def test_explore_no_cache_leaves_no_files(self, tmp_path, capsys):
        code = main(
            [
                "explore", "qrca-8",
                "--budget", "3",
                "--no-cache",
                "--cache-dir", str(tmp_path),
            ]
        )
        assert code == 0
        assert not (tmp_path / "explore").exists()

    def test_explore_requires_kernel(self, capsys):
        assert main(["explore"]) == 2
        assert "kernel" in capsys.readouterr().err

    def test_explore_unknown_kernel(self, tmp_path, capsys):
        assert main(
            ["explore", "warp-8", "--cache-dir", str(tmp_path)]
        ) == 2
        assert "error" in capsys.readouterr().err

    def test_explore_bad_budget_is_clean_error(self, tmp_path, capsys):
        code = main(
            [
                "explore", "qrca-8",
                "--budget", "0",
                "--cache-dir", str(tmp_path),
            ]
        )
        assert code == 2
        assert "budget" in capsys.readouterr().err

    def test_explore_infeasible_constraints_reported(self, tmp_path, capsys):
        code = main(
            [
                "explore", "qrca-8",
                "--budget", "3",
                "--max-latency-ms", "1e-9",
                "--cache-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "no feasible point found" in out
        assert "best:" not in out

    def test_explore_objective_and_constraints(self, tmp_path, capsys):
        code = main(
            [
                "explore", "qrca-8",
                "--objective", "latency",
                "--max-area", "1e9",
                "--strategy", "random",
                "--seed", "5",
                "--budget", "4",
                "--cache-dir", str(tmp_path),
            ]
        )
        assert code == 0
        assert "latency[area<=1e+09]" in capsys.readouterr().out

    def test_explore_pi8_error_constraint(self, tmp_path, capsys):
        code = main(
            [
                "explore", "qrca-8",
                "--budget", "3",
                "--max-pi8-error", "0.9",
                "--mc-trials", "2000",
                "--cache-dir", str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "adcr[pi8err<=0.9]" in out
        assert "best:" in out  # a loose quality gate stays feasible

    def test_explore_code_level_grid(self, tmp_path, capsys):
        """--code-level 1 2 sweeps the concatenation axis through the
        spec-mode evaluator (level-2 points re-characterize the kernel)."""
        code = main(
            [
                "explore", "qrca-8",
                "--code-level", "1", "2",
                "--strategy", "grid",
                "--budget", "6",
                "--cache-dir", str(tmp_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "best:" in out
        # The grid interleaves both levels: 3 areas x 2 levels.
        assert "6 new simulations" in out
        # Level-1 points canonicalize identically to unannotated points,
        # so a plain (no --code-level) run is served from the store...
        assert main(
            [
                "explore", "qrca-8",
                "--strategy", "grid",
                "--budget", "3",
                "--cache-dir", str(tmp_path),
            ]
        ) == 0
        assert "0 new simulations" in capsys.readouterr().out
        # ...while the level-2 half of the grid was genuinely distinct
        # (6 unique evaluations landed in the store, not 3).
        from repro.explore import ResultStore

        assert ResultStore(str(tmp_path)).clear() == 6

    def test_explore_code_level_invalid(self, tmp_path, capsys):
        code = main(
            [
                "explore", "qrca-8",
                "--code-level", "0",
                "--cache-dir", str(tmp_path),
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_explore_ancilla_quality_objective(self, tmp_path, capsys):
        code = main(
            [
                "explore", "qrca-8",
                "--objective", "ancilla_quality",
                "--budget", "2",
                "--mc-trials", "2000",
                "--cache-dir", str(tmp_path),
            ]
        )
        assert code == 0
        assert "objective ancilla_quality" in capsys.readouterr().out
