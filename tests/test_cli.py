"""CLI smoke tests (every command, captured output)."""

import pytest

from repro.cli import build_parser, main


class TestTable1Command:
    def test_default_table(self, capsys):
        assert main(["table1", "--sizes", "9", "12", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "3x3" in out and "3x4" in out
        assert "p = 0.95" in out

    def test_custom_p(self, capsys):
        assert main(["table1", "--sizes", "9", "--p", "0.9", "--fast"]) == 0
        assert "p = 0.9" in capsys.readouterr().out

    def test_exact_mode(self, capsys):
        assert main(["table1", "--sizes", "9"]) == 0
        out = capsys.readouterr().out
        assert "1.8291e-07" in out


class TestGridCommand:
    def test_figure1(self, capsys):
        assert main(["grid", "14"]) == 0
        out = capsys.readouterr().out
        assert "4 x 4, b = 2" in out
        assert "read quorum size : 4" in out
        assert "write quorum size: 6" in out

    def test_full_cover(self, capsys):
        assert main(["grid", "3", "--cover", "full"]) == 0
        out = capsys.readouterr().out
        assert "write quorum size: 3" in out

    def test_physical_cover_n3(self, capsys):
        assert main(["grid", "3"]) == 0
        assert "write quorum size: 2" in capsys.readouterr().out


class TestAvailabilityCommand:
    def test_lists_all_protocols(self, capsys):
        assert main(["availability", "--n", "6", "--p", "0.9"]) == 0
        out = capsys.readouterr().out
        for label in ("static grid", "static majority", "ROWA",
                      "dynamic grid (writes)", "dynamic grid (reads)",
                      "dynamic voting", "dynamic-linear"):
            assert label in out


class TestSimulateCommand:
    def test_basic_run(self, capsys):
        assert main(["simulate", "--n", "6", "--horizon", "500",
                     "--mu", "4"]) == 0
        out = capsys.readouterr().out
        assert "availability=" in out
        assert "instantaneous" in out

    def test_finite_check_interval(self, capsys):
        assert main(["simulate", "--n", "6", "--horizon", "500",
                     "--check-interval", "1.0"]) == 0
        assert "every 1" in capsys.readouterr().out

    def test_read_kind(self, capsys):
        assert main(["simulate", "--n", "6", "--horizon", "300",
                     "--kind", "read"]) == 0
        assert "kind = read" in capsys.readouterr().out

    def test_parallel_workers(self, capsys):
        assert main(["simulate", "--n", "6", "--horizon", "600",
                     "--workers", "2"]) == 0
        assert "workers = 2" in capsys.readouterr().out

    @pytest.mark.parametrize("flag,value", [("--lam", "-1"), ("--mu", "-4"),
                                            ("--n", "0")])
    def test_bad_site_model_refused(self, flag, value, capsys):
        """Printed ``availability=1.000000`` for a negative rate."""
        with pytest.raises(ValueError):
            main(["simulate", "--horizon", "100", flag, value])
        assert "availability=" not in capsys.readouterr().out

    def test_sampler_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--n", "6", "--horizon", "300",
                  "--sampler", "compat"])
        assert "unrecognized arguments" in capsys.readouterr().err


class TestDemoCommand:
    def test_full_scenario(self, capsys):
        assert main(["demo", "--n", "9", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "epoch -> #1" in out
        assert "ok=True" in out
        assert "history verified" in out


class TestChaosCommand:
    def test_smoke_all_protocols(self, capsys):
        assert main(["chaos", "--seed", "0", "--ops", "25"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        for protocol, line in zip(("dynamic", "static", "voting"), lines):
            assert line.startswith(f"OK   {protocol} seed=0")

    def test_seed_range_single_protocol(self, capsys):
        assert main(["chaos", "--seeds", "3", "--ops", "15",
                     "--protocol", "static"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split()[2] for line in lines] == [
            "seed=0", "seed=1", "seed=2"]

    def test_canary_exit_zero_means_caught(self, capsys):
        assert main(["chaos", "--canary"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" in out and "stale read" in out

    def test_canary_shrink_and_replay_artifact(self, capsys, tmp_path):
        path = str(tmp_path / "artifact.json")
        assert main(["chaos", "--canary", "--artifact", path]) == 0
        out = capsys.readouterr().out
        assert "shrunk" in out and path in out
        # replaying a violation artifact exits 0 while it still fails
        assert main(["chaos", "--replay", path]) == 0
        assert "FAIL" in capsys.readouterr().out


class TestMetricsCommand:
    def test_table_output(self, capsys):
        assert main(["metrics", "--seed", "0", "--ops", "15"]) == 0
        out = capsys.readouterr().out
        assert "p95" in out and "rpc:" in out
        assert "staleness:" in out and "epoch-check ages" in out

    def test_json_artifact(self, capsys, tmp_path):
        import json

        from repro.obs import validate_summary

        path = str(tmp_path / "metrics.json")
        assert main(["metrics", "--seeds", "2", "--ops", "15",
                     "--json", path]) == 0
        assert path in capsys.readouterr().out
        with open(path) as fh:
            payload = json.load(fh)
        validate_summary(payload["summary"])
        assert payload["snapshot"]["schema"] == "repro-metrics-v1"


class TestParser:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
