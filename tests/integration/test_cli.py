"""Tests for the command-line interface."""

import pytest

from repro.__main__ import main


class TestCLI:
    def test_hierarchy(self, capsys):
        assert main(["hierarchy", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "consensus" in out
        assert "weakest detector" in out

    def test_solve_consensus(self, capsys):
        assert main(["solve", "consensus", "--n", "3", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "outputs" in out
        assert "Omega" in out

    def test_solve_set_agreement(self, capsys):
        assert (
            main(["solve", "set-agreement", "--n", "3", "--k", "2"]) == 0
        )
        out = capsys.readouterr().out
        assert "vecOmega-2" in out

    def test_solve_strong_renaming(self, capsys):
        assert main(["solve", "strong-renaming", "--n", "3"]) == 0

    def test_check_renaming_crossover(self, capsys):
        assert main(["check-renaming", "2"]) == 0
        assert "SOLVABLE" in capsys.readouterr().out
        assert main(["check-renaming", "4"]) == 1
        assert "UNSOLVABLE" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["no-such-command"])


class TestChaosCLI:
    def test_smoke_prefix_runs_clean(self, capsys):
        assert main(["chaos", "run", "--smoke", "--cells", "2"]) == 0
        out = capsys.readouterr().out
        assert "chaos campaign 'smoke'" in out
        assert "verdict: OK" in out

    def test_specimen_shrinks_and_replay_reproduces(self, tmp_path, capsys):
        bundle = tmp_path / "witness.json"
        assert (
            main(
                [
                    "chaos",
                    "run",
                    "--specimen",
                    "--cells",
                    "24",
                    "--bundle",
                    str(bundle),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "safety_violation" in out
        assert "shrunk to" in out
        assert bundle.exists()

        assert main(["chaos", "replay", str(bundle)]) == 0
        assert "REPRODUCED" in capsys.readouterr().out

    def test_replay_rejects_foreign_json(self, tmp_path):
        from repro.errors import ChaosError

        junk = tmp_path / "junk.json"
        junk.write_text('{"format": "not-a-bundle"}')
        with pytest.raises(ChaosError):
            main(["chaos", "replay", str(junk)])

    def test_chaos_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["chaos"])

    def test_malformed_listen_is_a_usage_error(self, capsys):
        argv = ["chaos", "run", "--smoke", "--backend", "fabric"]
        assert main(argv + ["--listen", "nonsense"]) == 2
        err = capsys.readouterr().err
        assert err == "chaos run: expected HOST:PORT, got 'nonsense'\n"

    def test_unbindable_listen_is_a_usage_error(self, capsys):
        # A documentation address (RFC 5737) no local interface holds.
        argv = ["chaos", "run", "--smoke", "--backend", "fabric"]
        assert main(argv + ["--listen", "203.0.113.1:0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("chaos run: fabric cannot bind 203.0.113.1:0")
