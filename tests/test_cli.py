"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import main
from repro.datasets import google_urls


@pytest.fixture
def keyfile(tmp_path):
    path = tmp_path / "keys.txt"
    path.write_bytes(b"\n".join(google_urls(600, seed=4)))
    return str(path)


class TestAnalyze:
    def test_prints_profile_and_frontier(self, keyfile, capsys):
        assert main(["analyze", keyfile]) == 0
        out = capsys.readouterr().out
        assert "per-position entropy" in out
        assert "learned frontier" in out

    def test_limit(self, keyfile, capsys):
        assert main(["analyze", keyfile, "--limit", "100"]) == 0
        assert "100 keys" in capsys.readouterr().out

    def test_fixed_mode(self, keyfile, capsys):
        assert main(["analyze", keyfile, "--fixed"]) == 0

    def test_too_few_keys(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_bytes(b"one\ntwo\n")
        with pytest.raises(SystemExit):
            main(["analyze", str(path)])


class TestTrainAndRecommend:
    def test_train_writes_model(self, keyfile, tmp_path, capsys):
        out = tmp_path / "model.json"
        assert main(["train", keyfile, "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["base"] == "wyhash"
        assert payload["positions"]

    def test_recommend_partial_key(self, keyfile, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["train", keyfile, "--out", str(model_path), "--fixed"])
        assert main([
            "recommend", str(model_path), "--task", "probing",
            "--size", "1000",
        ]) == 0
        out = capsys.readouterr().out
        assert "recommendation: hash" in out

    def test_recommend_falls_back_for_huge_demand(self, keyfile, tmp_path,
                                                  capsys):
        model_path = tmp_path / "model.json"
        main(["train", keyfile, "--out", str(model_path)])
        # Force an absurd requirement via bloom with tiny added FPR.
        assert main([
            "recommend", str(model_path), "--task", "bloom",
            "--size", str(10**12), "--added-fpr", "0.00001",
        ]) == 0
        out = capsys.readouterr().out
        assert "recommendation" in out

    def test_recommend_partitioning_modes(self, keyfile, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        main(["train", keyfile, "--out", str(model_path), "--fixed"])
        for mode in ("absolute", "relative"):
            assert main([
                "recommend", str(model_path), "--task", "partitioning",
                "--size", "100000", "--partitions", "256", "--mode", mode,
            ]) == 0

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestQuality:
    def test_good_hash_passes(self, capsys):
        assert main(["quality", "wyhash"]) == 0
        out = capsys.readouterr().out
        assert "avalanche" in out and "FAIL" not in out

    def test_with_corpus(self, keyfile, capsys):
        assert main(["quality", "xxh3", "--keyfile", keyfile]) == 0
        assert "corpus keys" in capsys.readouterr().out

    def test_unknown_hash(self, capsys):
        assert main(["quality", "nonexistent"]) == 2
        assert "error:" in capsys.readouterr().err


class TestExitCodes:
    """Operational failures exit 2 (bad input) or 1 (failed check),
    never a bare traceback."""

    def test_missing_keyfile(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.txt")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_model(self, tmp_path, capsys):
        assert main([
            "recommend", str(tmp_path / "ghost.json"),
            "--task", "probing", "--size", "100",
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_model(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text("{not json")
        assert main([
            "recommend", str(path), "--task", "probing", "--size", "100",
        ]) == 2
        assert "error:" in capsys.readouterr().err


class TestServe:
    def test_smoke_run_passes_checks(self, capsys):
        assert main([
            "serve", "--shards", "3", "--ops", "600", "--num-keys", "300",
            "--check",
        ]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_force_trip_goes_degraded(self, capsys):
        assert main([
            "serve", "--shards", "3", "--ops", "600", "--num-keys", "300",
            "--check", "--force-trip",
        ]) == 0
        out = capsys.readouterr().out
        assert "degraded" in out

    def test_inject_crash_recovers_with_zero_lost_acks(self, capsys):
        assert main([
            "serve", "--shards", "3", "--ops", "600", "--num-keys", "300",
            "--check", "--inject", "crash:worker:2",
        ]) == 0
        out = capsys.readouterr().out
        assert "faults: 1 fired" in out
        assert "0 lost" in out

    def test_inject_rejects_malformed_spec(self, capsys):
        assert main([
            "serve", "--ops", "100", "--num-keys", "100",
            "--inject", "meteor:worker:0",
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_json_output(self, capsys):
        assert main([
            "serve", "--shards", "2", "--ops", "300", "--num-keys", "200",
            "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["client"]["lost_acks"] == 0
        assert len(payload["stats"]["shards"]) == 2


class TestServeListen:
    """The --listen network path and its exit-code policy."""

    def test_listen_smoke_passes_checks(self, capsys):
        assert main([
            "serve", "--shards", "3", "--ops", "400", "--num-keys", "200",
            "--listen", "127.0.0.1:0", "--connections", "2", "--check",
        ]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "network acks" in out

    def test_listen_json_carries_network_ledger(self, capsys):
        assert main([
            "serve", "--shards", "2", "--ops", "300", "--num-keys", "150",
            "--listen", "127.0.0.1:0", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["network"]["lost_acks"] == 0
        assert payload["network"]["generation_retries"] == 0
        assert payload["network"]["frontdoor"]["frames_in"] > 0
        # Both transports report one ledger vocabulary.
        assert set(payload["client"]) < set(payload["network"])

    def test_malformed_listen_exits_2(self, capsys):
        assert main([
            "serve", "--ops", "100", "--num-keys", "100",
            "--listen", "nonsense",
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_listen_port_out_of_range_exits_2(self, capsys):
        assert main([
            "serve", "--ops", "100", "--num-keys", "100",
            "--listen", "127.0.0.1:99999",
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_listen_port_not_integer_exits_2(self, capsys):
        assert main([
            "serve", "--ops", "100", "--num-keys", "100",
            "--listen", "127.0.0.1:http",
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_connections_without_listen_exits_2(self, capsys):
        assert main([
            "serve", "--ops", "100", "--num-keys", "100",
            "--connections", "4",
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_listen_with_inject_exits_2(self, capsys):
        assert main([
            "serve", "--ops", "100", "--num-keys", "100",
            "--listen", "127.0.0.1:0", "--inject", "crash:worker:0",
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_scan_mix_rejected(self, capsys):
        assert main(["serve", "--mix", "E", "--ops", "100"]) == 2
        assert "error:" in capsys.readouterr().err
