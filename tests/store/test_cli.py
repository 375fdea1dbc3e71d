"""Tests for the store-facing CLI surface: ``--store``/``--no-store`` on run
commands, the ``repro store`` maintenance subcommands, ``--version``, and the
deterministically sorted registry listings."""

import json
import os

import pytest

from repro.cli import main
from repro.store import DiskStore, STORE_ENV, StoreCounters

SCENARIO_PATH = "examples/scenario_quick.json"


class TestRunWithStore:
    def test_cold_then_warm_run_byte_identical_envelopes(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        cold_json = str(tmp_path / "cold.json")
        warm_json = str(tmp_path / "warm.json")
        assert main(["run", SCENARIO_PATH, "--store", store_dir,
                     "--no-progress", "--json", cold_json]) == 0
        err = capsys.readouterr().err
        assert "store: 0 hits, 4 misses, 4 writes" in err
        assert main(["run", SCENARIO_PATH, "--store", store_dir,
                     "--no-progress", "--json", warm_json]) == 0
        err = capsys.readouterr().err
        assert "store: 4 hits, 0 misses, 0 writes" in err
        with open(cold_json, "rb") as cold, open(warm_json, "rb") as warm:
            assert cold.read() == warm.read()

    def test_env_var_names_the_default_store(self, tmp_path, capsys, monkeypatch):
        store_dir = str(tmp_path / "env-store")
        monkeypatch.setenv(STORE_ENV, store_dir)
        assert main(["run", SCENARIO_PATH, "--no-progress"]) == 0
        assert "4 writes" in capsys.readouterr().err
        assert DiskStore(store_dir).stats()["entries"] == 4

    def test_no_store_overrides_the_env_var(self, tmp_path, capsys, monkeypatch):
        store_dir = str(tmp_path / "env-store")
        monkeypatch.setenv(STORE_ENV, store_dir)
        assert main(["run", SCENARIO_PATH, "--no-store", "--no-progress"]) == 0
        assert "store:" not in capsys.readouterr().err
        assert not os.path.exists(store_dir)

    def test_experiment_subcommand_accepts_store(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        args = ["figure3", "--scale", "fast", "--workload-limit", "1",
                "--store", store_dir]
        assert main(args) == 0
        first = capsys.readouterr()
        assert "misses" in first.err
        assert main(args) == 0
        second = capsys.readouterr()
        # Warm run: same stdout, zero executed (all hits, no writes).
        assert second.out == first.out
        assert "0 misses, 0 writes" in second.err


class TestStoreSubcommands:
    def test_stats(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        DiskStore(store_dir).put("job", "f" * 64, {"x": 1})
        assert main(["store", "stats", "--store", store_dir]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1 and stats["backend"] == "disk"
        # A fresh process's counters are always zero, so none is printed.
        assert not set(stats) & set(StoreCounters().to_dict())

    def test_gc(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        store = DiskStore(store_dir)
        for digit in "abc":
            store.put("job", digit * 64, {"pad": "x" * 40})
        assert main(["store", "gc", "--store", store_dir,
                     "--max-bytes", "1"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["evicted"] == 3 and summary["entries"] == 0

    def test_verify_clean_store(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        DiskStore(store_dir).put("job", "f" * 64, {"x": 1})
        assert main(["store", "verify", "--store", store_dir]) == 0
        assert "0 issue(s)" in capsys.readouterr().out

    def test_verify_fails_on_inconsistency(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        store = DiskStore(store_dir)
        store.put("job", "f" * 64, {"x": 1})
        with open(store.object_path("job", "f" * 64), "wb") as handle:
            handle.write(b"junk")
        assert main(["store", "verify", "--store", store_dir]) != 0
        captured = capsys.readouterr()
        assert "unreadable" in captured.out

    def test_missing_store_dir_is_a_cli_error(self, capsys, monkeypatch):
        monkeypatch.delenv(STORE_ENV, raising=False)
        assert main(["store", "stats"]) == 2
        assert "no store directory" in capsys.readouterr().err

    def test_nonexistent_store_dir_is_a_cli_error(self, tmp_path, capsys):
        # A typo'd path must not be auto-created and reported as a clean,
        # empty store; only run commands create their cache dir on demand.
        missing = str(tmp_path / "no-such-store")
        for subcommand in (["stats"], ["gc"], ["verify"]):
            assert main(["store", *subcommand, "--store", missing]) == 2
            assert "does not exist" in capsys.readouterr().err
            assert not os.path.exists(missing)

    def test_store_ignored_notice_for_non_grid_experiments(
            self, tmp_path, capsys):
        # bench manages its own execution (build_jobs=None): a --store there
        # silently doing nothing would read as "bench results are cached".
        store_dir = str(tmp_path / "store")
        assert main(["bench", "--quick", "--store", store_dir,
                     "--output", str(tmp_path / "bench.json")]) == 0
        err = capsys.readouterr().err
        assert "--store is ignored" in err
        assert not os.path.exists(store_dir)


class TestVersionAndListings:
    def test_version_flag(self, capsys):
        from repro.version import __version__

        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_list_models_is_sorted_with_vector_column(self, capsys):
        assert main(["list-models"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.strip().splitlines()]
        names = [row[0] for row in rows]
        assert names == sorted(names) and len(names) == len(set(names))
        assert {row[1] for row in rows} <= {"kernel", "guarded", "fallback"}

    def test_list_workloads_is_sorted(self, capsys):
        assert main(["list-workloads"]) == 0
        names = capsys.readouterr().out.strip().splitlines()
        assert names == sorted(names) and len(names) == len(set(names))

    def test_list_workloads_category_filter_stays_sorted(self, capsys):
        assert main(["list-workloads", "--category", "application"]) == 0
        names = capsys.readouterr().out.strip().splitlines()
        assert names == sorted(names) and names
