"""Observation persistence and the command-line interface."""

import datetime as dt
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crawler.capture import EU_CLOUD, Observation, Vantage
from repro.crawler.platform import CaptureStore
from repro.crawler.storage import (
    STORE_FORMAT,
    STORE_VERSION,
    StorageError,
    dump_observations,
    dumps_observations,
    load_observations,
    load_store,
    loads_observations,
    save_store,
    store_header,
)
from repro.cli import main as cli_main


def make_obs(n=5):
    return [
        Observation(
            domain=f"site{i}.com",
            date=dt.date(2020, 1, 1) + dt.timedelta(days=i),
            cmp_key="quantcast" if i % 2 else None,
            vantage=Vantage("US" if i % 3 else "EU", "cloud"),
        )
        for i in range(n)
    ]


class TestStorage:
    def test_roundtrip_string(self):
        original = make_obs()
        text = dumps_observations(original)
        back = list(loads_observations(text))
        assert back == original

    def test_roundtrip_file(self, tmp_path):
        original = make_obs(20)
        path = tmp_path / "obs.jsonl"
        count = dump_observations(original, path)
        assert count == 20
        assert list(load_observations(path)) == original

    def test_store_roundtrip(self, study, tmp_path):
        store = study.run_social_crawl(
            dt.date(2020, 4, 1), dt.date(2020, 4, 8)
        )
        path = tmp_path / "store.jsonl"
        n = save_store(store, path)
        assert n == store.n_captures
        back = load_store(path)
        assert back.n_captures == store.n_captures
        assert back.by_domain().keys() == store.by_domain().keys()

    def test_blank_lines_skipped(self):
        text = dumps_observations(make_obs(2)) + "\n\n"
        assert len(list(loads_observations(text))) == 2

    def test_invalid_json_raises(self):
        with pytest.raises(StorageError, match="line 1"):
            list(loads_observations("not-json\n"))

    def test_missing_field_raises(self):
        with pytest.raises(StorageError, match="malformed"):
            list(loads_observations('{"domain": "a.com"}\n'))

    def test_vantage_preserved(self):
        original = make_obs(6)
        back = list(loads_observations(dumps_observations(original)))
        assert [o.vantage for o in back] == [o.vantage for o in original]


def synthetic_store(observations, extra_failed_captures=0, total_requests=0):
    """A store whose counters may exceed its observation count (the
    shape produced when failed-capture accounting diverges)."""
    store = CaptureStore(retain_captures=False)
    for obs in observations:
        store.add_observation(obs)
        store.n_captures += 1
    store.n_captures += extra_failed_captures
    store.total_requests = total_requests
    return store


class TestCrashSafety:
    def test_dump_failure_leaves_original_intact(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        dump_observations(make_obs(3), path)
        original = path.read_text()

        def killed_mid_write():
            yield from make_obs(2)
            raise RuntimeError("simulated crash")

        with pytest.raises(RuntimeError, match="simulated crash"):
            dump_observations(killed_mid_write(), path)
        assert path.read_text() == original
        assert list(tmp_path.iterdir()) == [path]  # no temp leftovers

    def test_dump_failure_creates_no_file(self, tmp_path):
        path = tmp_path / "never.jsonl"

        def doomed():
            raise RuntimeError("boom")
            yield  # pragma: no cover

        with pytest.raises(RuntimeError):
            dump_observations(doomed(), path)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_save_store_failure_leaves_original_intact(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "store.jsonl"
        store = synthetic_store(make_obs(4))
        save_store(store, path)
        original = path.read_text()

        import repro.crawler.storage as storage_mod

        calls = {"n": 0}
        real = storage_mod.observation_to_record

        def explode_midway(obs):
            calls["n"] += 1
            if calls["n"] > 2:
                raise RuntimeError("simulated kill -9")
            return real(obs)

        monkeypatch.setattr(
            storage_mod, "observation_to_record", explode_midway
        )
        with pytest.raises(RuntimeError):
            save_store(synthetic_store(make_obs(8)), path)
        assert path.read_text() == original
        assert list(tmp_path.iterdir()) == [path]

    def test_externally_truncated_store_rejected(self, tmp_path):
        path = tmp_path / "store.jsonl"
        save_store(synthetic_store(make_obs(6)), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")  # drop two records
        with pytest.raises(StorageError, match="truncated store"):
            load_store(path)


class TestStoreHeader:
    def test_header_written_first_and_skipped_by_load_observations(
        self, tmp_path
    ):
        path = tmp_path / "store.jsonl"
        original = make_obs(4)
        save_store(synthetic_store(original), path)
        first = json.loads(path.read_text().splitlines()[0])
        assert first["format"] == STORE_FORMAT
        assert first["version"] == STORE_VERSION
        assert list(load_observations(path)) == original

    def test_roundtrip_preserves_failed_capture_accounting(self, tmp_path):
        original = synthetic_store(
            make_obs(5), extra_failed_captures=3, total_requests=41
        )
        path = tmp_path / "store.jsonl"
        assert save_store(original, path) == 5
        back = load_store(path)
        assert back.n_captures == original.n_captures == 8
        assert back.total_requests == 41
        assert back.observations == original.observations
        assert back.by_domain() == original.by_domain()

    def test_live_crawl_roundtrip_exact(self, study, tmp_path):
        store = study.run_social_crawl(
            dt.date(2020, 4, 1), dt.date(2020, 4, 15)
        )
        stats = study.last_crawl_stats
        assert stats.failures > 0  # the window must exercise failures
        path = tmp_path / "store.jsonl"
        save_store(store, path)
        back = load_store(path)
        assert back.n_captures == store.n_captures
        assert back.total_requests == store.total_requests
        assert back.observations == store.observations

    def test_headerless_legacy_file_still_loads(self, tmp_path):
        original = make_obs(7)
        path = tmp_path / "legacy.jsonl"
        path.write_text(dumps_observations(original))
        store = load_store(path)
        assert store.observations == original
        assert store.n_captures == 7  # legacy: one capture per observation
        assert store.total_requests == 0

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "store.jsonl"
        header = {"format": STORE_FORMAT, "version": STORE_VERSION + 1}
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(StorageError, match="unsupported store format"):
            load_store(path)

    @settings(max_examples=25, deadline=None)
    @given(
        n_obs=st.integers(min_value=0, max_value=25),
        extra_failed=st.integers(min_value=0, max_value=10),
        requests=st.integers(min_value=0, max_value=5_000),
    )
    def test_roundtrip_property(self, n_obs, extra_failed, requests):
        store = synthetic_store(
            make_obs(n_obs),
            extra_failed_captures=extra_failed,
            total_requests=requests,
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.jsonl"
            save_store(store, path)
            back = load_store(path)
        assert back.observations == store.observations
        assert back.n_captures == store.n_captures == n_obs + extra_failed
        assert back.total_requests == requests


class TestErrorLabeling:
    def test_invalid_json_error_names_file(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text(dumps_observations(make_obs(1)) + "not-json\n")
        with pytest.raises(StorageError) as excinfo:
            list(load_observations(path))
        message = str(excinfo.value)
        assert "broken.jsonl" in message and "line 2" in message

    def test_malformed_record_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        good = dumps_observations(make_obs(2))
        path.write_text(good + '{"domain": "only-a-domain.com"}\n')
        with pytest.raises(
            StorageError,
            match=re.escape("partial.jsonl") + r".*line 3.*malformed",
        ):
            list(load_observations(path))

    def test_in_memory_sources_labeled_as_stream(self):
        with pytest.raises(StorageError, match="<stream>.*line 1"):
            list(loads_observations("not-json\n"))

    def test_load_store_errors_name_file(self, tmp_path):
        path = tmp_path / "store.jsonl"
        save_store(synthetic_store(make_obs(2)), path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("garbage\n")
        with pytest.raises(StorageError, match="store.jsonl"):
            load_store(path)


class TestCli:
    def test_table1(self, capsys):
        rc = cli_main(
            ["--domains", "2000", "--toplist", "300",
             "table1", "--date", "2020-05-15"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "OneTrust" in out and "Coverage" in out

    def test_figure5(self, capsys):
        rc = cli_main(["--domains", "2000", "figure5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "top" in out and "%" in out

    def test_crawl_then_figure6(self, tmp_path, capsys):
        path = str(tmp_path / "obs.jsonl")
        rc = cli_main(
            ["--domains", "1000", "crawl", "--days", "14",
             "--start", "2020-04-01", "--events-per-day", "120",
             "--out", path]
        )
        assert rc == 0
        assert "observations" in capsys.readouterr().out
        rc = cli_main(["--domains", "1000", "figure6", "--in", path])
        assert rc == 0

    def test_spilling_crawl_leaves_no_spill_dir(
        self, tmp_path, monkeypatch, capsys
    ):
        """A budgeted parallel crawl removes its own spill segments once
        the JSONL is written; the worker dirs go after the merge."""
        spill_root = tmp_path / "tmp"
        spill_root.mkdir()
        monkeypatch.setenv("TMPDIR", str(spill_root))
        monkeypatch.setattr(tempfile, "tempdir", str(spill_root))
        path = tmp_path / "obs.jsonl"
        rc = cli_main(
            ["--domains", "1000", "--workers", "2", "--memory-budget", "300",
             "crawl", "--days", "5", "--start", "2020-04-01",
             "--events-per-day", "200", "--out", str(path)]
        )
        assert rc == 0
        assert "executor:" in capsys.readouterr().out
        assert len(load_store(path).observations) > 300
        assert list(spill_root.iterdir()) == []

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["frobnicate"])

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_nonpositive_workers_is_a_usage_error(self, workers, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--domains", "1000", "--workers", workers, "figure5"])
        assert exc.value.code == 2
        assert "parallelism must be >= 1" in capsys.readouterr().err

    def test_backend_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["--backend=process", "figure5"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
