"""Tests for the persistent run store (repro.obs.store)."""

import json

import pytest

from repro.core.sweep import ParameterSweep
from repro.core.testbench import TestbenchConfig
from repro import obs
from repro.obs.store import RunStore, contribute


def _write_run(store, kind="demo", name="demo", ber=1e-3):
    writer = store.create(kind=kind, name=name, seed=7,
                          config={"n": 3}, command="pytest")
    writer.add_kpis({"ber": ber, "per": 10 * ber})
    writer.add_table("summary", "a | b\n1 | 2")
    writer.add_curve("ber", "snr_db", [0.0, 5.0, 10.0],
                     [0.1, ber, ber / 10])
    return writer.finalize(tracer=None, registry=None)


class TestRoundTrip:
    def test_store_and_load(self, tmp_path):
        store = RunStore(tmp_path)
        record = _write_run(store)
        loaded = store.load_run(record.run_id)
        assert loaded.run_id == record.run_id
        assert loaded.kpis == {"ber": 1e-3, "per": 1e-2}
        assert loaded.tables["summary"] == "a | b\n1 | 2"
        assert loaded.curves["ber"]["x"] == [0.0, 5.0, 10.0]
        assert loaded.manifest["seed"] == 7
        assert loaded.integrity_ok

    def test_run_id_is_content_addressed(self, tmp_path):
        a = _write_run(RunStore(tmp_path / "a"))
        b = _write_run(RunStore(tmp_path / "b"))
        c = _write_run(RunStore(tmp_path / "c"), ber=2e-3)
        assert a.run_id == b.run_id  # same content, same id
        assert a.run_id != c.run_id
        assert a.run_id.startswith("demo-")

    def test_tamper_breaks_integrity(self, tmp_path):
        store = RunStore(tmp_path)
        record = _write_run(store)
        kpis_path = record.path / "kpis.json"
        kpis = json.loads(kpis_path.read_text())
        kpis["ber"] = 0.5
        kpis_path.write_text(json.dumps(kpis))
        assert not store.load_run(record.run_id).integrity_ok

    def test_finalize_is_idempotent(self, tmp_path):
        store = RunStore(tmp_path)
        writer = store.create(kind="demo", name="x")
        writer.add_kpis({"v": 1.0})
        first = writer.finalize(tracer=None, registry=None)
        second = writer.finalize(tracer=None, registry=None)
        assert first is second
        assert len(store.list_runs()) == 1

    def test_duplicate_names_dedupe(self, tmp_path):
        writer = RunStore(tmp_path).create(kind="demo", name="x")
        assert writer.add_table("t", "one") == "t"
        assert writer.add_table("t", "two") == "t-2"
        assert writer.add_curve("c", "x", [1.0], [0.1]) == "c"
        assert writer.add_curve("c", "x", [1.0], [0.2]) == "c-2"


class TestResolve:
    def test_latest_and_prefix(self, tmp_path):
        store = RunStore(tmp_path)
        first = _write_run(store, ber=1e-3)
        second = _write_run(store, ber=2e-3)
        assert store.resolve("latest") == second.run_id
        assert store.resolve(first.run_id[:9]) == first.run_id
        assert store.latest().run_id == second.run_id

    def test_unknown_token_raises(self, tmp_path):
        store = RunStore(tmp_path)
        _write_run(store)
        with pytest.raises(KeyError):
            store.resolve("zzz-doesnotexist")

    def test_list_filters_by_kind(self, tmp_path):
        store = RunStore(tmp_path)
        _write_run(store, kind="sweep")
        _write_run(store, kind="bench", ber=5e-3)
        assert [e.kind for e in store.list_runs(kind="bench")] == ["bench"]
        assert len(store.list_runs()) == 2


class TestGc:
    def test_keeps_newest(self, tmp_path):
        store = RunStore(tmp_path)
        old = _write_run(store, ber=1e-3)
        new = _write_run(store, ber=2e-3)
        removed = store.gc(keep=1)
        assert removed == [old.run_id]
        assert [e.run_id for e in store.list_runs()] == [new.run_id]
        assert not old.path.exists()

    def test_dry_run_removes_nothing(self, tmp_path):
        store = RunStore(tmp_path)
        old = _write_run(store, ber=1e-3)
        _write_run(store, ber=2e-3)
        removed = store.gc(keep=1, dry_run=True)
        assert removed == [old.run_id]
        assert len(store.list_runs()) == 2
        assert old.path.exists()

    def test_leaves_foreign_files_alone(self, tmp_path):
        store = RunStore(tmp_path)
        _write_run(store)
        foreign = tmp_path / "notes.txt"
        foreign.write_text("keep me")
        store.gc(keep=0)
        assert foreign.exists()
        assert store.list_runs() == []


class TestContribute:
    def test_explicit_store_gets_own_run(self, tmp_path):
        store = RunStore(tmp_path)
        record = contribute(store, kind="sweep", name="s", seed=1,
                            kpis={"ber": 0.1})
        assert record is not None
        assert store.load_run(record.run_id).kpis == {"ber": 0.1}

    def test_ambient_writer_collects_prefixed_kpis(self, tmp_path):
        store = RunStore(tmp_path)
        writer = store.create(kind="cli", name="session")
        with obs.telemetry_scope(writer=writer):
            result = contribute(None, kind="sweep", name="s",
                                kpis={"ber": 0.1},
                                tables={"s": "tbl"})
        assert result is None  # ambient contribution does not finalize
        assert writer.kpis == {"s.ber": 0.1}
        assert writer.tables == {"s": "tbl"}
        assert obs.telemetry().writer is None

    def test_no_store_no_ambient_is_a_noop(self):
        assert contribute(None, kind="sweep", name="s",
                          kpis={"ber": 0.1}) is None


class TestSweepIntegration:
    def test_sweep_persists_curve_and_kpis(self, tmp_path):
        store = RunStore(tmp_path)
        sweep = ParameterSweep(
            TestbenchConfig(rate_mbps=24, psdu_bytes=40, snr_db=30.0),
            "snr_db", [25.0, 30.0], n_packets=1,
        )
        result = sweep.run(store=store, run_name="mini")
        record = store.latest()
        assert record.manifest["seed"] == 0
        assert record.curves["mini"]["x"] == [25.0, 30.0]
        assert record.kpis["ber_min"] == min(p.measurement.ber
                                             for p in result.points)
        assert "mini" in record.tables
        assert record.integrity_ok
