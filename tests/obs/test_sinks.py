"""Tests for trace sinks and the run manifest."""

import json

import pytest

from repro.obs.events import OBS_SCHEMA_VERSION
from repro.obs.manifest import RunManifest, jsonable
from repro.obs.sink import JsonlSink, MemorySink, NullSink, read_jsonl
from repro.sim.config import SimulationConfig


class TestSinks:
    def test_null_sink_is_inactive(self):
        sink = NullSink()
        assert sink.active is False
        sink.emit({"kind": "x"})  # swallowed, no error

    def test_memory_sink_collects_and_filters(self):
        sink = MemorySink()
        sink.emit({"kind": "a", "v": 1})
        sink.emit({"kind": "b"})
        assert sink.by_kind("a") == [{"kind": "a", "v": 1}]
        sink.close()
        sink.emit({"kind": "late"})
        assert len(sink.records) == 2

    def test_jsonl_sink_writes_one_record_per_line(self, tmp_path):
        path = tmp_path / "sub" / "trace.jsonl"
        with JsonlSink(path) as sink:
            sink.emit({"kind": "a", "v": 1})
            sink.emit({"kind": "b"})
        assert sink.records_written == 2
        assert [r["kind"] for r in read_jsonl(path)] == ["a", "b"]

    def test_jsonl_sink_is_lazy(self, tmp_path):
        path = tmp_path / "never.jsonl"
        sink = JsonlSink(path)
        sink.close()
        assert not path.exists()

    def test_emits_after_close_are_dropped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        sink.emit({"kind": "a"})
        sink.close()
        sink.emit({"kind": "late"})
        assert [r["kind"] for r in read_jsonl(path)] == ["a"]

    def test_read_jsonl_reports_bad_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "ok"}\nnot json\n')
        with pytest.raises(ValueError, match=":2"):
            list(read_jsonl(path))

    def test_jsonl_sink_writes_each_record_in_one_call(self, tmp_path):
        sink = JsonlSink(tmp_path / "trace.jsonl")
        sink.emit({"kind": "a"})  # opens the file
        writes = []
        real_write = sink._file.write
        sink._file.write = lambda text: writes.append(text) or real_write(text)
        sink.emit({"kind": "b", "v": [1, 2]})
        sink.close()
        assert writes == ['{"kind":"b","v":[1,2]}\n']
        assert sink.records_written == 2

    def test_read_jsonl_salvages_a_torn_final_line(self, tmp_path):
        # what a SIGKILLed worker leaves: a record cut mid-write
        path = tmp_path / "torn.jsonl"
        path.write_text('{"kind": "ok"}\n{"kind":"gra')
        assert list(read_jsonl(path)) == [{"kind": "ok"}, {"kind": "truncated"}]

    def test_read_jsonl_accepts_a_complete_line_missing_its_newline(
        self, tmp_path
    ):
        path = tmp_path / "no-newline.jsonl"
        path.write_text('{"kind": "ok"}\n{"kind": "last"}')
        assert [r["kind"] for r in read_jsonl(path)] == ["ok", "last"]


class TestManifest:
    def test_jsonable_handles_the_config_tree(self):
        config = SimulationConfig(algorithm="SPAA", seed=7)
        tree = jsonable(config)
        assert tree["algorithm"] == "SPAA"
        assert tree["seed"] == 7
        # round-trips through real JSON
        assert json.loads(json.dumps(tree)) == tree

    def test_jsonable_fallback_and_collections(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        assert jsonable({1, 3, 2}) == [1, 2, 3]
        assert jsonable((1, "a")) == [1, "a"]
        assert jsonable({"k": Opaque()}) == {"k": "<opaque>"}

    def test_from_config_and_record_round_trip(self):
        config = SimulationConfig(algorithm="WFA-rotary", seed=11)
        manifest = RunManifest.from_config(config, model="timing")
        assert manifest.schema_version == OBS_SCHEMA_VERSION
        assert manifest.algorithm == "WFA-rotary"
        assert manifest.package_version
        record = manifest.to_record()
        assert record["kind"] == "manifest"
        parsed = RunManifest.from_record(json.loads(json.dumps(record)))
        assert parsed.algorithm == manifest.algorithm
        assert parsed.seed == 11
        assert parsed.extra == {"model": "timing"}

    def test_from_record_rejects_other_kinds(self):
        with pytest.raises(ValueError):
            RunManifest.from_record({"kind": "counters"})
