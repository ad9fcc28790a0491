"""Tests for timing helpers and JSON serialization."""

import time
import tracemalloc

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.utils.serialization import from_json_file, to_json_file, to_json_string
from repro.utils.timing import TimingRecorder


class TestTimingRecorder:
    def test_measure_context(self):
        recorder = TimingRecorder()
        with recorder.measure("phase"):
            time.sleep(0.005)
        assert recorder.total("phase") >= 0.004
        assert recorder.count("phase") == 1

    def test_add_and_mean(self):
        recorder = TimingRecorder()
        recorder.add("x", 1.0)
        recorder.add("x", 3.0)
        assert recorder.mean("x") == pytest.approx(2.0)
        assert recorder.total("x") == pytest.approx(4.0)

    def test_last_returns_most_recent_sample(self):
        recorder = TimingRecorder()
        recorder.add("x", 1.0)
        recorder.add("x", 3.0)
        assert recorder.last("x") == pytest.approx(3.0)

    def test_last_raises_on_unknown_phase(self):
        recorder = TimingRecorder()
        with pytest.raises(KeyError):
            recorder.last("missing")

    def test_unknown_phase_defaults_to_zero(self):
        recorder = TimingRecorder()
        assert recorder.total("missing") == 0.0
        assert recorder.mean("missing") == 0.0
        assert recorder.count("missing") == 0

    def test_summary_structure(self):
        recorder = TimingRecorder()
        recorder.add("a", 1.0)
        recorder.add("b", 2.0)
        summary = recorder.summary()
        assert set(summary) == {"a", "b"}
        assert summary["b"]["total"] == pytest.approx(2.0)

    def test_summary_count_is_int(self):
        recorder = TimingRecorder()
        recorder.add("a", 1.0)
        recorder.add("a", 2.0)
        count = recorder.summary()["a"]["count"]
        assert count == 2
        assert isinstance(count, int)

    def test_memory_stays_constant_over_many_samples(self):
        """A long-lived recorder (one per serving engine) must not grow per sample."""
        recorder = TimingRecorder(registry=MetricsRegistry())
        recorder.add("score", 0.001)  # creates the phase and its histogram
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for _ in range(100_000):
                recorder.add("score", 0.001)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Keeping every sample would cost ~3 MB here (list slot + float).
        assert after - before < 4096
        assert recorder.count("score") == 100_001
        assert recorder.last("score") == 0.001

    def test_measure_records_on_exception(self):
        recorder = TimingRecorder()
        with pytest.raises(RuntimeError):
            with recorder.measure("failing"):
                raise RuntimeError("boom")
        assert recorder.count("failing") == 1


class TestSerialization:
    def test_numpy_scalars(self):
        text = to_json_string({"a": np.int64(3), "b": np.float64(1.5), "c": np.bool_(True)})
        assert '"a": 3' in text
        assert '"b": 1.5' in text

    def test_numpy_array(self):
        text = to_json_string({"v": np.arange(3)})
        assert "[" in text

    def test_set_serialized_sorted(self):
        text = to_json_string({"s": {3, 1, 2}})
        assert "[\n    1,\n    2,\n    3\n  ]" in text or "[1, 2, 3]" in text.replace("\n  ", "").replace("\n", "")

    def test_file_round_trip(self, tmp_path):
        data = {"name": "test", "values": [1, 2, 3], "nested": {"x": 1.5}}
        path = to_json_file(data, tmp_path / "sub" / "data.json")
        assert path.exists()
        assert from_json_file(path) == data

    def test_unserializable_raises(self):
        with pytest.raises(TypeError):
            to_json_string({"f": lambda x: x})
