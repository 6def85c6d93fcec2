"""Host calibration of the work model."""

import pytest

from repro.perf.calibrate import calibrate_work_model
from repro.perf.model import WorkModel
from repro.structure.generators import contrived_worst_case


class TestCalibrate:
    def test_returns_sane_model(self):
        model = calibrate_work_model(small=60, large=120, repeat=1)
        assert isinstance(model, WorkModel)
        assert model.seconds_per_cell > 0
        assert model.seconds_per_slice >= 0
        # NumPy on any plausible host: between 0.1 ns and 10 us per cell.
        assert 1e-10 < model.seconds_per_cell < 1e-5

    def test_model_predicts_actual_run(self):
        """The fitted model should predict a third size within ~3x (wall
        clock noise on a busy host is large; the order of magnitude is
        the point)."""
        import time

        from repro.core.srna2 import srna2

        model = calibrate_work_model(small=80, large=160, repeat=2)
        s = contrived_worst_case(120)
        start = time.perf_counter()
        srna2(s, s)
        actual = time.perf_counter() - start
        predicted = model.total_sequential_seconds(s, s)
        assert predicted == pytest.approx(actual, rel=2.0)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            calibrate_work_model(small=200, large=100)
        with pytest.raises(ValueError):
            calibrate_work_model(small=0, large=100)


class TestCalibrationRecord:
    """CALIBRATION.json round trip and the planner's lazy loaders."""

    def _spec(self):
        from repro.mpi.costmodel import ClusterSpec

        return ClusterSpec(
            cores_per_node=2, n_nodes=1, alpha=3e-6, beta=2e-10,
            sync_overhead=9e-6, contention=0.05,
        )

    def test_round_trip(self, tmp_path):
        from repro.perf.calibrate import load_calibration, save_calibration

        path = str(tmp_path / "cal.json")
        written = save_calibration(self._spec(), path=path)
        assert written == path
        assert load_calibration(path) == self._spec()

    def test_work_model_round_trip(self, tmp_path):
        from repro.perf.calibrate import (
            load_calibrated_work_model,
            save_calibration,
        )

        path = str(tmp_path / "cal.json")
        model = WorkModel(seconds_per_cell=2e-8, seconds_per_slice=1e-6)
        save_calibration(self._spec(), model, path=path)
        loaded = load_calibrated_work_model(path)
        assert loaded.seconds_per_cell == pytest.approx(2e-8)
        assert loaded.seconds_per_slice == pytest.approx(1e-6)

    def test_missing_record_loads_as_none(self, tmp_path):
        from repro.perf.calibrate import (
            load_calibrated_work_model,
            load_calibration,
        )

        path = str(tmp_path / "nothing.json")
        assert load_calibration(path) is None
        assert load_calibrated_work_model(path) is None

    def test_malformed_record_loads_as_none(self, tmp_path):
        from repro.perf.calibrate import load_calibration

        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        assert load_calibration(str(path)) is None
        path.write_text('{"cluster": "not a mapping"}')
        assert load_calibration(str(path)) is None
        path.write_text('{"cluster": {"alpha": "fast"}}')
        spec = load_calibration(str(path))
        # Non-numeric fields are dropped; the rest default.
        assert spec is None or spec.alpha > 0

    def test_env_var_overrides_default_path(self, tmp_path, monkeypatch):
        from repro.perf.calibrate import load_calibration, save_calibration

        path = tmp_path / "via-env.json"
        monkeypatch.setenv("REPRO_CALIBRATION", str(path))
        save_calibration(self._spec())  # no explicit path
        assert path.exists()
        assert load_calibration() == self._spec()

    def test_unknown_keys_ignored(self, tmp_path):
        import json

        from repro.perf.calibrate import load_calibration

        path = tmp_path / "extra.json"
        path.write_text(json.dumps(
            {"cluster": {"alpha": 1e-6, "beta": 1e-10, "bogus": 42}}
        ))
        spec = load_calibration(str(path))
        assert spec is not None
        assert spec.alpha == pytest.approx(1e-6)

    def test_old_record_with_retired_fields_loads(self, tmp_path):
        # A record written before the shared-memory reduction path was
        # removed still carries its two fitted constants; it must load
        # with the same communication figures.
        import json

        from repro.perf.calibrate import load_calibration

        path = tmp_path / "old.json"
        path.write_text(json.dumps({
            "cluster": {
                "alpha": 3e-6, "beta": 2e-10, "contention": 0.05,
                "cores_per_node": 2, "n_nodes": 1,
                "shm_beta": 4e-11, "shm_setup": 1.5e-3,
                "sync_overhead": 9e-6,
            },
            "work_model": {
                "seconds_per_cell": 2e-8, "seconds_per_slice": 1e-6,
            },
        }))
        spec = load_calibration(str(path))
        assert spec == self._spec()
        assert (spec.alpha, spec.beta, spec.sync_overhead) == (
            3e-6, 2e-10, 9e-6,
        )
