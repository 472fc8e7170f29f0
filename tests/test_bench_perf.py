"""Tests for the perf regression suite (repro.bench.perf)."""

import copy
import json

import pytest

from repro.bench import perf


@pytest.fixture(scope="module")
def smoke_payload():
    """One smoke-scale suite run shared by the structural tests (the run
    itself asserts sequential/batched parity internally)."""
    return perf.run_suite("smoke")


class TestRunSuite:
    def test_structure(self, smoke_payload):
        p = smoke_payload
        assert p["suite"] == "repro-perf"
        assert p["scale"] == "smoke"
        assert {row.name for row in perf.ROWS} <= set(p["benchmarks"])
        prm = p["benchmarks"]["prm_build_default_path"]
        assert prm["stats_equal"] and prm["counters_equal"] and prm["edges_equal"]
        assert prm["speedup"] > 0

    def test_payload_is_json_round_trippable(self, smoke_payload):
        assert json.loads(json.dumps(smoke_payload)) == smoke_payload

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            perf.run_suite("galactic")


class TestValidate:
    def test_accepts_suite_output(self, smoke_payload):
        assert perf.validate(smoke_payload) == []

    def test_rejects_non_object(self):
        assert perf.validate([1, 2]) != []
        assert perf.validate(None) != []

    def test_rejects_wrong_suite_marker(self, smoke_payload):
        bad = copy.deepcopy(smoke_payload)
        bad["suite"] = "other"
        assert any("suite" in p for p in perf.validate(bad))

    def test_rejects_missing_benchmark(self, smoke_payload):
        bad = copy.deepcopy(smoke_payload)
        del bad["benchmarks"]["knn"]
        assert any("knn" in p for p in perf.validate(bad))

    def test_rejects_missing_field(self, smoke_payload):
        bad = copy.deepcopy(smoke_payload)
        del bad["benchmarks"]["prm_build_default_path"]["speedup"]
        assert any("speedup" in p for p in perf.validate(bad))

    def test_rejects_parity_failure(self, smoke_payload):
        bad = copy.deepcopy(smoke_payload)
        bad["benchmarks"]["prm_build_default_path"]["stats_equal"] = False
        assert any("stats_equal" in p for p in perf.validate(bad))

    def test_rejects_query_parity_failure(self, smoke_payload):
        bad = copy.deepcopy(smoke_payload)
        bad["benchmarks"]["query_batch"]["paths_equal"] = False
        assert any("paths_equal" in p for p in perf.validate(bad))

    def test_rejects_knn_parity_failure(self, smoke_payload):
        bad = copy.deepcopy(smoke_payload)
        bad["benchmarks"]["knn_scaling"]["neighbors_equal"] = False
        assert any("neighbors_equal" in p for p in perf.validate(bad))

    def test_rejects_nonpositive_timing(self, smoke_payload):
        bad = copy.deepcopy(smoke_payload)
        bad["benchmarks"]["knn"]["before_s"] = 0
        assert any("before_s" in p for p in perf.validate(bad))


class TestCheckCli:
    def test_check_ok(self, smoke_payload, tmp_path, capsys):
        f = tmp_path / "bench.json"
        f.write_text(json.dumps(smoke_payload))
        assert perf.main(["--check", str(f)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_check_missing_file(self, tmp_path):
        assert perf.main(["--check", str(tmp_path / "absent.json")]) == 2

    def test_check_malformed_json(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        assert perf.main(["--check", str(f)]) == 2

    def test_check_invalid_payload(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"suite": "other"}))
        assert perf.main(["--check", str(f)]) == 1

    def test_checked_in_baseline_validates(self):
        import pathlib

        baseline = pathlib.Path(__file__).resolve().parent.parent / "BENCH_perf.json"
        payload = json.loads(baseline.read_text())
        assert perf.validate(payload) == []
        assert payload["benchmarks"]["prm_build_default_path"]["speedup"] >= 2.0
        assert payload["benchmarks"]["query_batch"]["speedup"] >= 5.0
        assert payload["benchmarks"]["knn_scaling"]["speedup"] > 1.0
        # perf and serve write through one merge, so neither drops the
        # other's rows from the shared file.
        assert {"serve_throughput", "serve_latency"} <= set(payload["benchmarks"])

    def test_write_merged_keeps_rows_it_does_not_produce(self, tmp_path):
        f = tmp_path / "bench.json"
        f.write_text(json.dumps({
            "suite": "repro-perf", "scale": "medium", "serve_scale": "medium",
            "benchmarks": {"serve_latency": {"x": 1}, "knn": {"speedup": 1.0}},
        }))
        perf.write_merged(str(f), "smoke", {"knn": {"speedup": 2.0}}, {"scale": "smoke"})
        payload = json.loads(f.read_text())
        assert payload["scale"] == "smoke" and payload["serve_scale"] == "medium"
        assert payload["benchmarks"] == {"serve_latency": {"x": 1}, "knn": {"speedup": 2.0}}

    def test_write_merged_starts_fresh_payload(self, tmp_path):
        f = tmp_path / "absent.json"
        perf.write_merged(str(f), "smoke", {"knn": {"speedup": 2.0}}, {})
        assert json.loads(f.read_text()) == {
            "suite": "repro-perf", "scale": "smoke", "benchmarks": {"knn": {"speedup": 2.0}},
        }


# -- validate() pinned against the checked-in baseline -----------------------
#
# Every gate ``perf --check`` enforces, stated once here as data: flipping a
# parity flag, dropping a row or a required field, zeroing a timing, or
# nudging a floor just past its threshold must each produce a problem that
# names the row.  The table is independent of how perf.py declares its
# rows, so it pins the gates across refactors of the suite.

#: (row, flag) parity flags whose ``false`` value is a problem.
_PIN_PARITY = [
    *[(row, f) for row in ("prm_build_default_path", "rrt_build_default_path",
                           "rrt_radial_workload", "prm_build_bvh")
      for f in ("stats_equal", "counters_equal", "edges_equal")],
    ("query_single", "paths_equal"),
    ("query_batch", "paths_equal"),
    ("knn_scaling", "neighbors_equal"),
    ("kernel_collision", "verdicts_equal_stable"),
    ("kernel_knn", "dists_close"),
    ("kernel_knn", "ids_equal_tiefree"),
    ("kernel_local_plan", "checks_equal"),
    ("kernel_local_plan", "verdicts_equal_stable"),
    ("prm_build_fast32", "success_equal"),
    ("prm_build_fast32", "lengths_close"),
    ("bvh_collision_scaling", "verdicts_equal"),
    ("rrt_nn_scaling", "neighbors_equal"),
    ("rrt_build_incnn", "edges_equal"),
    ("rrt_build_incnn", "parents_equal"),
    ("rrt_build_incnn", "counters_equal"),
    ("rrt_build_incnn", "stats_equal_core"),
    ("pool_dispatch_overhead", "results_equal"),
    ("prm_build_process_shm", "edges_equal"),
    ("prm_build_process_shm", "stats_equal"),
    ("prm_build_process_shm", "counters_equal"),
    ("query_batch_process_shm", "paths_equal"),
]

#: (sweep row, per-size flag, per-size timing fields).
_PIN_SWEEPS = [
    ("bvh_collision_scaling", "verdicts_equal", ("before_s", "after_s", "speedup", "build_s")),
    ("rrt_nn_scaling", "neighbors_equal", ("before_s", "after_s", "speedup")),
]

_TIMED = ("before_s", "after_s", "speedup")

#: row -> fields whose absence is a problem.
_PIN_REQUIRED = {
    "prm_build_default_path": _TIMED + ("stats_equal", "counters_equal"),
    "rrt_build_default_path": _TIMED + ("stats_equal", "counters_equal"),
    "rrt_radial_workload": _TIMED + ("stats_equal", "counters_equal"),
    "batch_local_plan": _TIMED,
    "knn": _TIMED,
    "query_single": _TIMED + ("paths_equal",),
    "query_batch": _TIMED + ("paths_equal",),
    "knn_scaling": _TIMED + ("neighbors_equal",),
    "pool_scaling": ("wall_s_by_workers", "speedup_4w", "cpu_count"),
    "kernel_collision": _TIMED + ("verdicts_equal_stable",),
    "kernel_knn": _TIMED + ("dists_close", "ids_equal_tiefree"),
    "kernel_local_plan": _TIMED + ("checks_equal", "verdicts_equal_stable"),
    "prm_build_fast32": _TIMED + ("success_equal", "lengths_close"),
    "bvh_collision_scaling": ("sizes", "rows", "verdicts_equal"),
    "prm_build_bvh": _TIMED + ("stats_equal", "counters_equal", "edges_equal"),
    "rrt_nn_scaling": ("sizes", "rows", "neighbors_equal"),
    "rrt_build_incnn": _TIMED + ("edges_equal", "parents_equal", "counters_equal",
                                 "stats_equal_core", "nn_phase_speedup"),
    "pool_dispatch_overhead": ("wall_s_by_policy", "best_fixed_s", "guided_s",
                               "guided_vs_best_fixed", "results_equal"),
    "prm_build_process_shm": _TIMED + ("edges_equal", "stats_equal", "counters_equal",
                                       "n_obstacles"),
    "query_batch_process_shm": _TIMED + ("paths_equal",),
}

#: (row, path to the gated value, just-failing value, just-passing value).
_PIN_FLOORS = [
    ("kernel_collision", ("speedup",), 1.79, 1.8),
    ("kernel_knn", ("speedup",), 1.79, 1.8),
    ("bvh_collision_scaling", ("rows", "10000", "speedup"), 4.99, 5.0),
    ("rrt_nn_scaling", ("rows", "20000", "speedup"), 1.99, 2.0),
    ("rrt_build_incnn", ("nn_phase_speedup",), 1.99, 2.0),
    ("rrt_build_incnn", ("nn_phase_points",), 19999, 20000),
    ("prm_build_process_shm", ("speedup",), 1.49, 1.5),
    ("prm_build_process_shm", ("n_obstacles",), 9999, 10000),
    ("pool_dispatch_overhead", ("guided_vs_best_fixed",), 1.0, 1.0001),
]


@pytest.fixture(scope="module")
def baseline_payload():
    import pathlib

    path = pathlib.Path(__file__).resolve().parent.parent / "BENCH_perf.json"
    return json.loads(path.read_text())


def _set(payload, row, path, value):
    node = payload["benchmarks"][row]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _problems_naming(payload, *needles):
    return [p for p in perf.validate(payload) if all(n in p for n in needles)]


class TestValidatePinned:
    def test_baseline_is_clean_at_both_scales(self, baseline_payload):
        assert perf.validate(baseline_payload) == []
        smoke = copy.deepcopy(baseline_payload)
        smoke["scale"] = "smoke"
        assert perf.validate(smoke) == []

    @pytest.mark.parametrize("row,flag", _PIN_PARITY)
    def test_false_parity_flag_named(self, baseline_payload, row, flag):
        bad = copy.deepcopy(baseline_payload)
        bad["benchmarks"][row][flag] = False
        assert _problems_naming(bad, row, flag)

    @pytest.mark.parametrize("row,flag,timings", _PIN_SWEEPS)
    def test_sweep_rows_gated_per_size(self, baseline_payload, row, flag, timings):
        for size in baseline_payload["benchmarks"][row]["rows"]:
            bad = copy.deepcopy(baseline_payload)
            bad["benchmarks"][row]["rows"][size][flag] = False
            assert _problems_naming(bad, row, size, flag)
            for f in timings:
                bad = copy.deepcopy(baseline_payload)
                bad["benchmarks"][row]["rows"][size][f] = 0
                assert _problems_naming(bad, row, size, f)

    @pytest.mark.parametrize("row", sorted(_PIN_REQUIRED))
    def test_missing_row_field_and_timing(self, baseline_payload, row):
        bad = copy.deepcopy(baseline_payload)
        del bad["benchmarks"][row]
        assert _problems_naming(bad, row)
        for f in _PIN_REQUIRED[row]:
            bad = copy.deepcopy(baseline_payload)
            del bad["benchmarks"][row][f]
            assert _problems_naming(bad, row, f)
        for f in _TIMED:
            if f in baseline_payload["benchmarks"][row]:
                bad = copy.deepcopy(baseline_payload)
                bad["benchmarks"][row][f] = 0
                assert _problems_naming(bad, row, f)
        bad = copy.deepcopy(baseline_payload)
        del bad["benchmarks"][row]["meta"]
        assert _problems_naming(bad, row, "meta")

    @pytest.mark.parametrize("row,path,failing,passing", _PIN_FLOORS)
    def test_floor_applies_at_medium_only(self, baseline_payload, row, path, failing, passing):
        bad = copy.deepcopy(baseline_payload)
        _set(bad, row, path, failing)
        assert _problems_naming(bad, row)
        bad["scale"] = "smoke"
        assert perf.validate(bad) == []
        ok = copy.deepcopy(baseline_payload)
        _set(ok, row, path, passing)
        assert perf.validate(ok) == []

    @pytest.mark.parametrize("row,size", [("bvh_collision_scaling", "10000"),
                                          ("rrt_nn_scaling", "20000")])
    def test_floor_size_row_required_at_medium(self, baseline_payload, row, size):
        bad = copy.deepcopy(baseline_payload)
        del bad["benchmarks"][row]["rows"][size]
        assert _problems_naming(bad, row, size)
        bad["scale"] = "smoke"
        assert perf.validate(bad) == []
