"""Benchmark results schema (bench/results.py)."""

import json

import pytest

from repro.bench.results import SCHEMA, BenchResult, ResultSet, config_hash


def result(benchmark="latency", metric="one_way_1hop_ns", value=162.0,
           units="ns", better="lower", **config):
    return BenchResult(benchmark=benchmark, metric=metric, value=value,
                       units=units, better=better, config=config)


class TestBenchResult:
    def test_key_is_benchmark_metric_confighash(self):
        r = result(shape=[4, 4, 4], hops=1)
        assert r.key == ("latency", "one_way_1hop_ns", r.config_hash)
        assert len(r.config_hash) == 12

    def test_config_hash_is_order_insensitive_and_value_free(self):
        a = config_hash({"shape": [4, 4, 4], "hops": 1})
        b = config_hash({"hops": 1, "shape": [4, 4, 4]})
        assert a == b
        assert a != config_hash({"shape": [4, 4, 4], "hops": 2})

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(better="sideways"), "better must be one of"),
            (dict(value=float("nan")), "finite"),
            (dict(value=float("inf")), "finite"),
            (dict(metric=""), "non-empty"),
            (dict(units=""), "non-empty"),
        ],
    )
    def test_validation_errors(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            result(**kwargs)

    def test_round_trip(self):
        r = result(shape=[2, 2, 2], payload_bytes=256)
        again = BenchResult.from_dict(r.to_dict())
        assert again == r
        assert again.key == r.key

    def test_from_dict_rejects_missing_fields(self):
        doc = result().to_dict()
        del doc["units"]
        with pytest.raises(ValueError, match="missing fields"):
            BenchResult.from_dict(doc)

    def test_from_dict_rejects_inconsistent_stored_hash(self):
        doc = result(shape=[4, 4, 4]).to_dict()
        doc["config"]["shape"] = [8, 8, 8]  # edited without re-hashing
        with pytest.raises(ValueError, match="config_hash"):
            BenchResult.from_dict(doc)


class TestResultSet:
    def test_duplicate_key_rejected(self):
        rs = ResultSet([result(value=162.0)])
        with pytest.raises(ValueError, match="duplicate"):
            rs.add(result(value=999.0))  # same key, value ignored by identity

    def test_iteration_is_key_sorted(self):
        rs = ResultSet([result(metric="b_ns"), result(metric="a_ns"),
                        result(benchmark="allreduce", metric="z_ns")])
        keys = [r.key for r in rs]
        assert keys == sorted(keys)

    def test_file_round_trip(self, tmp_path):
        rs = ResultSet([result(shape=[4, 4, 4]), result(metric="zero_hop_ns",
                                                        value=97.0)])
        path = tmp_path / "sub" / "out.json"  # parent dir auto-created
        rs.write(str(path))
        again = ResultSet.read(str(path))
        assert again.keys() == rs.keys()
        assert [r.to_dict() for r in again] == [r.to_dict() for r in rs]

    def test_dumps_is_canonical(self):
        rs = ResultSet([result()])
        text = rs.dumps()
        assert text.endswith("\n")
        doc = json.loads(text)
        assert doc["schema"] == SCHEMA
        # Identical content serializes to identical bytes regardless of
        # insertion order.
        other = ResultSet([result(metric="zzz_ns"), result()])
        again = ResultSet([result(), result(metric="zzz_ns")])
        assert other.dumps() == again.dumps()

    def test_loads_rejects_wrong_schema(self):
        with pytest.raises(ValueError, match="unsupported results schema"):
            ResultSet.loads('{"schema": "repro-bench/99", "results": []}')
        with pytest.raises(ValueError, match="'results' list"):
            ResultSet.loads('{"schema": "repro-bench/1"}')

    def test_read_many_merges_and_rejects_duplicates(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        ResultSet([result()]).write(str(a))
        ResultSet([result(benchmark="allreduce")]).write(str(b))
        merged = ResultSet.read_many([str(a), str(b)])
        assert len(merged) == 2
        ResultSet([result()]).write(str(b))
        with pytest.raises(ValueError, match="duplicate"):
            ResultSet.read_many([str(a), str(b)])

