import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plbf.cli as cli
from plbf import InfeasibleError, is_ideal, read_records_csv, segment_scores


def run(*argv):
    return cli.main(list(argv))


def gen_dataset(path, segments=80, keys=800, nonkeys=1200, seed=5, swaps=0):
    rc = run(
        "gen", "--out", str(path), "--segments", str(segments),
        "--keys", str(keys), "--nonkeys", str(nonkeys),
        "--swaps", str(swaps), "--seed", str(seed),
    )
    assert rc == 0
    return path


class TestGen:
    def test_writes_requested_counts(self, tmp_path):
        path = gen_dataset(tmp_path / "data.csv", keys=321, nonkeys=123)
        records = read_records_csv(path)
        assert sum(r.is_key for r in records) == 321
        assert sum(not r.is_key for r in records) == 123

    def test_unswapped_output_is_ideal(self, tmp_path):
        path = gen_dataset(tmp_path / "data.csv", segments=60)
        assert is_ideal(segment_scores(read_records_csv(path), 60))

    def test_deterministic_for_a_seed(self, tmp_path):
        a = gen_dataset(tmp_path / "a.csv", seed=9)
        b = gen_dataset(tmp_path / "b.csv", seed=9)
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        flagged = gen_dataset(tmp_path / "a.csv", seed=33)
        monkeypatch.setenv("PLBF_SEED", "33")
        rc = run(
            "gen", "--out", str(tmp_path / "b.csv"), "--segments", "80",
            "--keys", "800", "--nonkeys", "1200", "--swaps", "0",
        )
        assert rc == 0
        assert flagged.read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_bad_env_seed_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PLBF_SEED", "not-a-number")
        rc = run("gen", "--out", str(tmp_path / "x.csv"))
        assert rc == 1
        assert "PLBF_SEED" in capsys.readouterr().err

    def test_validation_failure_exits_one(self, tmp_path, capsys):
        rc = run("gen", "--out", str(tmp_path / "x.csv"), "--segments", "1")
        assert rc == 1


class TestBuild:
    def _build(self, tmp_path, *extra, algorithm="fast"):
        data = gen_dataset(tmp_path / "data.csv")
        out = tmp_path / f"{algorithm}.plbf"
        report = tmp_path / f"{algorithm}.json"
        rc = run(
            "build", "--data", str(data), "--out", str(out),
            "--report", str(report), "--segments", "80", "--regions", "4",
            "--algorithm", algorithm, "--target-fpr", "0.05", "--seed", "3",
            *extra,
        )
        return rc, out, report

    def test_writes_filter_and_report(self, tmp_path):
        rc, out, report = self._build(tmp_path)
        assert rc == 0
        assert out.exists()
        doc = json.loads(report.read_text())
        assert doc["n_segments"] == 80 and doc["n_regions"] == 4
        assert set(doc["timings"]) == {"dp_ms", "optimize_ms", "insert_ms", "total_ms"}
        assert doc["timings"]["total_ms"] >= doc["timings"]["insert_ms"]
        assert doc["plan"]["boundaries"][0] == 0
        assert doc["plan"]["boundaries"][-1] == 80

    def test_report_defaults_next_to_filter(self, tmp_path):
        data = gen_dataset(tmp_path / "data.csv")
        out = tmp_path / "f.plbf"
        rc = run(
            "build", "--data", str(data), "--out", str(out),
            "--segments", "80", "--regions", "4",
        )
        assert rc == 0
        assert (tmp_path / "f.plbf.report.json").exists()

    def test_exact_algorithms_serialize_identical_plans(self, tmp_path):
        _, _, fast_report = self._build(tmp_path, algorithm="fast")
        _, _, plbf_report = self._build(tmp_path, algorithm="plbf")
        fast_plan = json.dumps(json.loads(fast_report.read_text())["plan"], sort_keys=True)
        plbf_plan = json.dumps(json.loads(plbf_report.read_text())["plan"], sort_keys=True)
        assert fast_plan == plbf_plan

    def test_dump_dp_writes_table(self, tmp_path):
        rc, _, _ = self._build(tmp_path, "--dump-dp", str(tmp_path / "table.csv"))
        assert rc == 0
        first = (tmp_path / "table.csv").read_text().splitlines()[0]
        assert first == "prefix,regions,value,parent"

    def test_parser_defaults(self):
        args = cli.build_parser().parse_args(
            ["build", "--data", "d.csv", "--out", "f.plbf"]
        )
        assert args.segments == 1000
        assert args.regions == 5
        assert args.algorithm == "fast"
        assert args.framework == "fpr"

    def test_region_count_must_stay_below_segments(self, tmp_path, capsys):
        data = gen_dataset(tmp_path / "data.csv")
        rc = run(
            "build", "--data", str(data), "--out", str(tmp_path / "x.plbf"),
            "--segments", "10", "--regions", "10",
        )
        assert rc == 1
        assert "n_segments" in capsys.readouterr().err

    def test_mismatched_budget_flags_rejected(self, tmp_path, capsys):
        data = gen_dataset(tmp_path / "data.csv")
        rc = run(
            "build", "--data", str(data), "--out", str(tmp_path / "x.plbf"),
            "--segments", "80", "--regions", "4", "--memory-bits", "5000",
        )
        assert rc == 1
        rc = run(
            "build", "--data", str(data), "--out", str(tmp_path / "x.plbf"),
            "--segments", "80", "--regions", "4", "--framework", "memory",
        )
        assert rc == 1

    def test_memory_framework_build(self, tmp_path):
        data = gen_dataset(tmp_path / "data.csv")
        rc = run(
            "build", "--data", str(data), "--out", str(tmp_path / "m.plbf"),
            "--segments", "80", "--regions", "4",
            "--framework", "memory", "--memory-bits", "4000",
        )
        assert rc == 0

    def test_missing_data_file_exits_one(self, tmp_path, capsys):
        rc = run(
            "build", "--data", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "x.plbf"),
        )
        assert rc == 1

    def test_infeasible_plan_exits_two(self, tmp_path, monkeypatch):
        data = gen_dataset(tmp_path / "data.csv")

        def explode(*_args, **_kwargs):
            raise InfeasibleError("forced")

        monkeypatch.setattr(cli, "solve_timed", explode)
        rc = run(
            "build", "--data", str(data), "--out", str(tmp_path / "x.plbf"),
            "--segments", "80", "--regions", "4",
        )
        assert rc == 2


class TestQuery:
    def _built(self, tmp_path):
        data = gen_dataset(tmp_path / "data.csv")
        out = tmp_path / "f.plbf"
        run(
            "build", "--data", str(data), "--out", str(out),
            "--segments", "80", "--regions", "4", "--target-fpr", "0.05",
        )
        return data, out

    def test_keys_all_answer_true(self, tmp_path, capsys):
        data, filt = self._built(tmp_path)
        records = read_records_csv(data)
        keys_csv = tmp_path / "keys.csv"
        from plbf import write_records_csv

        write_records_csv(keys_csv, [r for r in records if r.is_key])
        capsys.readouterr()  # drain setup output
        rc = run("query", "--filter", str(filt), "--data", str(keys_csv))
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        summary = lines[-1]
        assert all(line.endswith(",true") for line in lines[:-1])
        assert "key_false_negatives=0" in summary
        assert "nonkey_fpr" not in summary

    def test_nonkeys_report_measured_rate(self, tmp_path, capsys):
        data, filt = self._built(tmp_path)
        capsys.readouterr()
        rc = run("query", "--filter", str(filt), "--data", str(data))
        assert rc == 0
        summary = capsys.readouterr().out.strip().splitlines()[-1]
        assert summary.startswith("# queried=2000")
        assert "nonkey_fpr=" in summary

    def test_empty_query_file_exits_one(self, tmp_path, capsys):
        _, filt = self._built(tmp_path)
        empty = tmp_path / "empty.csv"
        empty.write_text("element_id,score,label\n")
        rc = run("query", "--filter", str(filt), "--data", str(empty))
        assert rc == 1
        assert "no records" in capsys.readouterr().err

    def test_missing_filter_exits_one(self, tmp_path):
        data = gen_dataset(tmp_path / "data.csv")
        rc = run("query", "--filter", str(tmp_path / "ghost.plbf"), "--data", str(data))
        assert rc == 1


class TestBench:
    def test_sweep_layout_and_determinism(self, tmp_path, capsys):
        data = gen_dataset(tmp_path / "data.csv")
        argv = (
            "bench", "--data", str(data), "--algorithms", "fast,fastpp",
            "--segments", "40,80", "--regions", "3", "--target-fpr", "0.05",
            "--repeat", "3", "--seed", "1",
        )
        capsys.readouterr()
        assert run(*argv) == 0
        first = capsys.readouterr().out.strip().splitlines()
        assert run(*argv) == 0
        second = capsys.readouterr().out.strip().splitlines()
        assert first[0] == "# schema: plbf-bench-v1"
        assert first[1] == "algorithm,N,k,build_ms,expected_fpr,measured_fpr,memory_bits"
        assert len(first) == 2 + 4  # 2 algorithms x 2 segment counts x 1 region count
        # identical sweep structure and measurements; only timings may drift
        strip_time = lambda line: line.split(",")[:3] + line.split(",")[4:]  # noqa: E731
        assert [strip_time(l) for l in first[2:]] == [strip_time(l) for l in second[2:]]
        order = [tuple(line.split(",")[:3]) for line in first[2:]]
        assert order == [
            ("fast", "40", "3"), ("fast", "80", "3"),
            ("fastpp", "40", "3"), ("fastpp", "80", "3"),
        ]

    def test_writes_csv_file(self, tmp_path):
        data = gen_dataset(tmp_path / "data.csv")
        out = tmp_path / "bench.csv"
        rc = run(
            "bench", "--data", str(data), "--segments", "40",
            "--regions", "3,4", "--out", str(out), "--repeat", "3",
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2 + 2

    def test_repeat_floor(self, tmp_path, capsys):
        data = gen_dataset(tmp_path / "data.csv")
        rc = run("bench", "--data", str(data), "--repeat", "2", "--segments", "40")
        assert rc == 1
        assert "repeat" in capsys.readouterr().err

    def test_unknown_algorithm_rejected(self, tmp_path, capsys):
        data = gen_dataset(tmp_path / "data.csv")
        rc = run("bench", "--data", str(data), "--algorithms", "fast,warp")
        assert rc == 1

    def test_bad_segment_list_rejected(self, tmp_path):
        data = gen_dataset(tmp_path / "data.csv")
        rc = run("bench", "--data", str(data), "--segments", "40,x")
        assert rc == 1


class TestParsing:
    def test_usage_errors_exit_one(self):
        with pytest.raises(SystemExit) as exc:
            run("build")  # missing required flags
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            run("no-such-command")
        assert exc.value.code == 1

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            run("--help")
        assert exc.value.code == 0

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "data.csv"
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "plbf", "gen", "--out", str(out),
             "--segments", "20", "--keys", "50", "--nonkeys", "50"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        assert out.exists()
