import csv
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plbf.cli as cli
from plbf import (
    ALGORITHMS,
    InfeasibleError,
    ScoreRecord,
    ValidationError,
    divergence_table,
    divergence_table_monotone,
    ensure_positive_masses,
    is_ideal,
    read_records_csv,
    segment_scores,
    trace_layouts,
    write_records_csv,
)
from plbf.dp import write_table_csv


def run(*argv):
    return cli.main(list(argv))


def run_python(*argv):
    """A fresh interpreter that imports plbf from this checkout's src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )


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

    def test_negative_seed_exits_one(self, tmp_path, capsys):
        rc = run("gen", "--out", str(tmp_path / "x.csv"), "--seed", "-1")
        assert rc == 1
        assert capsys.readouterr().err == "error: seed must fit in 64 bits\n"

    def test_seed_must_be_an_integer(self):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            cli._resolve_seed(1.5)


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

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_dump_dp_is_the_table_the_plan_was_traced_from(self, tmp_path, algorithm):
        # 400 bins over 50 generated segments: most bins are empty on both
        # sides, and every planner reads them floored
        data = gen_dataset(tmp_path / "data.csv", segments=50, keys=300, nonkeys=300, seed=3)
        dump, report = tmp_path / "dp.csv", tmp_path / "f.json"
        rc = run(
            "build", "--data", str(data), "--out", str(tmp_path / "f.plbf"),
            "--report", str(report), "--segments", "400", "--regions", "4",
            "--algorithm", algorithm, "--seed", "1", "--dump-dp", str(dump),
        )
        assert rc == 0
        dist = segment_scores(read_records_csv(data), 400)
        assert (dist.g == 0).any() and (dist.h == 0).any()
        build = divergence_table_monotone if algorithm == "fastpp" else divergence_table
        table = build(ensure_positive_masses(dist), 4)
        write_table_csv(table, tmp_path / "expected.csv")
        assert dump.read_bytes() == (tmp_path / "expected.csv").read_bytes()
        bounds = json.loads(report.read_text())["plan"]["boundaries"]
        assert trace_layouts(table, [bounds[-2] + 1], 4).tolist() == [bounds]

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

    @pytest.mark.parametrize("command", ["build", "bench"])
    @pytest.mark.parametrize("segments", ["16777217", "33554432"])
    def test_oversized_segment_count_rejected_before_reading(
        self, tmp_path, capsys, monkeypatch, command, segments
    ):
        def unread(path):
            raise AssertionError(f"{path} read for an oversized config")

        monkeypatch.setattr(cli, "read_records_csv", unread)
        args = {
            "build": ("--out", str(tmp_path / "x.plbf"), "--algorithm", "fastpp"),
            "bench": ("--algorithms", "fastpp"),
        }[command]
        rc = run(command, "--data", str(tmp_path / "data.csv"), "--segments", segments, *args)
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: n_segments must be at most 16777216, got {segments}\n"
        )

    def test_mismatched_budget_flags_rejected(self, tmp_path, capsys):
        data = gen_dataset(tmp_path / "data.csv")
        rc = run(
            "build", "--data", str(data), "--out", str(tmp_path / "x.plbf"),
            "--segments", "80", "--regions", "4", "--memory-bits", "5000",
        )
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: memory_bits only applies to the memory framework\n"
        )
        rc = run(
            "build", "--data", str(data), "--out", str(tmp_path / "x.plbf"),
            "--segments", "80", "--regions", "4", "--framework", "memory",
        )
        assert rc == 1
        assert capsys.readouterr().err == "error: memory framework needs memory_bits > 0\n"
        rc = run(
            "build", "--data", str(data), "--out", str(tmp_path / "x.plbf"),
            "--segments", "80", "--regions", "4", "--framework", "memory",
            "--memory-bits", "5000", "--target-fpr", "0.01",
        )
        assert rc == 1
        assert capsys.readouterr().err == "error: target_fpr only applies to the fpr framework\n"

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


    def test_memory_budget_with_no_key_mass_left_exits_two(self, tmp_path, capsys):
        from plbf import ScoreRecord, write_records_csv

        data = tmp_path / "split.csv"
        write_records_csv(
            data,
            [ScoreRecord(f"k{i}", 0.05, True) for i in range(1000)]
            + [ScoreRecord(f"q{i}", 0.95, False) for i in range(1000)],
        )
        rc = run(
            "build", "--data", str(data), "--out", str(tmp_path / "x.plbf"),
            "--segments", "4", "--regions", "3",
            "--framework", "memory", "--memory-bits", "1e-8",
        )
        assert rc == 2
        assert "infeasible" in capsys.readouterr().err


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

    def test_ids_that_need_quoting_parse_back(self, tmp_path, capsys):
        _, filt = self._built(tmp_path)
        ids = ['a,"b"', '"', "two\nlines", "cr\r", "plain"]
        probes = tmp_path / "probes.csv"
        write_records_csv(probes, [ScoreRecord(i, 0.5, False) for i in ids])
        capsys.readouterr()
        assert run("query", "--filter", str(filt), "--data", str(probes)) == 0
        out = capsys.readouterr().out
        rows = list(csv.reader(io.StringIO(out)))[:-1]
        assert [row[0] for row in rows] == ids
        assert all(len(row) == 2 and row[1] in ("true", "false") for row in rows)
        assert "\nplain," in out

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

    def test_malformed_filter_header_exits_one(self, tmp_path, capsys):
        data, filt = self._built(tmp_path)
        # the same header wrapped in a list: magic, version, header length, header, blobs
        prefix = struct.Struct("<4sHI")
        blob = filt.read_bytes()
        magic, version, size = prefix.unpack_from(blob)
        header = json.dumps([json.loads(blob[prefix.size:prefix.size + size])]).encode()
        filt.write_bytes(
            prefix.pack(magic, version, len(header)) + header + blob[prefix.size + size:]
        )
        capsys.readouterr()
        rc = run("query", "--filter", str(filt), "--data", str(data))
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: filter header is not a JSON object")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestByteIdentity:
    """gen, build and query on one fixed dataset write exactly the pinned bytes.

    Each case pins the sha256 of the ``.plbf`` file, of the report's plan
    (canonical JSON), of the query output and of the ``--dump-dp`` table.
    fast, fastpp and plbf agree on the plan and the answers; their files
    differ only in the algorithm name.  fast, plbf and relaxed dump the one
    N x k table; fastpp dumps its row-maxima table, which on this dataset
    equals the N x k table byte for byte: every planner dumps the same table.

    Both tables take ``np.log2``.  Where numpy dispatches it to AVX-512
    code, some cells round differently from ``math.log2``, the probe input
    below among them, and the dump has its own digest.  Each machine
    accepts exactly one of the two.
    """

    LOG2_PROBE = 1.0800590318329526
    FULL_TABLE_DUMP = (
        "b7bc9d56d5d9dedcb4bfbf10bff56abc042ae6933e6920d665f63bcb6faa7ee4"
        if float(np.log2(LOG2_PROBE)) != math.log2(LOG2_PROBE)
        else "b35f66a36704dba5faa9aeef98db246a4f9699c86191e10cd57e58376cf8b235"
    )
    PINS = {
        ("fast", "fpr"): (
            "46c6104689bf07c96b287d0a9bd4f5fbdfefde0b3ae4e9e91a1734c2851a634e",
            "694df779df64e5ccf3aece5be6586fca55801920747951ef75177a7f53a4e296",
            "85f37c3369f964b3800dd81c6bebd8403903b2f18e1f012bae2f5e9b01561bca",
            FULL_TABLE_DUMP,
        ),
        ("fast", "memory"): (
            "dce7a526baf3cc418beffa0ea405779db4eec3bf3373622df5baed09d8a5425f",
            "22b9b055068cebafc4344bee89f2abbbeddc7572c4db35c986372c865a3e26b0",
            "37180ef5f53aa7696d65209c51aa657cfd7511b6131202e63c2f8b69568df9e0",
            FULL_TABLE_DUMP,
        ),
        ("fastpp", "fpr"): (
            "3739fc278b63fe66dd988bdd3ec5d2576d03aa88bdc8733d3294df7214ce55da",
            "694df779df64e5ccf3aece5be6586fca55801920747951ef75177a7f53a4e296",
            "85f37c3369f964b3800dd81c6bebd8403903b2f18e1f012bae2f5e9b01561bca",
            FULL_TABLE_DUMP,
        ),
        ("fastpp", "memory"): (
            "02962c4a44d2292dc92142ab32564845106e8c22682fcf65dbc6a96a72522e74",
            "22b9b055068cebafc4344bee89f2abbbeddc7572c4db35c986372c865a3e26b0",
            "37180ef5f53aa7696d65209c51aa657cfd7511b6131202e63c2f8b69568df9e0",
            FULL_TABLE_DUMP,
        ),
        ("plbf", "fpr"): (
            "682615c06da0b76cc2e63cf790157ddde158c50e40acadc90fc99f280e008a04",
            "694df779df64e5ccf3aece5be6586fca55801920747951ef75177a7f53a4e296",
            "85f37c3369f964b3800dd81c6bebd8403903b2f18e1f012bae2f5e9b01561bca",
            FULL_TABLE_DUMP,
        ),
        ("plbf", "memory"): (
            "ceafd29e0d96add80c05b7c7a6e97e1ac4775b8c90139dc9ac4d7211162dcae3",
            "22b9b055068cebafc4344bee89f2abbbeddc7572c4db35c986372c865a3e26b0",
            "37180ef5f53aa7696d65209c51aa657cfd7511b6131202e63c2f8b69568df9e0",
            FULL_TABLE_DUMP,
        ),
        ("relaxed", "fpr"): (
            "ff9affb5857806f0d9149c4f4e42f37dab7f50cef2fdf1d47031da49c45b72d1",
            "c90ec79d9a9ed4fb1d93ad2b88742f2b1b250f98d096d4eccb712e205d173d5b",
            "841d1fcd79edbf1501a76541a4874e559e0605e5964474fa46e2ec2abc9b13f3",
            FULL_TABLE_DUMP,
        ),
        ("relaxed", "memory"): (
            "8e3ac8f4bf0c909324fe42a58b6ed15b6be29ea82b32204075dce19d10dfc644",
            "51bc119d881941d87d485cc1fedf4866d8ed2a63ddf4e8e59f27f0e1154d86fd",
            "398ad6df363b4d393e99f3727fc4b68611d8a45fe51d61023af78a0efb81218b",
            FULL_TABLE_DUMP,
        ),
    }
    BUDGETS = {"fpr": ("--target-fpr", "0.01"), "memory": ("--memory-bits", "12000")}

    @pytest.mark.parametrize("algorithm,framework", sorted(PINS))
    def test_outputs_match_pins(self, tmp_path, capsys, algorithm, framework):
        data = gen_dataset(tmp_path / "data.csv", segments=200, keys=3000,
                           nonkeys=3000, seed=7, swaps=20)
        out, report, dump = tmp_path / "f.plbf", tmp_path / "f.json", tmp_path / "dp.csv"
        assert run(
            "build", "--data", str(data), "--out", str(out), "--report", str(report),
            "--segments", "200", "--regions", "5", "--algorithm", algorithm,
            "--framework", framework, *self.BUDGETS[framework], "--seed", "7",
            "--dump-dp", str(dump),
        ) == 0
        capsys.readouterr()
        assert run("query", "--filter", str(out), "--data", str(data)) == 0
        answers = capsys.readouterr().out
        plan = json.loads(report.read_text())["plan"]
        assert (
            sha256(out.read_bytes()),
            sha256(json.dumps(plan, sort_keys=True, separators=(",", ":")).encode()),
            sha256(answers.encode()),
            sha256(dump.read_bytes()),
        ) == self.PINS[algorithm, framework]


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
        capsys.readouterr()
        rc = run("bench", "--data", str(data), "--algorithms", "fast,warp")
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: algorithm must be one of {ALGORITHMS}, got 'warp'\n"
        )

    def test_empty_algorithm_list_rejected(self, tmp_path, capsys):
        data = gen_dataset(tmp_path / "data.csv")
        capsys.readouterr()
        rc = run("bench", "--data", str(data), "--algorithms", ",")
        assert rc == 1
        assert capsys.readouterr().err == "error: --algorithms needs at least one value\n"

    def test_bad_segment_list_rejected(self, tmp_path):
        data = gen_dataset(tmp_path / "data.csv")
        rc = run("bench", "--data", str(data), "--segments", "40,x")
        assert rc == 1


class TestParsing:
    @pytest.mark.parametrize("command", ["build", "query", "bench"])
    def test_data_that_is_not_utf8_exits_one(self, tmp_path, capsys, command):
        filt = tmp_path / "f.plbf"
        assert run("build", "--data", str(gen_dataset(tmp_path / "good.csv")),
                   "--out", str(filt), "--segments", "80", "--regions", "4") == 0
        data = tmp_path / "data.csv"
        data.write_bytes(b"element_id,score,label\na\xff\xfeb,0.5,1\nc,0.25,0\n")
        args = {
            "build": ("--out", str(tmp_path / "x.plbf"), "--segments", "3", "--regions", "2"),
            "query": ("--filter", str(filt)),
            "bench": ("--segments", "3", "--regions", "2"),
        }[command]
        capsys.readouterr()
        assert run(command, "--data", str(data), *args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"{data}: not UTF-8 text" in err

    @pytest.mark.parametrize("command", ["build", "query"])
    def test_field_over_the_csv_limit_exits_one(self, tmp_path, capsys, command):
        filt = tmp_path / "f.plbf"
        assert run("build", "--data", str(gen_dataset(tmp_path / "good.csv")),
                   "--out", str(filt), "--segments", "80", "--regions", "4") == 0
        data = tmp_path / "data.csv"
        data.write_text(f"element_id,score,label\na,0.5,1\n{'x' * 200_000},0.25,0\n")
        args = {
            "build": ("--out", str(tmp_path / "x.plbf"), "--segments", "3", "--regions", "2"),
            "query": ("--filter", str(filt)),
        }[command]
        capsys.readouterr()
        assert run(command, "--data", str(data), *args) == 1
        assert capsys.readouterr().err == (
            f"error: {data}:3: field larger than field limit (131072)\n"
        )

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
        proc = run_python(
            "-m", "plbf", "gen", "--out", str(out),
            "--segments", "20", "--keys", "50", "--nonkeys", "50",
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_import_leaves_numpy_random_unloaded(self):
        # the generators look numpy.random up when they draw, not at import
        proc = run_python(
            "-c", "import sys, plbf; print('numpy.random' in sys.modules)"
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n")
