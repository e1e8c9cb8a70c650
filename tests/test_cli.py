import csv
import json

import numpy as np
import pytest

from routedp import (generate_tsp, generate_tsptw, generate_vrp, read_instance, replay,
                     write_instance)
from routedp import cli
from routedp.cli import main


def write_tsp_dir(tmp_path, count=3, n=8):
    d = tmp_path / "instances"
    d.mkdir()
    for i in range(count):
        write_instance(generate_tsp(n, seed=i), d / f"tsp{n}_{i:04d}.json")
    return d


def read_report(out_dir, name="report.csv"):
    with (out_dir / name).open(newline="") as f:
        return list(csv.DictReader(f))


# read_instance's message for this file holds a comma.
BAD_DEMANDS = '{"problem": "vrp", "coords": [[0,0],[1,1],[2,2]], "demands": [0,1], "capacity": 5}'


class TestSolveCommand:
    def test_row_per_instance(self, tmp_path, capsys):
        d = write_tsp_dir(tmp_path)
        out = tmp_path / "out"
        rc = main(["solve", "--problem", "tsp", "--instances", str(d),
                   "--beam-size", "64", "--policy", "cost-heat-potential",
                   "--out", str(out)])
        assert rc == 0
        rows = read_report(out)
        assert len(rows) == 3
        assert all(r["error"] == "" for r in rows)
        assert all(float(r["cost"]) > 0 for r in rows)
        assert "instances=3" in capsys.readouterr().out

    def test_solution_files_replayable(self, tmp_path):
        d = write_tsp_dir(tmp_path, count=2)
        out = tmp_path / "out"
        main(["solve", "--problem", "tsp", "--instances", str(d),
              "--beam-size", "32", "--out", str(out)])
        for p in d.iterdir():
            sol = json.loads((out / f"{p.stem}.sol.json").read_text())
            sim = replay(read_instance(p), sol["actions"])
            assert sim.feasible
            assert abs(sim.cost - sol["cost"]) < 1e-9

    def test_deterministic_reports(self, tmp_path):
        d = write_tsp_dir(tmp_path)
        bodies = []
        for run in range(2):
            out = tmp_path / f"out{run}"
            main(["solve", "--problem", "tsp", "--instances", str(d),
                  "--beam-size", "16", "--out", str(out)])
            rows = read_report(out)
            bodies.append([(r["instance"], r["cost"], r["feasible"]) for r in rows])
        assert bodies[0] == bodies[1]

    def test_json_report(self, tmp_path):
        d = write_tsp_dir(tmp_path, count=2)
        out = tmp_path / "out"
        rc = main(["solve", "--problem", "tsp", "--instances", str(d),
                   "--beam-size", "16", "--json", "--out", str(out)])
        assert rc == 0
        rows = json.loads((out / "report.json").read_text())
        assert len(rows) == 2
        assert all(r["error"] is None for r in rows)

    def test_missing_heatmap_gives_error_row_and_exit_1(self, tmp_path):
        d = write_tsp_dir(tmp_path, count=2)
        hm = tmp_path / "heatmaps"
        hm.mkdir()
        out = tmp_path / "out"
        rc = main(["solve", "--problem", "tsp", "--instances", str(d),
                   "--beam-size", "16", "--heatmap-dir", str(hm),
                   "--out", str(out)])
        assert rc == 1
        rows = read_report(out)
        assert all(r["error"] != "" for r in rows)

    def test_tsptw_beam_death_is_an_error_row(self, tmp_path):
        d = tmp_path / "instances"
        d.mkdir()
        write_instance(generate_tsptw(10, seed=0), d / "tsptw10_0000.json")
        out = tmp_path / "out"
        rc = main(["solve", "--problem", "tsptw", "--instances", str(d),
                   "--knn", "2", "--beam-size", "64", "--policy", "cost-heat-potential",
                   "--out", str(out)])
        assert rc == 1
        assert read_report(out)[0]["error"] == "beam died at step 4"

    def test_ref_costs_gap_in_summary(self, tmp_path, capsys):
        d = write_tsp_dir(tmp_path, count=2)
        out = tmp_path / "out"
        main(["solve", "--problem", "tsp", "--instances", str(d),
              "--beam-size", "64", "--out", str(out)])
        refs = tmp_path / "refs.txt"
        refs.write_text("".join(f"{r['instance']} {r['cost']}\n"
                                for r in read_report(out)))
        capsys.readouterr()
        main(["solve", "--problem", "tsp", "--instances", str(d),
              "--beam-size", "64", "--ref-costs", str(refs), "--out", str(out)])
        assert "mean_gap=0.00" in capsys.readouterr().out

    @pytest.mark.parametrize("body, line", [
        ("tsp8_0000\n", 1),                    # a name without a cost
        ("tsp8_0000 1.5\n\ntsp8_0001 0\n", 3),  # a zero cost would divide the gap
        ("tsp8_0000 -2.0\n", 1),
        ("tsp8_0000 nan\n", 1),
        ("tsp8_0000 inf\n", 1),
        ("tsp8_0000 abc\n", 1),
        ("tsp8_0000 1.5 2.5\n", 1),
        ("tsp8_0000 1.0\ntsp8_0001 3.0\ntsp8_0000 2.0\n", 3),   # an id listed twice
    ])
    def test_bad_ref_costs_exit_2_before_solving(self, tmp_path, capsys, body, line):
        d = write_tsp_dir(tmp_path, count=2)
        refs = tmp_path / "refs.txt"
        refs.write_text(body)
        out = tmp_path / "out"
        rc = main(["solve", "--problem", "tsp", "--instances", str(d),
                   "--beam-size", "4", "--ref-costs", str(refs), "--out", str(out)])
        assert rc == 2
        assert f"error: {refs} line {line}:" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_unreadable_ref_costs_exit_2(self, tmp_path, capsys):
        d = write_tsp_dir(tmp_path, count=1)
        rc = main(["solve", "--problem", "tsp", "--instances", str(d),
                   "--beam-size", "4", "--ref-costs", str(tmp_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_jobs_parallel_matches_serial(self, tmp_path):
        d = write_tsp_dir(tmp_path, count=4)
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"out{jobs}"
            main(["solve", "--problem", "tsp", "--instances", str(d),
                  "--beam-size", "16", "--jobs", jobs, "--out", str(out)])
            outs.append([(r["instance"], r["cost"]) for r in read_report(out)])
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["solve", "bench"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exit_2(self, tmp_path, capsys, command, jobs):
        d = write_tsp_dir(tmp_path, count=1)
        sizes = ["--beam-size", "4"] if command == "solve" else ["--beam-sizes", "4"]
        with pytest.raises(SystemExit) as exc:
            main([command, "--instances", str(d), *sizes, "--jobs", jobs,
                  "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("count, workers", [(2, [2]), (1, [])], ids=["two", "one"])
    def test_no_more_workers_than_instances(self, tmp_path, monkeypatch, count, workers):
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, work):
                return map(fn, work)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        d = write_tsp_dir(tmp_path, count=count)
        rc = main(["solve", "--problem", "tsp", "--instances", str(d),
                   "--beam-size", "4", "--jobs", "5000", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert started == workers
        assert len(read_report(tmp_path / "out")) == count

    def test_threshold_and_knn_conflict(self, tmp_path, capsys):
        d = write_tsp_dir(tmp_path, count=1)
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--problem", "tsp", "--instances", str(d),
                  "--beam-size", "4", "--threshold", "0.1", "--knn", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag, msg", [
        (["--knn", "0"], "knn must be >= 1"),
        (["--threshold", "-1"], "threshold must lie in [0, 1)"),
        (["--threshold", "2"], "threshold must lie in [0, 1)"),
    ])
    def test_invalid_sparsification_exit_2_before_solving(self, tmp_path, capsys, flag, msg):
        d = write_tsp_dir(tmp_path, count=1)
        out = tmp_path / "out"
        rc = main(["solve", "--problem", "tsp", "--instances", str(d),
                   "--beam-size", "4", "--out", str(out)] + flag)
        assert rc == 2
        assert msg in capsys.readouterr().err
        assert not out.exists()

    def test_missing_instances_path_exit_2(self, tmp_path, capsys):
        rc = main(["solve", "--problem", "tsp", "--instances",
                   str(tmp_path / "nope"), "--beam-size", "4"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [
        '{"problem": "vrp", "coords": [[0,0],[1,1]], "demands": [0,1], "capacity": "5"}',
        '{"problem": "tsptw", "coords": [[0,0],[1,1]], "time_windows": [1, 2]}',
    ])
    def test_wrongly_typed_instance_is_an_error_row(self, tmp_path, bad):
        d = write_tsp_dir(tmp_path, count=1)
        (d / "bad.json").write_text(bad)
        out = tmp_path / "out"
        rc = main(["solve", "--instances", str(d), "--beam-size", "8", "--out", str(out)])
        assert rc == 1
        rows = {r["instance"]: r for r in read_report(out)}
        assert rows.keys() == {"bad", "tsp8_0000"}
        assert "bad.json" in rows["bad"]["error"]
        assert rows["tsp8_0000"]["error"] == "" and float(rows["tsp8_0000"]["cost"]) > 0

    @pytest.mark.parametrize("bad, heat, match", [
        (b"\xff\xfe", None, "bad.json: not UTF-8 text"),
        (b'{"problem": "tsp", "x": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", None,
         "bad.json: JSON nested too deeply"),
        (None, b"dense 8\n\xff\n", "tsp8_0000.heat: not UTF-8 text"),
        (b'{"problem": "tsp", "coords": [[0, 0], [1e308, 1e308], [-1e308, 0]]}', None,
         "bad.json: coords lie too far apart: a pairwise distance overflows"),
    ], ids=["instance-not-utf8", "instance-nested-too-deeply", "heatmap-not-utf8",
            "instance-distance-overflows"])
    def test_unreadable_file_is_an_error_row_naming_it(self, tmp_path, bad, heat, match):
        d = write_tsp_dir(tmp_path, count=1)
        args = []
        if bad is not None:
            (d / "bad.json").write_bytes(bad)
        if heat is not None:
            hm = tmp_path / "heatmaps"
            hm.mkdir()
            (hm / "tsp8_0000.heat").write_bytes(heat)
            args = ["--heatmap-dir", str(hm)]
        out = tmp_path / "out"
        rc = main(["solve", "--instances", str(d), "--beam-size", "8", "--out", str(out), *args])
        assert rc == 1
        errors = [r["error"] for r in read_report(out) if r["error"]]
        assert len(errors) == 1 and match in errors[0]

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_problem_mismatch_is_an_error_row(self, tmp_path, command):
        d = write_tsp_dir(tmp_path, count=1)
        write_instance(generate_vrp(8, seed=0), d / "vrp8_0000.json")
        out = tmp_path / "out"
        sizes = ["--beam-size", "8"] if command == "solve" else ["--beam-sizes", "8"]
        rc = main([command, "--problem", "vrp", "--instances", str(d), *sizes,
                   "--out", str(out)])
        assert rc == 1
        report = "report.csv" if command == "solve" else "bench_rows.csv"
        errors = {r["instance"]: r["error"] for r in read_report(out, report)}
        assert errors["vrp8_0000"] == ""
        assert "tsp8_0000.json" in errors["tsp8_0000"]
        assert "problem tsp" in errors["tsp8_0000"]
        assert "--problem vrp" in errors["tsp8_0000"]

    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_comma_in_error_is_quoted(self, tmp_path, command):
        d = write_tsp_dir(tmp_path, count=1)
        (d / "bad.json").write_text(BAD_DEMANDS)
        out = tmp_path / "out"
        sizes = ["--beam-size", "8"] if command == "solve" else ["--beam-sizes", "8"]
        assert main([command, "--instances", str(d), *sizes, "--out", str(out)]) == 1
        report = "report.csv" if command == "solve" else "bench_rows.csv"
        with (out / report).open(newline="") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 3
        assert len({len(r) for r in rows}) == 1
        errors = {r["instance"]: r["error"] for r in read_report(out, report)}
        assert errors["tsp8_0000"] == ""
        assert errors["bad"].endswith("bad.json: demands must have length 3, got (2,)")

    def test_engine_error_becomes_error_row(self, tmp_path, monkeypatch):
        d = write_tsp_dir(tmp_path, count=3)
        real_solve = cli.solve
        bad = read_instance(d / "tsp8_0001.json")

        def failing_solve(instance, config, heatmap=None):
            if np.array_equal(instance.coords, bad.coords):
                raise RuntimeError("internal error: injected")
            return real_solve(instance, config, heatmap=heatmap)

        monkeypatch.setattr(cli, "solve", failing_solve)
        out = tmp_path / "out"
        rc = main(["solve", "--problem", "tsp", "--instances", str(d),
                   "--beam-size", "8", "--out", str(out)])
        assert rc == 1
        errors = {r["instance"]: r["error"] for r in read_report(out)}
        assert errors == {"tsp8_0000": "", "tsp8_0001": "internal error: injected",
                          "tsp8_0002": ""}


class TestGenerateCommand:
    def test_count_and_determinism(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            rc = main(["generate", "--problem", "tsptw", "--n", "20",
                       "--count", "10", "--seed", "0", "--max-window", "1000",
                       "--out", str(out)])
            assert rc == 0
        files1 = sorted(p.name for p in out1.iterdir())
        assert len(files1) == 10
        assert files1[0] == "tsptw20_0000.json"
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_count_below_one_exit_2(self, tmp_path, capsys, count):
        out = tmp_path / "g"
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--problem", "tsp", "--n", "5", "--count", count,
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "--count must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "verify"])
    @pytest.mark.parametrize("window", ["inf", "nan", "0"])
    def test_bad_max_window_exit_2(self, tmp_path, capsys, command, window):
        extra = ["--out", str(tmp_path / "g")] if command == "generate" else ["--beam-size", "4"]
        rc = main([command, "--problem", "tsptw", "--n", "5", "--max-window", window, *extra])
        assert rc == 2
        assert "max_window must be finite and positive" in capsys.readouterr().err

    def test_vrp_capacity_in_files(self, tmp_path):
        out = tmp_path / "v"
        main(["generate", "--problem", "vrp", "--n", "100", "--count", "3",
              "--out", str(out)])
        for p in out.iterdir():
            assert json.loads(p.read_text())["capacity"] == 50


class TestVerifyCommand:
    def test_full_beam_passes(self, capsys):
        rc = main(["verify", "--problem", "tsp", "--n", "7", "--count", "3",
                   "--beam-size", str(7 * 2**7), "--policy", "heat-potential"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 3
        assert "3/3 passed" in out

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_count_below_one_exit_2(self, capsys, count):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--problem", "tsp", "--n", "5", "--count", count,
                  "--beam-size", "4"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "--count must be >= 1" in captured.err
        assert "passed" not in captured.out

    def test_tiny_beam_failures_reported(self, capsys):
        # B = 1 greedy is not optimal on these seeds; the harness must say so
        rc = main(["verify", "--problem", "tsp", "--n", "9", "--count", "5",
                   "--beam-size", "1", "--policy", "cost"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out
        assert "failing seeds" in out

    def test_tsptw_infeasible_agreement(self, capsys):
        # extremely narrow windows can make the oracle infeasible; verify
        # must count a run as PASS only when both sides agree
        rc = main(["verify", "--problem", "tsptw", "--n", "8", "--count", "5",
                   "--beam-size", "1000", "--max-window", "1000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 5


class TestBenchCommand:
    def test_config_cross_product(self, tmp_path, capsys):
        d = write_tsp_dir(tmp_path, count=2)
        out = tmp_path / "bench"
        rc = main(["bench", "--problem", "tsp", "--instances", str(d),
                   "--beam-sizes", "4,16", "--policies", "cost,cost-heat-potential",
                   "--out", str(out)])
        assert rc == 0
        summary = (out / "bench_summary.csv").read_text().strip().splitlines()
        assert summary[0] == "config,mean_cost,mean_time"
        assert len(summary) == 1 + 4  # 2 beam sizes x 2 policies
        rows = (out / "bench_rows.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 4 * 2  # per config per instance

    @pytest.mark.parametrize("count", [1, 0])
    def test_mean_time_leaves_out_rows_without_a_solve(self, tmp_path, count):
        # An unreadable file's row has no solve time; with no solve at all the
        # mean is nan, like the mean cost.
        d = write_tsp_dir(tmp_path, count=count)
        (d / "bad.json").write_bytes(b"\xff\xfe")
        out = tmp_path / "bench"
        rc = main(["bench", "--problem", "tsp", "--instances", str(d),
                   "--beam-sizes", "8", "--out", str(out)])
        assert rc == 1
        rows = {r["instance"]: r for r in read_report(out, "bench_rows.csv")}
        assert rows["bad"]["solve_time"] == ""
        [summary] = read_report(out, "bench_summary.csv")
        assert summary["mean_time"] == (rows["tsp8_0000"]["solve_time"] if count else "nan")
        assert summary["mean_cost"] == (rows["tsp8_0000"]["cost"] if count else "nan")

    @pytest.mark.parametrize("flag, msg", [
        (["--knns", "0"], "knn must be >= 1"),
        (["--thresholds", "-1"], "threshold must lie in [0, 1)"),
        (["--thresholds", "0.1,2"], "threshold must lie in [0, 1)"),
    ])
    def test_invalid_sparsification_exit_2_before_solving(self, tmp_path, capsys, flag, msg):
        d = write_tsp_dir(tmp_path, count=1)
        out = tmp_path / "bench"
        rc = main(["bench", "--problem", "tsp", "--instances", str(d),
                   "--beam-sizes", "4", "--out", str(out)] + flag)
        assert rc == 2
        assert msg in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--beam-sizes", ","], ["--beam-sizes", ""],
                                      ["--beam-sizes", "4", "--knns", ",,"],
                                      ["--beam-sizes", "4", "--thresholds", ","]])
    def test_list_flag_without_numbers_exit_2(self, tmp_path, capsys, flag):
        d = write_tsp_dir(tmp_path, count=1)
        out = tmp_path / "bench"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--problem", "tsp", "--instances", str(d), "--out", str(out)]
                 + flag)
        assert exc.value.code == 2
        assert "no numbers in" in capsys.readouterr().err
        assert not out.exists()

    def test_dominance_ablation_rows(self, tmp_path):
        d = write_tsp_dir(tmp_path, count=2)
        out = tmp_path / "bench"
        main(["bench", "--problem", "tsp", "--instances", str(d),
              "--beam-sizes", "8", "--dominance", "on,off", "--out", str(out)])
        rows = (out / "bench_rows.csv").read_text().strip().splitlines()[1:]
        assert len(rows) == 4  # two comparable rows per instance
        assert sum("dom=on" in r for r in rows) == 2
        assert sum("dom=off" in r for r in rows) == 2

    def test_malformed_instance_exit_1(self, tmp_path, capsys):
        d = tmp_path / "instances"
        d.mkdir()
        (d / "bad.json").write_text(BAD_DEMANDS)
        out = tmp_path / "bench"
        rc = main(["bench", "--problem", "vrp", "--instances", str(d),
                   "--beam-sizes", "4", "--out", str(out)])
        assert rc == 1
        assert "demands must have length 3" in read_report(out, "bench_rows.csv")[0]["error"]

    def test_directory_without_instances_exit_2(self, tmp_path, capsys):
        d = tmp_path / "empty"
        d.mkdir()
        rc = main(["bench", "--problem", "tsp", "--instances", str(d),
                   "--beam-sizes", "4", "--out", str(tmp_path / "bench")])
        assert rc == 2
        assert "no .json instance files" in capsys.readouterr().err
