"""CLI surface: tables, manifests, config handling, reproducibility."""

import argparse
import contextlib
import csv
import inspect
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import pnrlidar
from pnrlidar import photon_stats, snr_analysis
from pnrlidar.cli import ConfigError, _csv_block, bundled_config_path, load_sim_config, main, parse_sim_config
from pnrlidar.snr_analysis import find_boundary, find_optima, log_grid
from test_snr_analysis import optimum_mp


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class LineCounter:
    """A stdout, written in whole lines, that keeps only its line count and last line."""

    def __init__(self):
        self.lines, self.last = 0, ""

    def write(self, text):
        self.lines += text.count("\n")
        self.last = text.rstrip("\n").rpartition("\n")[2] or self.last
        return len(text)

    def writelines(self, pieces):
        for piece in pieces:
            self.write(piece)


class TestPmfCommand:
    def test_thermal_table(self, capsys):
        assert run_cli("pmf", "--kind", "thermal", "--n-th", "1", "--n-max", "4") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,probability"
        probs = [float(line.split(",")[1]) for line in lines[1:]]
        assert probs == [0.5, 0.25, 0.125, 0.0625, 0.03125]

    def test_zero_mean_poisson_single_row(self, capsys):
        assert run_cli("pmf", "--kind", "poisson", "--n-p", "0") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1:] == ["0,1"]

    def test_mixed_zero_row(self, capsys):
        assert run_cli("pmf", "--kind", "mixed", "--n-p", "1", "--n-th", "1") == 0
        first = capsys.readouterr().out.strip().splitlines()[1]
        # CSV carries the shortest round-trip repr of the computed double
        assert float(first.split(",")[1]) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-8)

    def test_missing_parameter_fails(self, capsys):
        assert run_cli("pmf", "--kind", "thermal") == 1
        assert "--n-th" in capsys.readouterr().err

    def test_negative_bound_refused(self, capsys):
        assert run_cli("pmf", "--kind", "thermal", "--n-th", "1", "--n-max", "-1") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("pnrlidar: error:")

    @pytest.mark.parametrize(
        "argv,refusal",
        [
            pytest.param(("--kind", "thermal", "--n-th", "1e8"), "--n-th 100000000.0: a table to tolerance "
                         "1.000e-12 takes 2.763e+09 rows by its tail bound, past the budget of 2097152 rows",
                         id="thermal-1e8"),
            pytest.param(("--kind", "mixed", "--n-p", "1", "--n-th", "1e8"), "--n-th 100000000.0: a table to "
                         "tolerance 1.000e-12 takes 2.832e+09 rows by its tail bound, past the budget of 2097152 "
                         "rows", id="mixed-1-1e8"),
            pytest.param(("--kind", "poisson", "--n-p", "1e8"), "--n-p 100000000.0: a table to tolerance "
                         "1.000e-12 takes 1.001e+08 rows by its tail bound, past the budget of 2097152 rows",
                         id="poisson-1e8"),
            pytest.param(("--kind", "mixed", "--n-p", "1e300", "--n-th", "1e-20"), "--n-p 1e+300: a table to "
                         "tolerance 1.000e-12 takes 1e+300 rows by its tail bound, past the budget of 2097152 rows",
                         id="mixed-1e300"),
            pytest.param(("--kind", "poisson", "--n-p", "5", "--n-max", "3000000"), "--n-max 3000000: a table of "
                         "3000001 rows is past the budget of 2097152 rows", id="n-max-3e6"),
        ],
    )
    def test_unreachable_tolerance_refused_before_tabulating(self, capsys, argv, refusal):
        # the tail bound settles the refusal before any row is made: at
        # n_th = 1e8 the table would take 2.8e9 rows, about 110 GB
        tracemalloc.start()
        start = time.perf_counter()
        try:
            assert run_cli("pmf", *argv) == 1
            elapsed, peak = time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6 and elapsed < 1.0
        captured = capsys.readouterr()
        assert captured.err == f"pnrlidar: error: {refusal}\n"
        assert captured.out == ""

    def test_wide_table_streams_its_csv(self):
        # the CSV is formatted in blocks of rows, with no row tuples and no
        # whole-table string: Poisson 1e5 (102,234 rows) takes about 9.0 MB
        # traced, most of it build_pmf's table, where row tuples and one
        # string took 22.9 MB
        stdout = LineCounter()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(stdout):
                assert run_cli("pmf", "--kind", "poisson", "--n-p", "1e5") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 22.9e6 / 2
        assert stdout.lines == 1 + 102_234
        assert stdout.last.startswith("102233,")

    def test_wide_thermal_table_ends_within_tolerance(self, capsys):
        # x = 20/21: the first row past which at most 1e-12 is left is 566
        assert run_cli("pmf", "--kind", "thermal", "--n-th", "20", "--format", "structured") == 0
        data = json.loads(capsys.readouterr().out)["data"]
        x = 20.0 / 21.0
        assert data["n_max"] == 566 == len(data["rows"]) - 1
        assert x**567 <= 1e-12 < x**566
        assert data["residual"] == pytest.approx(x**567, rel=1e-13)

    def test_manifest_carries_residual(self, tmp_path):
        out = tmp_path / "pmf.csv"
        assert run_cli("pmf", "--kind", "thermal", "--n-th", "1", "--n-max", "4",
                       "--output", str(out)) == 0
        manifest = json.loads((tmp_path / "pmf.manifest.json").read_text())
        assert manifest["subcommand"] == "pmf"
        assert manifest["parameters"]["residual"] == pytest.approx(0.03125)

    @pytest.mark.parametrize(
        "argv,refusal",
        [
            (("--kind", "poisson", "--n-p", "2", "--n-th", "5"), "--n-th is not used by kind poisson"),
            (("--kind", "thermal", "--n-p", "7", "--n-th", "1"), "--n-p is not used by kind thermal"),
        ],
    )
    def test_mean_the_kind_ignores_refused(self, tmp_path, capsys, argv, refusal):
        out = tmp_path / "p.csv"
        assert run_cli("pmf", *argv, "--n-max", "3", "--output", str(out)) == 1
        assert capsys.readouterr().err == f"pnrlidar: error: {refusal}\n"
        assert list(tmp_path.iterdir()) == []

    def test_mixed_manifest_records_both_means(self, tmp_path):
        out = tmp_path / "p.csv"
        assert run_cli("pmf", "--kind", "mixed", "--n-p", "2", "--n-th", "5", "--n-max", "3",
                       "--output", str(out)) == 0
        parameters = json.loads((tmp_path / "p.manifest.json").read_text())["parameters"]
        assert (parameters["n_p_mean"], parameters["n_th_mean"]) == (2.0, 5.0)


class TestSnrCommand:
    def test_structured_default(self, capsys):
        assert run_cli("snr", "--n-p", "10", "--n-th", "1", "--thresholds", "5") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["data"]["classical"] == 11.0
        assert doc["data"]["ratio"]["5"] == pytest.approx(2.86, abs=0.05)

    def test_subnormal_tail_ends(self, capsys):
        # p_p(2) at n_p = 1e-160 is subnormal and the next term is 0
        assert run_cli("snr", "--n-p", "1e-160", "--n-th", "1", "--thresholds", "2") == 0
        assert json.loads(capsys.readouterr().out)["data"]["ratio"] == {"2": 1.0}

    def test_zero_signal_ratios_are_one(self, capsys):
        assert run_cli("snr", "--n-p", "0", "--n-th", "1", "--thresholds", "2,5") == 0
        doc = json.loads(capsys.readouterr().out)
        assert all(v == 1.0 for v in doc["data"]["ratio"].values())

    def test_weak_target_values(self, capsys):
        assert run_cli("snr", "--n-p", "0.5", "--n-th", "1", "--thresholds", "2,5") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["data"]["ratio"]["2"] == pytest.approx(1.05, abs=0.02)
        assert doc["data"]["ratio"]["5"] == pytest.approx(1.10, abs=0.02)

    def test_zero_noise_exits_nonzero(self, capsys):
        assert run_cli("snr", "--n-p", "1", "--n-th", "0") == 1
        assert "n_th" in capsys.readouterr().err

    def test_csv_round_trip(self, tmp_path):
        out = tmp_path / "snr.csv"
        assert run_cli("snr", "--n-p", "2", "--n-th", "1", "--thresholds", "2,3",
                       "--format", "csv", "--output", str(out)) == 0
        rows = read_csv(out)
        assert [r["threshold_n"] for r in rows] == ["2", "3"]
        assert float(rows[0]["classical_snr"]) == 3.0
        for row in rows:
            assert float(row["snr_ratio"]) == pytest.approx(
                float(row["quantum_snr"]) / float(row["classical_snr"]), rel=1e-8
            )


class TestSweepCommand:
    def test_single_point_matches_snr(self, capsys):
        assert run_cli("sweep", "--n-th", "1", "--thresholds", "4",
                       "--grid-min", "2.5", "--grid-max", "2.5", "--grid-points", "2") == 1
        # equal grid bounds are refused above; a 2-point grid whose first point
        # is 2.5 gives the single-point comparison with snr
        capsys.readouterr()
        assert run_cli("snr", "--n-p", "2.5", "--n-th", "1", "--thresholds", "4") == 0
        want = json.loads(capsys.readouterr().out)["data"]["ratio"]["4"]
        assert run_cli("sweep", "--n-th", "1", "--thresholds", "4",
                       "--grid-min", "2.5", "--grid-max", "2.6", "--grid-points", "2") == 0
        first = capsys.readouterr().out.strip().splitlines()[1]
        assert float(first.split(",")[2]) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("scale, rule", [
        ("log", "need 0 < lo < hi and at least 2 points"),
        # a linear grid may start at 0 (test_csv_follows_the_one_number_rule)
        ("linear", "a linear grid needs at least 2 points, got 1"),
    ], ids=["log", "linear"])
    def test_one_point_grid_refused(self, capsys, scale, rule):
        assert run_cli("sweep", "--n-th", "1", "--thresholds", "2",
                       "--grid-scale", scale, "--grid-points", "1") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"pnrlidar: error: {rule}\n"

    @pytest.mark.parametrize("bounds, rule", [
        (("5", "5"), "--grid-min < --grid-max, got 5.0 and 5.0"),
        (("5", "4"), "--grid-min < --grid-max, got 5.0 and 4.0"),
        (("-1", "100"), "--grid-min >= 0, got -1.0"),
    ], ids=["equal", "reversed", "negative"])
    def test_linear_grid_bounds_refused_by_their_options(self, capsys, bounds, rule):
        # the refusal names the options given, as the log grid names its rule,
        # not sweep_ratio's n_p_grid parameter or the kernel's n_p_mean
        assert run_cli("sweep", "--n-th", "1", "--grid-scale", "linear", "--grid-min", bounds[0],
                       "--grid-max", bounds[1], "--grid-points", "3") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"pnrlidar: error: a linear grid needs {rule}\n"

    @pytest.mark.parametrize("scale", ["log", "linear"])
    def test_grid_points_that_repeat_refused_by_their_options(self, capsys, scale):
        # bounds one ulp apart round 5 points to repeats on either scale; the
        # refusal names the options given, not sweep_ratio's n_p_grid
        assert run_cli("sweep", "--n-th", "1", "--grid-scale", scale, "--grid-min", "1",
                       "--grid-max", "1.0000000000000002", "--grid-points", "5") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "pnrlidar: error: the 5 --grid-points between --grid-min 1.0 and "
            "--grid-max 1.0000000000000002 repeat after rounding\n"
        )

    def test_boundary_grid_points_that_repeat_refused_by_their_options(self, capsys):
        # the noise grid gets the sweep grid's check: no table of repeated levels
        assert run_cli("boundary", "--thresholds", "2", "--nth-min", "1",
                       "--nth-max", "1.0000000000000002", "--nth-points", "5") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "pnrlidar: error: the 5 --nth-points between --nth-min 1.0 and "
            "--nth-max 1.0000000000000002 repeat after rounding\n"
        )

    @pytest.mark.parametrize("options, got", [
        (("--nth-points", "1"), "--nth-min 0.2, --nth-max 40.0 and --nth-points 1"),
        (("--nth-min", "5", "--nth-max", "5"), "--nth-min 5.0, --nth-max 5.0 and --nth-points 60"),
        (("--nth-min", "0"), "--nth-min 0.0, --nth-max 40.0 and --nth-points 60"),
        (("--nth-max", "inf"), "--nth-min 0.2, --nth-max inf and --nth-points 60"),
        (("--nth-min", "nan"), "--nth-min nan, --nth-max 40.0 and --nth-points 60"),
    ], ids=["one-point", "equal", "zero", "infinite", "nan"])
    def test_boundary_grid_refused_by_its_options(self, capsys, options, got):
        # named by the options given, not by log_grid's lo, hi and points
        assert run_cli("boundary", "--thresholds", "2", *options) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"pnrlidar: error: need 0 < --nth-min < --nth-max < inf and --nth-points >= 2, got {got}\n"
        )

    @pytest.mark.parametrize("thresholds", ["2.5", "2..x", "2,,3", "0..3"])
    def test_malformed_threshold_list_names_the_list(self, capsys, thresholds):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("sweep", "--n-th", "1", "--thresholds", thresholds)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument --thresholds: invalid threshold list {thresholds!r}\n")

    @pytest.mark.parametrize("scale", ["log", "linear"])
    @pytest.mark.parametrize("bound", ["--grid-max=inf", "--grid-min=-inf", "--grid-max=nan"])
    def test_non_finite_bound_refused(self, capsys, scale, bound):
        assert run_cli("sweep", "--n-th", "1", "--grid-scale", scale, bound) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("pnrlidar: error: grid bounds must be finite")
        assert bound.partition("=")[2] in captured.err

    def test_subnormal_tails_end(self, capsys):
        # once the Poisson tail sum is subnormal its terms fall to 0
        assert run_cli("sweep", "--n-th", "1", "--grid-min", "1e-308", "--grid-max", "1e308") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 4 * 200

    def test_grid_endpoints_exact(self, capsys):
        for scale in ("log", "linear"):
            assert run_cli("sweep", "--n-th", "1", "--thresholds", "2",
                           "--grid-scale", scale) == 0
            lines = capsys.readouterr().out.strip().splitlines()
            assert lines[1].split(",")[0] == "0.01"
            assert lines[-1].split(",")[0] == "100"

    def test_row_count(self, capsys):
        assert run_cli("sweep", "--n-th", "1", "--thresholds", "2,3,4",
                       "--grid-points", "11") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 3 * 11

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("sweep", "--n-th", "1", "--thresholds", "2,5",
                           "--grid-points", "40", "--output", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [
        ("--n-th", "1", "--thresholds", "2..6", "--grid-points", "40"),
        # integral grid values, and ratios of exactly 1 at n_p = 0
        ("--n-th", "2", "--thresholds", "1,3", "--grid-min", "0", "--grid-max", "10",
         "--grid-points", "11", "--grid-scale", "linear"),
    ], ids=["log", "linear"])
    def test_csv_follows_the_one_number_rule(self, capsys, argv):
        # the sweep writes its text from a per-threshold template: it must give
        # the bytes _csv_block gives for the rows the structured format holds
        assert run_cli("sweep", *argv) == 0
        text = capsys.readouterr().out
        assert run_cli("sweep", *argv, "--format", "structured") == 0
        rows = json.loads(capsys.readouterr().out)["data"]["table"]["rows"]
        assert text == "n_p_mean,threshold_n,ratio\n" + _csv_block(*zip(*rows))
        if "linear" in argv:
            assert [0, 1, 1] in rows and "\n0,1,1\n" in text

    def test_unwritable_output_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "x.csv"
        assert run_cli("sweep", "--n-th", "1", "--output", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("pnrlidar: error:")
        assert not out.parent.exists()


class TestOptimumBoundaryCommands:
    def test_optimum_increases_with_threshold(self, capsys):
        assert run_cli("optimum", "--n-th", "1", "--thresholds", "2..5") == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        best = [float(line.split(",")[2]) for line in lines]
        assert best == sorted(best)
        ratios = [float(line.split(",")[3]) for line in lines]
        assert ratios == sorted(ratios)

    def test_optimum_keeps_input_order(self, capsys):
        assert run_cli("optimum", "--n-th", "1", "--thresholds", "5,2,5") == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert [line.split(",")[0] for line in lines] == ["5", "2", "5"]
        assert lines[0] == lines[2]
        best = find_optima(1.0, [2])[0]
        assert lines[1] == f"2,1,{best.best_n_p_mean!r},{best.best_ratio!r}"

    def test_optimum_at_high_noise_is_the_root(self, capsys):
        # mpmath's root of d(ratio)/dn_p at 50 digits is 0.019867105654750736
        assert run_cli("optimum", "--n-th", "100", "--thresholds", "2") == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert float(row.split(",")[2]) == pytest.approx(0.019867105654750736, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("argv", [("--n-th", "2000"), ("--n-th", "1e4", "--thresholds", "2")])
    def test_optimum_bracket_follows_the_noise(self, capsys, argv):
        # N = 2's optimum nears 2 / n_th, below a fixed bracket's 1e-3 end
        assert run_cli("optimum", *argv) == 0
        for row in capsys.readouterr().out.strip().splitlines()[1:]:
            big_n, n_th, best, _ = row.split(",")
            best = float(best)
            root = optimum_mp(float(n_th), int(big_n), best * 0.99, best * 1.01)
            assert abs(float(best / root - 1)) <= 1e-12

    def test_structured_output_file_is_the_stdout_document(self, tmp_path, capsys):
        # --format structured with --output writes the document stdout would
        # carry, and beside it that document's manifest
        assert run_cli("optimum", "--n-th", "1", "--format", "structured") == 0
        printed = json.loads(capsys.readouterr().out)
        out = tmp_path / "out.json"
        assert run_cli("optimum", "--n-th", "1", "--format", "structured", "--output", str(out)) == 0
        assert capsys.readouterr() == ("", "")
        written = json.loads(out.read_text())
        manifest = json.loads((tmp_path / "out.manifest.json").read_text())
        assert sorted(path.name for path in tmp_path.iterdir()) == ["out.json", "out.manifest.json"]
        for document in (printed["manifest"], written["manifest"], manifest):
            del document["timestamp"]
        assert written == printed and manifest == printed["manifest"]

    def test_optimum_without_maximum_is_an_error(self, capsys):
        assert run_cli("optimum", "--n-th", "1", "--thresholds", "3,1") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "pnrlidar: error: no interior ratio maximum for N=1, n_th=1.0 in bracket (0.001, 1000.0)\n"
        )

    def test_boundary_searches_in_lockstep(self, capsys, monkeypatch):
        # one scan call per chunk of noise levels and one call per Newton
        # step, over every threshold at once: 3 scan calls and 8 steps here,
        # where a call per threshold and noise level would make over 240.
        # The calls counted are those to every photon_stats function that
        # _snr_terms names, so routing it through another entry is still seen.
        entries = [
            name for name in snr_analysis._snr_terms.__code__.co_names
            if inspect.isfunction(getattr(snr_analysis, name, None))
            and getattr(snr_analysis, name).__module__ == photon_stats.__name__
        ]
        assert entries
        calls = []

        def counting(kernel):
            def counted(*args, **kwargs):
                calls.append(args)
                return kernel(*args, **kwargs)

            return counted

        for name in entries:
            monkeypatch.setattr(snr_analysis, name, counting(getattr(snr_analysis, name)))
        assert run_cli("boundary") == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 1 + 4 * 60
        assert 3 <= len(calls) <= 15

    def test_boundary_points_on_contract(self, capsys):
        assert run_cli("boundary", "--thresholds", "3", "--nth-min", "0.5",
                       "--nth-max", "5", "--nth-points", "6") == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(lines) == 6
        for line in lines:
            assert abs(float(line.split(",")[3]) - 1.0) <= 1e-5


class TestNoiseDomain:
    @pytest.mark.parametrize("argv, value", [
        (("optimum", "--n-th", "inf"), "inf"),
        (("sweep", "--n-th", "-1"), "-1.0"),
    ])
    def test_noise_outside_the_domain_is_one_error_line(self, capsys, argv, value):
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"pnrlidar: error: n_th_mean must be finite and > 0, got {value}\n"
        assert captured.out == ""


class TestSeedOption:
    @pytest.mark.parametrize("argv", [
        ("pmf", "--kind", "thermal", "--n-th", "1"),
        ("snr", "--n-p", "1", "--n-th", "1"),
        ("sweep", "--n-th", "1"),
        ("optimum", "--n-th", "1"),
        ("boundary",),
    ])
    def test_analysis_commands_refuse_a_seed(self, capsys, argv):
        # only simulate draws random numbers; a seed elsewhere would be ignored
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*argv, "--seed", "3")
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: ")
        assert "error: unrecognized arguments: --seed 3" in captured.err


class TestTinyNoiseRefused:
    # x^N underflows double precision, so no SNR can be printed
    @pytest.mark.parametrize("argv", [
        ("snr", "--n-p", "1", "--n-th", "1e-200", "--thresholds", "2"),
        ("sweep", "--n-th", "1e-300"),
        ("optimum", "--n-th", "1e-200"),
        ("boundary", "--nth-min", "1e-200", "--nth-max", "1", "--nth-points", "5"),
    ])
    def test_exits_with_error_line(self, capsys, argv):
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("pnrlidar: error:")
        assert "n_th = 1e-" in captured.err and "Traceback" not in captured.err
        assert "inf" not in captured.out


class TestBoundaryManifest:
    def test_manifest_carries_crossing_diagnostics(self, tmp_path):
        # N = 1 never crosses; near n_th = 1e4 the excess ratio - 1 is at
        # rounding level, so the N = 2 scan sees several sign changes
        out = tmp_path / "b.csv"
        assert run_cli("boundary", "--thresholds", "1,2", "--nth-min", "1000",
                       "--nth-max", "10000", "--nth-points", "5", "--output", str(out)) == 0
        params = json.loads((tmp_path / "b.manifest.json").read_text())["parameters"]
        grid = log_grid(1000.0, 10000.0, 5)
        no_crossing, multiple = [], []
        for n in (1, 2):
            curve = find_boundary([n], grid)[0]
            no_crossing += [{"threshold_n": n, "n_th_mean": t, "side": side} for t, side in curve.no_crossing]
            multiple += [{"threshold_n": n, "n_th_mean": t} for t, _ in curve.multiple_crossings]
        assert params["no_crossing"] == no_crossing and no_crossing
        assert params["multiple_crossings"] == multiple and multiple

    def test_flagged_cells_are_warned_on_stderr(self, tmp_path, capsys):
        # without --output no manifest is written, so each flagged cell gets
        # one stderr line; stdout, the exit code and the manifest are unchanged
        argv = ("boundary", "--thresholds", "1,2", "--nth-min", "1000", "--nth-max", "10000", "--nth-points", "5")
        assert run_cli(*argv) == 0
        captured = capsys.readouterr()
        lines = []
        for n, curve in zip((1, 2), find_boundary([1, 2], log_grid(1000.0, 10000.0, 5))):
            lines += [f"N = {n}, n_th = {t!r}: no ratio == 1 crossing ({side})" for t, side in curve.no_crossing]
            lines += [f"N = {n}, n_th = {t!r}: {changes} sign changes of ratio - 1; the largest-n_p crossing is kept"
                      for t, changes in curve.multiple_crossings]
        assert len(lines) == 7 and "N = 2, n_th = 10000.0: 5 sign changes" in lines[-1]
        assert captured.err == "".join(f"pnrlidar: warning: {line}\n" for line in lines)
        out = tmp_path / "b.csv"
        assert run_cli(*argv, "--output", str(out)) == 0
        assert out.read_text() == captured.out
        assert capsys.readouterr() == ("", captured.err)

    def test_high_noise_multiple_crossing_is_warned(self, capsys):
        # ratio - 1 at rounding level near n_th = 5000 changes sign twice on the scan
        assert run_cli("boundary", "--thresholds", "2", "--nth-min", "1", "--nth-max", "5000",
                       "--nth-points", "40") == 0
        assert capsys.readouterr().err == (
            "pnrlidar: warning: N = 2, n_th = 5000.0: 2 sign changes of ratio - 1; the largest-n_p crossing is kept\n"
        )
        assert run_cli("boundary") == 0  # the default grid flags nothing
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("fmt", ["csv", "structured"])
    def test_no_crossing_anywhere_is_an_error(self, tmp_path, capsys, fmt):
        # N = 1's ratio stays below 1 on the whole default grid: no table,
        # no output file, and an error line naming the threshold's side
        out = tmp_path / "b.csv"
        assert run_cli("boundary", "--thresholds", "1", "--format", fmt) == 1
        assert run_cli("boundary", "--thresholds", "1", "--format", fmt, "--output", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == 2 * (
            "pnrlidar: error: no threshold has a ratio == 1 crossing on the noise grid "
            "(no_crossing: N = 1 below)\n"
        )
        assert not list(tmp_path.iterdir())


class TestSimulateCommand:
    def test_bundled_config_exists(self):
        assert bundled_config_path("paper_fig4.cfg").is_file()
        config = load_sim_config("paper_fig4.cfg")
        assert config.num_bins == 50
        assert config.repetitions == 10_000
        assert dict(config.targets) == {10: 0.5, 20: 1.0, 30: 3.0, 40: 10.0}

    def test_run_with_override_emits_all_bins(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert run_cli("simulate", "--config", "paper_fig4.cfg",
                       "--repetitions", "100", "--output", str(out)) == 0
        rows = read_csv(out)
        assert len(rows) == 50
        assert set(rows[0]) == {"bin", "intensity_norm", "threshold_2_norm", "threshold_5_norm"}
        ratios = read_csv(tmp_path / "sim_ratios.csv")
        assert len(ratios) == 8  # 4 targets x 2 thresholds
        manifest = json.loads((tmp_path / "sim.manifest.json").read_text())
        assert manifest["parameters"]["repetitions"] == 100
        assert manifest["seed"] == 1234

    def test_same_inputs_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("simulate", "--config", "paper_fig4.cfg",
                           "--repetitions", "500", "--output", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_matches_output_files(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        argv = ("simulate", "--config", "paper_fig4.cfg", "--repetitions", "500")
        assert run_cli(*argv) == 0
        stdout = capsys.readouterr().out
        assert run_cli(*argv, "--output", str(out)) == 0
        files = out.read_text() + (tmp_path / "sim_ratios.csv").read_text()
        assert stdout == files

    def test_seed_override_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("simulate", "--config", "paper_fig4.cfg", "--repetitions", "500",
                       "--output", str(a)) == 0
        assert run_cli("simulate", "--config", "paper_fig4.cfg", "--repetitions", "500",
                       "--seed", "77", "--output", str(b)) == 0
        assert a.read_bytes() != b.read_bytes()

    def test_signal_too_wide_to_sample_fails(self, tmp_path, capsys):
        path = tmp_path / "wide.cfg"
        path.write_text("num_bins = 4\ntargets = 1:1e12\nrepetitions = 10\nseed = 1\n")
        assert run_cli("simulate", "--config", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("pnrlidar: error: signal mean 1000000000000.0 too large to sample")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_zero_standard_error_is_an_error(self, capsys):
        # one repetition leaves every plug-in variance at 0: no error bar to print
        assert run_cli("simulate", "--config", "paper_fig4", "--repetitions", "1", "--seed", "3") == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            "pnrlidar: error: cannot estimate the intensity standard error at bin 10, threshold 2:"
        )
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_silent_noise_channel_is_named(self, tmp_path, capsys):
        # 10^6 noise draws at x = 0.005 / 1.005: the N = 5 channel is silent but
        # with probability about 1e6 x^5 = 3e-6, and the N = 2 channel is silent
        # with probability about e^-24.7, whatever the seed draws
        path = tmp_path / "quiet.cfg"
        path.write_text("num_bins = 10\nnoise_mean = 0.005\nrepetitions = 100000\nseed = 1\nthresholds = 2, 5\n")
        assert run_cli("simulate", "--config", str(path)) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "pnrlidar: error: noise-bin average is zero in the N = 5 channel; "
            "raise noise_mean, repetitions, or lower thresholds\n"
        )
        assert captured.out == ""

    def test_missing_config_fails(self, capsys):
        assert run_cli("simulate", "--config", "/nonexistent.cfg") == 1
        assert "not found" in capsys.readouterr().err

    def test_config_without_targets_gives_an_empty_ratios_table(self, tmp_path, capsys):
        config = tmp_path / "noise.cfg"
        config.write_text("num_bins = 4\nnoise_mean = 1.0\nthresholds = 2\nrepetitions = 20\nseed = 3\n")
        out = tmp_path / "run.csv"
        assert run_cli("simulate", "--config", str(config), "--output", str(out)) == 0
        assert len(read_csv(out)) == 4
        assert (tmp_path / "run_ratios.csv").read_text() == (
            "bin,signal_mean,threshold_n,intensity_norm,threshold_norm,ratio,intensity_se,threshold_se\n")
        assert run_cli("simulate", "--config", str(config), "--format", "structured") == 0
        data = json.loads(capsys.readouterr().out)["data"]
        assert data["ratios"]["rows"] == [] and len(data["bins"]["rows"]) == 4


class TestConfigParsing:
    def test_line_precise_unknown_key(self):
        text = "num_bins = 5\nbogus = 1\n"
        with pytest.raises(ConfigError, match=r"demo\.cfg:2.*bogus"):
            parse_sim_config(text, "demo.cfg")

    def test_line_precise_bad_value(self):
        text = "# comment\nrepetitions = many\nseed = 1\n"
        with pytest.raises(ConfigError, match=r"demo\.cfg:2"):
            parse_sim_config(text, "demo.cfg")

    def test_empty_target_entries_are_skipped(self):
        text = "targets = 10:0.5,,20:1,\nrepetitions = 5\nseed = 1\n"
        assert parse_sim_config(text, "demo.cfg").targets == ((10, 0.5), (20, 1.0))

    def test_target_without_a_mean_names_the_form(self):
        text = "targets = 10\nrepetitions = 5\nseed = 1\n"
        with pytest.raises(ConfigError) as info:
            parse_sim_config(text, "demo.cfg")
        assert str(info.value) == "demo.cfg:1: cannot parse value '10' for 'targets': expected 'bin:mean', got '10'"

    def test_line_without_equals_sign(self):
        with pytest.raises(ConfigError) as info:
            parse_sim_config("seed = 1\nrepetitions 5\n", "demo.cfg")
        assert str(info.value) == "demo.cfg:2: expected 'key = value', got 'repetitions 5'"

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="missing required"):
            parse_sim_config("num_bins = 5\n", "demo.cfg")

    def test_duplicate_key(self):
        text = "seed = 1\nseed = 2\nrepetitions = 5\n"
        with pytest.raises(ConfigError, match=r"demo\.cfg:2.*duplicate"):
            parse_sim_config(text, "demo.cfg")

    def test_semantic_errors_carry_source(self):
        text = "repetitions = 10\nseed = 1\nthresholds = 2, 2\n"
        with pytest.raises(ConfigError, match="demo.cfg"):
            parse_sim_config(text, "demo.cfg")

    def test_round_trip_of_valid_file(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text(
            "num_bins = 8\nnoise_mean = 0.5\ntargets = 2:1.5, 5:3\n"
            "thresholds = 1, 3\nrepetitions = 25\nseed = 9\n"
        )
        config = load_sim_config(str(path))
        assert config.num_bins == 8
        assert config.targets == ((2, 1.5), (5, 3.0))
        assert config.thresholds == (1, 3)

    def test_structured_simulate_document(self, tmp_path, capsys):
        assert run_cli("simulate", "--config", "paper_fig4.cfg", "--repetitions", "200",
                       "--format", "structured") == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["data"]["bins"]["rows"]) == 50
        assert doc["manifest"]["parameters"]["repetitions"] == 200


class TestClosedPipe:
    def test_reader_that_stops_early_gets_a_quiet_exit(self):
        # a table far larger than a pipe's buffer, read one line at a time and
        # the pipe closed after the first, as `pnrlidar sweep ... | head -1` does
        env = dict(os.environ, PYTHONPATH=str(Path(pnrlidar.__file__).parents[1]))
        argv = [sys.executable, "-m", "pnrlidar.cli", "sweep", "--n-th", "1", "--thresholds", "2..20", "--grid-points", "2000"]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"n_p_mean,threshold_n,ratio\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert stderr == b""


CLI_REFERENCE = json.loads((Path(__file__).parent / "data" / "cli_reference.json").read_text())["cases"]


class TestReferenceOutput:
    @pytest.mark.parametrize("case", CLI_REFERENCE, ids=lambda case: " ".join(case["argv"]))
    def test_stdout_and_exit_code_match_the_record(self, capsys, case):
        # Every byte but the manifest's timestamp, the last key of its object.
        code = main(case["argv"])
        stdout = re.sub(r',\n *"timestamp": "[^"\n]*"', "", capsys.readouterr().out)
        assert (code, stdout) == (case["exit_code"], case["stdout"])


# What argparse prints at 80 columns, recorded from the parser that gave every
# subcommand its arguments on each call.
TOP_USAGE = "usage: pnrlidar [-h] [--version] {pmf,snr,sweep,optimum,boundary,simulate} ...\n"
SUBCOMMAND_USAGE = {
    "pmf": """\
usage: pnrlidar pmf [-h] [--output OUTPUT] [--format {csv,structured}] --kind
                    {thermal,poisson,mixed} [--n-p N_P] [--n-th N_TH]
                    [--n-max N_MAX] [--tolerance TOLERANCE]
""",
    "snr": """\
usage: pnrlidar snr [-h] [--output OUTPUT] [--format {csv,structured}] --n-p
                    N_P --n-th N_TH [--thresholds THRESHOLDS]
""",
    "sweep": """\
usage: pnrlidar sweep [-h] [--output OUTPUT] [--format {csv,structured}]
                      --n-th N_TH [--thresholds THRESHOLDS]
                      [--grid-min GRID_MIN] [--grid-max GRID_MAX]
                      [--grid-points GRID_POINTS] [--grid-scale {log,linear}]
""",
    "optimum": """\
usage: pnrlidar optimum [-h] [--output OUTPUT] [--format {csv,structured}]
                        --n-th N_TH [--thresholds THRESHOLDS]
""",
    "boundary": """\
usage: pnrlidar boundary [-h] [--output OUTPUT] [--format {csv,structured}]
                         [--thresholds THRESHOLDS] [--nth-min NTH_MIN]
                         [--nth-max NTH_MAX] [--nth-points NTH_POINTS]
""",
    "simulate": """\
usage: pnrlidar simulate [-h] [--output OUTPUT] [--format {csv,structured}]
                         --config CONFIG [--seed SEED]
                         [--repetitions REPETITIONS]
""",
}
SHARED_OPTIONS = """
options:
  -h, --help            show this help message and exit
  --output OUTPUT       output file (default: stdout)
  --format {csv,structured}
                        csv for tables (default), structured for one JSON
                        document
"""
OWN_OPTIONS = {
    "pmf": """\
  --kind {thermal,poisson,mixed}
  --n-p N_P             signal mean photon number
  --n-th N_TH           noise mean photon number
  --n-max N_MAX         fixed truncation bound
  --tolerance TOLERANCE
                        residual tail tolerance
""",
    "snr": """\
  --n-p N_P
  --n-th N_TH
  --thresholds THRESHOLDS
""",
    "sweep": """\
  --n-th N_TH
  --thresholds THRESHOLDS
  --grid-min GRID_MIN
  --grid-max GRID_MAX
  --grid-points GRID_POINTS
  --grid-scale {log,linear}
""",
    "optimum": """\
  --n-th N_TH
  --thresholds THRESHOLDS
""",
    "boundary": """\
  --thresholds THRESHOLDS
  --nth-min NTH_MIN
  --nth-max NTH_MAX
  --nth-points NTH_POINTS
""",
    "simulate": """\
  --config CONFIG       config file path or bundled name
  --seed SEED           seed override
  --repetitions REPETITIONS
                        repetitions override
""",
}
TOP_HELP = TOP_USAGE + """
Photon-number threshold detection statistics and rangefinder simulation.

positional arguments:
  {pmf,snr,sweep,optimum,boundary,simulate}
    pmf                 photon-number PMF table
    snr                 classical vs threshold SNR at one point
    sweep               SNR-ratio curves over a signal grid
    optimum             best signal mean per threshold
    boundary            ratio == 1 advantage boundary
    simulate            time-binned Monte Carlo rangefinder

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""
PARSER_OUTPUT = [
    # (argv, exit status, stdout, stderr)
    (["--help"], 0, TOP_HELP, ""),
    (["--version"], 0, f"pnrlidar {pnrlidar.__version__}\n", ""),
    *(([name, "-h"], 0, SUBCOMMAND_USAGE[name] + SHARED_OPTIONS + OWN_OPTIONS[name], "")
      for name in SUBCOMMAND_USAGE),
    ([], 2, "", TOP_USAGE + "pnrlidar: error: the following arguments are required: subcommand\n"),
    (["swee"], 2, "", TOP_USAGE + "pnrlidar: error: argument subcommand: invalid choice: 'swee' "
                              "(choose from 'pmf', 'snr', 'sweep', 'optimum', 'boundary', 'simulate')\n"),
    (["sweep", "--n-th", "1", "extra"], 2, "", TOP_USAGE + "pnrlidar: error: unrecognized arguments: extra\n"),
    (["sweep"], 2, "", SUBCOMMAND_USAGE["sweep"]
     + "pnrlidar sweep: error: the following arguments are required: --n-th\n"),
    (["sweep", "--n-th", "x"], 2, "", SUBCOMMAND_USAGE["sweep"]
     + "pnrlidar sweep: error: argument --n-th: invalid float value: 'x'\n"),
    (["pmf", "--kind", "bogus"], 2, "", SUBCOMMAND_USAGE["pmf"]
     + "pnrlidar pmf: error: argument --kind: invalid choice: 'bogus' (choose from 'thermal', 'poisson', 'mixed')\n"),
    (["sweep", "--n-th", "1", "--thresholds", "2.5"], 2, "", SUBCOMMAND_USAGE["sweep"]
     + "pnrlidar sweep: error: argument --thresholds: invalid threshold list '2.5'\n"),
]


def run_to_exit(argv):
    """main(argv)'s exit status, returned or raised by argparse."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


class TestParserOutput:
    @pytest.mark.parametrize("argv, status, stdout, stderr", PARSER_OUTPUT,
                             ids=[" ".join(case[0]) or "(no argv)" for case in PARSER_OUTPUT])
    def test_help_version_and_errors_as_recorded(self, capsys, monkeypatch, argv, status, stdout, stderr):
        monkeypatch.setenv("COLUMNS", "80")
        assert run_to_exit(argv) == status
        assert capsys.readouterr() == (stdout, stderr)

    def test_only_the_named_subcommands_get_arguments(self, capsys, monkeypatch):
        # A build makes the top-level parser with its 2 arguments and, for each
        # subcommand that argv names, a parser with its -h, --output, --format
        # and its own; the parser that built every subcommand made 7 parsers
        # and added 33 arguments.  The [project.scripts] entry calls main()
        # with no argv, so it must read sys.argv[1:].
        made, added = [], []
        init, add_argument = argparse.ArgumentParser.__init__, argparse._ActionsContainer.add_argument

        def counted_init(parser, *args, **kwargs):
            init(parser, *args, **kwargs)
            made.append(parser.prog)

        def counted(container, *names, **kwargs):
            added.append(names[0])
            return add_argument(container, *names, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted)
        top = ["-h", "--version"]
        own = {
            "sweep": ["-h", "--output", "--format", "--n-th", "--thresholds", "--grid-min",
                      "--grid-max", "--grid-points", "--grid-scale"],
            "simulate": ["-h", "--output", "--format", "--config", "--seed", "--repetitions"],
        }
        argv = ["sweep", "--n-th", "1", "--thresholds", "2,3", "--grid-points", "5"]
        assert main(argv) == 0
        assert (made, added) == (["pnrlidar", "pnrlidar sweep"], top + own["sweep"])
        table = capsys.readouterr().out

        made.clear()
        added.clear()
        monkeypatch.setattr(sys, "argv", ["pnrlidar", *argv])
        assert main() == 0
        assert (made, added) == (["pnrlidar", "pnrlidar sweep"], top + own["sweep"])
        assert capsys.readouterr().out == table

        made.clear()
        added.clear()
        # an option value that names another subcommand: only simulate is parsed
        assert main(["simulate", "--config", "sweep"]) == 1
        assert made == ["pnrlidar", "pnrlidar sweep", "pnrlidar simulate"]
        assert added == top + own["sweep"] + own["simulate"]
        assert capsys.readouterr() == ("", "pnrlidar: error: config file not found: sweep\n")
