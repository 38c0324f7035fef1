"""CLI surface: tables, manifests, config handling, reproducibility."""

import csv
import inspect
import json
import math
import os
import re
import subprocess
import sys
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
            (("--kind", "thermal", "--n-th", "1e8"), "residual 4.540e-05 still above tolerance 1.000e-12 "
             "at the hard cap n_max = 1000000200"),
            (("--kind", "mixed", "--n-p", "1", "--n-th", "1e8"), "residual at least 4.540e-05 still above "
             "tolerance 1.000e-12 at the hard cap n_max = 1000000210"),
            (("--kind", "thermal", "--n-th", "20"), "residual 3.185e-09 still above tolerance 1.000e-12 "
             "at the hard cap n_max = 400"),
        ],
    )
    def test_unreachable_tolerance_refused_before_tabulating(self, capsys, argv, refusal):
        # x^(cap+1) > tolerance settles the refusal: at n_th = 1e8, tabulating
        # to the cap of 1e9 rows first would hold about 32 GB.  The thermal
        # message is the one the walk to the cap gave.
        tracemalloc.start()
        try:
            assert run_cli("pmf", *argv) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        captured = capsys.readouterr()
        assert captured.err == f"pnrlidar: error: {refusal}\n"
        assert captured.out == ""

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

    def test_optimum_without_maximum_is_an_error(self, capsys):
        assert run_cli("optimum", "--n-th", "1", "--thresholds", "3,1") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "pnrlidar: error: no interior ratio maximum for N=1, n_th=1.0 in bracket (0.001, 1000.0)\n"
        )

    def test_boundary_searches_in_lockstep(self, capsys, monkeypatch):
        # one scan call per chunk of noise levels and one bisection call per
        # step, over every threshold at once: 3 scan calls and 28 steps here,
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
        assert 3 <= len(calls) <= 35

    def test_boundary_points_on_contract(self, capsys):
        assert run_cli("boundary", "--thresholds", "3", "--nth-min", "0.5",
                       "--nth-max", "5", "--nth-points", "6") == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(lines) == 6
        for line in lines:
            assert abs(float(line.split(",")[3]) - 1.0) <= 1e-5


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
            multiple += [{"threshold_n": n, "n_th_mean": t} for t in curve.multiple_crossings]
        assert params["no_crossing"] == no_crossing and no_crossing
        assert params["multiple_crossings"] == multiple and multiple

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


class TestConfigParsing:
    def test_line_precise_unknown_key(self):
        text = "num_bins = 5\nbogus = 1\n"
        with pytest.raises(ConfigError, match=r"demo\.cfg:2.*bogus"):
            parse_sim_config(text, "demo.cfg")

    def test_line_precise_bad_value(self):
        text = "# comment\nrepetitions = many\nseed = 1\n"
        with pytest.raises(ConfigError, match=r"demo\.cfg:2"):
            parse_sim_config(text, "demo.cfg")

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
