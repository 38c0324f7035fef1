"""Command-line surface: PMF tables, SNR reports, sweeps, and simulations.

Every subcommand is deterministic in its resolved inputs.  Tables go out as
CSV, each float as its shortest round-trip ``repr`` (so a value read back
is the double that was computed); ``--format structured`` switches to a single
JSON document.  With ``--output``, a JSON manifest recording the resolved
parameter set is written alongside the output file; without it the table
goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, replace
from datetime import datetime, timezone
from importlib import resources
from itertools import repeat
from pathlib import Path

from . import __version__
from .photon_stats import SourceKind, SourceParams, build_pmf
from .rangefinder_sim import SimConfig, estimate_ratio, run_simulation
from .snr_analysis import find_boundary, find_optima, log_grid, snr_report, sweep_ratio

__all__ = ["main", "ConfigError", "parse_sim_config", "bundled_config_path"]


class ConfigError(ValueError):
    """Simulation config file rejected; message carries file:line."""


def _csv_block(*columns) -> str:
    """CSV lines of equal-length columns of numbers, each float as its
    shortest round-trip repr with a trailing '.0' dropped (1.0 -> '1').

    Each column is a column of ints or of floats, as its first value is.
    Floats go through float(), since a numpy scalar's repr is
    "np.float64(...)", and repr puts ".0" only at the end of an integral
    float, so two replaces over the block drop it.
    """
    if not columns:
        return ""
    texts = [
        map(repr, map(float, column)) if isinstance(column[0], float) else map(str, column)
        for column in columns
    ]
    block = "\n".join(map(",".join, zip(*texts))) + "\n"
    return block.replace(".0,", ",").replace(".0\n", "\n")


def _rows(rows):
    """A table's source: its rows of values, or with ``text`` its CSV lines as one block."""
    def source(text):
        return [_csv_block(*zip(*rows))] if text else iter(rows)

    return source


def _write_csv(stream, columns, text) -> None:
    # Every field is a number or a column name, so none needs quoting.
    stream.write(",".join(columns) + "\n")
    stream.writelines(text)


def _manifest(subcommand: str, parameters: dict, seed=None) -> dict:
    return {
        "tool": "pnrlidar",
        "version": __version__,
        "subcommand": subcommand,
        "parameters": parameters,
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _emit(
    args,
    manifest: dict,
    tables: dict[str, tuple[list, list]],
    data: dict | None = None,
    default_format: str = "csv",
) -> int:
    """Write CSV table(s) or one structured JSON document, plus the manifest.

    ``tables`` maps a suffix ("" for the primary file) to (columns, source),
    where ``source(False)`` yields the rows of values, for JSON, and
    ``source(True)`` the CSV text in pieces of whole lines, each value as
    ``_csv_block`` writes it.  Structured mode folds everything into a single
    JSON document.
    """
    if (args.format or default_format) == "structured":
        payload = data if data is not None else {
            name or "table": {"columns": cols, "rows": list(source(False))}
            for name, (cols, source) in tables.items()
        }
        text = json.dumps({"manifest": manifest, "data": payload}, indent=2) + "\n"
        if args.output is None:
            sys.stdout.write(text)
            return 0
        Path(args.output).write_text(text)
        _write_manifest(args.output, manifest)
        return 0

    if args.output is None:
        for name in sorted(tables):
            cols, source = tables[name]
            _write_csv(sys.stdout, cols, source(True))
        return 0
    out = Path(args.output)
    for name, (cols, source) in tables.items():
        path = out if not name else out.with_name(out.stem + f"_{name}" + out.suffix)
        with path.open("w", newline="") as fh:
            _write_csv(fh, cols, source(True))
    _write_manifest(args.output, manifest)
    return 0


def _write_manifest(output_path, manifest: dict) -> None:
    path = Path(output_path)
    path.with_name(path.stem + ".manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n"
    )


def _parse_thresholds(text: str) -> tuple[int, ...]:
    """Accept '2,5' lists and '2..8' inclusive ranges."""
    text = text.strip()
    try:
        if ".." in text:
            lo, _, hi = text.partition("..")
            values = tuple(range(int(lo), int(hi) + 1))
        else:
            values = tuple(int(part) for part in text.split(","))
    except ValueError:
        values = ()
    if not values or any(n < 1 for n in values):
        raise argparse.ArgumentTypeError(f"invalid threshold list {text!r}")
    return values


def _grid(args) -> list[float]:
    if args.grid_scale == "log":
        return log_grid(args.grid_min, args.grid_max, args.grid_points)
    if not (math.isfinite(args.grid_min) and math.isfinite(args.grid_max)):
        raise ValueError(f"grid bounds must be finite, got {args.grid_min!r} and {args.grid_max!r}")
    if args.grid_points < 2:
        raise ValueError(f"a linear grid needs at least 2 points, got {args.grid_points}")
    step = (args.grid_max - args.grid_min) / (args.grid_points - 1)
    return [args.grid_min + i * step for i in range(args.grid_points - 1)] + [args.grid_max]


# --- subcommands ---


def _cmd_pmf(args) -> int:
    kind = SourceKind(args.kind)
    needs = {SourceKind.THERMAL: ("n_th",), SourceKind.POISSON: ("n_p",), SourceKind.MIXED: ("n_p", "n_th")}
    for name in ("n_p", "n_th"):
        needed = name in needs[kind]
        if needed != (getattr(args, name) is not None):
            flag = f"--{name.replace('_', '-')}"
            raise ValueError(f"{flag} is {'required for' if needed else 'not used by'} kind {kind.value}")
    params = SourceParams(args.n_p or 0.0, args.n_th or 0.0)
    pmf = build_pmf(kind, params, args.tolerance, args.n_max)
    manifest = _manifest("pmf", {
        "kind": kind.value, "n_p_mean": params.n_p_mean, "n_th_mean": params.n_th_mean,
        "n_max": pmf.n_max, "tolerance": args.tolerance, "residual": pmf.residual,
    })
    rows = [(n, p) for n, p in enumerate(pmf.probs)]
    data = {"columns": ["n", "probability"], "rows": rows,
            "n_max": pmf.n_max, "residual": pmf.residual}
    return _emit(args, manifest, {"": (["n", "probability"], _rows(rows))}, data)


def _cmd_snr(args) -> int:
    params = SourceParams(args.n_p, args.n_th)
    report = snr_report(params, args.thresholds)
    manifest = _manifest("snr", {
        "n_p_mean": params.n_p_mean, "n_th_mean": params.n_th_mean,
        "thresholds": list(args.thresholds),
    })
    rows = [(n, report.classical, report.quantum[n], report.ratio[n]) for n in args.thresholds]
    data = {
        "classical": report.classical,
        "quantum": {str(n): report.quantum[n] for n in args.thresholds},
        "ratio": {str(n): report.ratio[n] for n in args.thresholds},
    }
    return _emit(
        args,
        manifest,
        {"": (["threshold_n", "classical_snr", "quantum_snr", "snr_ratio"], _rows(rows))},
        data,
        default_format="structured",
    )


def _cmd_sweep(args) -> int:
    grid = _grid(args)
    table = sweep_ratio(args.n_th, args.thresholds, grid)
    ratios = table.tolist()

    def rows(text):
        if not text:
            for n, values in zip(args.thresholds, ratios):
                yield from zip(grid, repeat(n), values)
            return
        # One text block per threshold from one template of "g,\0,%r" lines,
        # each grid value formatted once: %r is a float's repr, and repr puts
        # ".0" only at the end of an integral float, so _csv_block's rule is
        # one replace over the block, needed only where a ratio is integral
        # (the replace scans the block at about 0.85 ns a byte).
        template = _csv_block(grid).replace("\n", ",\0,%r\n")
        integral = (table == table.round()).any(axis=1).tolist()
        for n, values, dot_zero in zip(args.thresholds, ratios, integral):
            block = template.replace("\0", str(n)) % tuple(values)
            yield block.replace(".0\n", "\n") if dot_zero else block

    manifest = _manifest("sweep", {
        "n_th_mean": args.n_th, "thresholds": list(args.thresholds),
        "grid_min": args.grid_min, "grid_max": args.grid_max,
        "grid_points": args.grid_points, "grid_scale": args.grid_scale,
    })
    return _emit(args, manifest, {"": (["n_p_mean", "threshold_n", "ratio"], rows)})


def _cmd_optimum(args) -> int:
    rows = [
        (opt.threshold_n, opt.n_th_mean, opt.best_n_p_mean, opt.best_ratio)
        for opt in find_optima(args.n_th, args.thresholds)
    ]
    manifest = _manifest("optimum", {"n_th_mean": args.n_th, "thresholds": list(args.thresholds)})
    columns = ["threshold_n", "n_th_mean", "best_n_p_mean", "best_ratio"]
    return _emit(args, manifest, {"": (columns, _rows(rows))})


def _cmd_boundary(args) -> int:
    grid = log_grid(args.nth_min, args.nth_max, args.nth_points)
    rows = []
    skipped = []
    multiple = []
    sides = []  # each threshold's no_crossing sides, for the error of an empty table
    for n, curve in zip(args.thresholds, find_boundary(args.thresholds, grid)):
        rows.extend((n, n_th, n_p, ratio) for (n_th, n_p), ratio in zip(curve.points, curve.ratios))
        skipped.extend({"threshold_n": n, "n_th_mean": t, "side": side} for t, side in curve.no_crossing)
        multiple.extend({"threshold_n": n, "n_th_mean": t} for t in curve.multiple_crossings)
        sides.append(f"N = {n} {'/'.join(dict.fromkeys(side for _, side in curve.no_crossing))}")
    if not rows:
        raise ValueError(
            f"no threshold has a ratio == 1 crossing on the noise grid (no_crossing: {', '.join(sides)})"
        )
    manifest = _manifest("boundary", {
        "thresholds": list(args.thresholds), "nth_min": args.nth_min,
        "nth_max": args.nth_max, "nth_points": args.nth_points,
        "no_crossing": skipped, "multiple_crossings": multiple,
    })
    return _emit(args, manifest, {"": (["threshold_n", "n_th_mean", "n_p_mean", "ratio"], _rows(rows))})


def _cmd_simulate(args) -> int:
    config = load_sim_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.repetitions is not None:
        config = replace(config, repetitions=args.repetitions)
    bin_rows, ratio_rows = _simulation_rows(config)
    bin_cols = ["bin", "intensity_norm"] + [f"threshold_{n}_norm" for n in config.thresholds]
    ratio_cols = ["bin", "signal_mean", "threshold_n", "intensity_norm", "threshold_norm",
                  "ratio", "intensity_se", "threshold_se"]
    manifest = _manifest("simulate", asdict(config), seed=config.seed)
    data = {
        "bins": {"columns": bin_cols, "rows": bin_rows},
        "ratios": {"columns": ratio_cols, "rows": ratio_rows},
    }
    tables = {"": (bin_cols, _rows(bin_rows)), "ratios": (ratio_cols, _rows(ratio_rows))}
    return _emit(args, manifest, tables, data)


def _simulation_rows(config: SimConfig) -> tuple[list, list]:
    """The bin rows and the (target, threshold) ratio rows of one run; the run's
    arrays are freed before the tables are written."""
    result = run_simulation(config)
    bin_rows = list(zip(
        range(config.num_bins), result.intensity_norm.tolist(), *(result.threshold_norm[n].tolist() for n in config.thresholds)
    ))
    ratio_rows = []
    for b, signal_mean in config.targets:
        for n in config.thresholds:
            est = estimate_ratio(result, b, n)
            ratio_rows.append((b, signal_mean, n, est.intensity_value, est.threshold_value,
                               est.ratio, est.intensity_se, est.threshold_se))
    return bin_rows, ratio_rows


# --- simulation config files ---

def _parse_targets(text: str) -> tuple[tuple[int, float], ...]:
    """'10:0.5, 20:1' -> ((10, 0.5), (20, 1.0)); empty string means no targets."""
    targets = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        bin_part, sep, mean_part = chunk.partition(":")
        if not sep:
            raise ValueError(f"expected 'bin:mean', got {chunk!r}")
        targets.append((int(bin_part), float(mean_part)))
    return tuple(targets)


_CONFIG_PARSERS = {
    "num_bins": int,
    "noise_mean": float,
    "repetitions": int,
    "seed": int,
    "targets": _parse_targets,
    "thresholds": lambda text: tuple(int(v) for v in text.split(",")),
}


def parse_sim_config(text: str, source: str = "<config>") -> SimConfig:
    """Parse a flat key = value simulation config; errors carry file:line."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or not key or not val:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        if key not in _CONFIG_PARSERS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r} "
                              f"(valid: {', '.join(sorted(_CONFIG_PARSERS))})")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = _CONFIG_PARSERS[key](val)
        except (ValueError, IndexError):
            raise ConfigError(f"{source}:{lineno}: cannot parse value {val!r} for {key!r}") from None
    missing = [k for k in ("repetitions", "seed") if k not in values]
    if missing:
        raise ConfigError(f"{source}: missing required key(s): {', '.join(missing)}")
    try:
        return SimConfig(**values)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def bundled_config_path(name: str):
    """Path of a config shipped with the package (e.g. 'paper_fig4.cfg')."""
    return resources.files(__package__).joinpath("configs").joinpath(name)


def load_sim_config(spec: str) -> SimConfig:
    """Load a simulation config from a file path or a bundled config name."""
    path = Path(spec)
    if path.exists():
        return parse_sim_config(path.read_text(), str(path))
    bundled = bundled_config_path(spec if spec.endswith(".cfg") else spec + ".cfg")
    if bundled.is_file():
        return parse_sim_config(bundled.read_text(), spec)
    raise ConfigError(f"config file not found: {spec}")


# --- argument wiring ---


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pnrlidar",
        description="Photon-number threshold detection statistics and rangefinder simulation.",
    )
    parser.add_argument("--version", action="version", version=f"pnrlidar {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", type=str, default=None, help="output file (default: stdout)")
    common.add_argument("--format", choices=("csv", "structured"), default=None,
                        help="csv for tables (default), structured for one JSON document")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("pmf", parents=[common], help="photon-number PMF table")
    p.add_argument("--kind", choices=("thermal", "poisson", "mixed"), required=True)
    p.add_argument("--n-p", dest="n_p", type=float, default=None, help="signal mean photon number")
    p.add_argument("--n-th", dest="n_th", type=float, default=None, help="noise mean photon number")
    p.add_argument("--n-max", dest="n_max", type=int, default=None, help="fixed truncation bound")
    p.add_argument("--tolerance", type=float, default=1e-12, help="residual tail tolerance")
    p.set_defaults(func=_cmd_pmf)

    p = sub.add_parser("snr", parents=[common], help="classical vs threshold SNR at one point")
    p.add_argument("--n-p", dest="n_p", type=float, required=True)
    p.add_argument("--n-th", dest="n_th", type=float, required=True)
    p.add_argument("--thresholds", type=_parse_thresholds, default=(2, 5))
    p.set_defaults(func=_cmd_snr)

    p = sub.add_parser("sweep", parents=[common], help="SNR-ratio curves over a signal grid")
    p.add_argument("--n-th", dest="n_th", type=float, required=True)
    p.add_argument("--thresholds", type=_parse_thresholds, default=(2, 3, 4, 5))
    p.add_argument("--grid-min", type=float, default=0.01)
    p.add_argument("--grid-max", type=float, default=100.0)
    p.add_argument("--grid-points", type=int, default=200)
    p.add_argument("--grid-scale", choices=("log", "linear"), default="log")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("optimum", parents=[common], help="best signal mean per threshold")
    p.add_argument("--n-th", dest="n_th", type=float, required=True)
    p.add_argument("--thresholds", type=_parse_thresholds, default=(2, 3, 4, 5))
    p.set_defaults(func=_cmd_optimum)

    p = sub.add_parser("boundary", parents=[common], help="ratio == 1 advantage boundary")
    p.add_argument("--thresholds", type=_parse_thresholds, default=(2, 3, 4, 5))
    p.add_argument("--nth-min", type=float, default=0.2)
    p.add_argument("--nth-max", type=float, default=40.0)
    p.add_argument("--nth-points", type=int, default=60)
    p.set_defaults(func=_cmd_boundary)

    p = sub.add_parser("simulate", parents=[common], help="time-binned Monte Carlo rangefinder")
    p.add_argument("--config", required=True, help="config file path or bundled name")
    p.add_argument("--seed", type=int, default=None, help="seed override")
    p.add_argument("--repetitions", type=int, default=None, help="repetitions override")
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader closed stdout (as `| head` does).  Point stdout at
        # devnull, so that the flush at shutdown raises nothing, and exit quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"pnrlidar: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
