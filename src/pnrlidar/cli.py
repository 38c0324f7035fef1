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
from itertools import chain, repeat
from pathlib import Path

from . import __version__
from .photon_stats import PmfTruncationError, SourceParams, build_pmf
from .rangefinder_sim import SimConfig, estimate_ratio, run_simulation
from .snr_analysis import find_boundary, find_optima, log_grid, snr_report, sweep_ratio

__all__ = ["main", "ConfigError", "parse_sim_config", "bundled_config_path"]

# Rows of a `pmf` table formatted at a time in CSV.
_PMF_BLOCK = 2**16


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


def _manifest(subcommand: str, parameters: dict, seed=None) -> dict:
    return {
        "tool": "pnrlidar",
        "version": __version__,
        "subcommand": subcommand,
        "parameters": parameters,
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _emit(args, manifest: dict, tables: dict[str, tuple], data: dict | None = None,
          default_format: str = "csv") -> int:
    """Write the tables as CSV, or as one structured JSON document, to stdout
    or to ``--output`` with the JSON manifest beside it.

    ``tables`` maps each table's JSON name to ``(columns, rows)`` or
    ``(columns, rows, text)``: ``rows`` holds or yields the rows of values,
    and ``text``, where given, yields the CSV lines in pieces of whole lines,
    each value as ``_csv_block`` writes it.  The structured document holds
    ``{name: {"columns", "rows"}}``, or ``data`` where a command passes it.
    In CSV the first table is the primary file, and every other table takes
    its name as a suffix of the file name.
    """
    if (args.format or default_format) == "structured":
        payload = data if data is not None else {
            name: {"columns": table[0], "rows": list(table[1])} for name, table in tables.items()
        }
        # the document in the encoder's pieces, so no whole-document string is made
        files = {"": chain(json.JSONEncoder(indent=2).iterencode({"manifest": manifest, "data": payload}), ["\n"])}
    else:
        # Every field is a number or a column name, so none needs quoting.
        files = {
            f"_{name}" if i else "": chain([",".join(table[0]) + "\n"],
                                         table[2] if len(table) > 2 else [_csv_block(*zip(*table[1]))])
            for i, (name, table) in enumerate(tables.items())
        }
    if args.output is None:
        for pieces in files.values():
            sys.stdout.writelines(pieces)
        return 0
    out = Path(args.output)
    for suffix, pieces in files.items():
        with (out.with_name(out.stem + suffix + out.suffix) if suffix else out).open("w", newline="") as fh:
            fh.writelines(pieces)
    out.with_name(out.stem + ".manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return 0


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
    lo, hi, points = args.grid_min, args.grid_max, args.grid_points
    if args.grid_scale == "log":
        grid = log_grid(lo, hi, points)
    else:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"grid bounds must be finite, got {lo!r} and {hi!r}")
        if points < 2:
            raise ValueError(f"a linear grid needs at least 2 points, got {points}")
        if not lo < hi:
            raise ValueError(f"a linear grid needs --grid-min < --grid-max, got {lo!r} and {hi!r}")
        if lo < 0.0:
            raise ValueError(f"a linear grid needs --grid-min >= 0, got {lo!r}")
        step = (hi - lo) / (points - 1)
        grid = [lo + i * step for i in range(points - 1)] + [hi]
    return _distinct(grid, "--grid", lo, hi, points)


def _distinct(grid, options, lo, hi, points) -> list[float]:
    """``grid``, refused by the names of its options (``{options}-points`` and
    its bounds) where bounds a few ulps apart round its points to repeats."""
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(
            f"the {points} {options}-points between {options}-min {lo!r} and {options}-max {hi!r} "
            "repeat after rounding"
        )
    return grid


# --- subcommands ---


def _cmd_pmf(args) -> int:
    needs = {"thermal": ("n_th",), "poisson": ("n_p",), "mixed": ("n_p", "n_th")}[args.kind]
    for name in ("n_p", "n_th"):
        needed = name in needs
        if needed != (getattr(args, name) is not None):
            flag = f"--{name.replace('_', '-')}"
            raise ValueError(f"{flag} is {'required for' if needed else 'not used by'} kind {args.kind}")
    # the kind's unused mean is absent, so the law's other part is zero
    params = SourceParams(args.n_p or 0.0, args.n_th or 0.0)
    try:
        pmf = build_pmf(params, args.tolerance, args.n_max)
    except PmfTruncationError as exc:
        raise ValueError(f"--{exc.name.replace('_', '-')} {exc.value!r}: {exc.detail}") from None
    manifest = _manifest("pmf", {
        "kind": args.kind, "n_p_mean": params.n_p_mean, "n_th_mean": params.n_th_mean,
        "n_max": pmf.n_max, "tolerance": args.tolerance, "residual": pmf.residual,
    })
    columns = ["n", "probability"]
    if args.format == "structured":
        data = {"columns": columns, "rows": list(enumerate(pmf.probs)), "n_max": pmf.n_max, "residual": pmf.residual}
        return _emit(args, manifest, {}, data)
    # the CSV text in blocks of rows, so no row tuples or whole-table string are made
    text = (_csv_block(range(start, start + _PMF_BLOCK), pmf.probs[start:start + _PMF_BLOCK])
            for start in range(0, len(pmf.probs), _PMF_BLOCK))
    return _emit(args, manifest, {"table": (columns, (), text)})


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
        {"table": (["threshold_n", "classical_snr", "quantum_snr", "snr_ratio"], rows)},
        data,
        default_format="structured",
    )


def _cmd_sweep(args) -> int:
    grid = _grid(args)
    table = sweep_ratio(args.n_th, args.thresholds, grid)

    # rows() and text() turn one threshold's ratios into Python floats at a
    # time, not the whole table at once
    def rows():
        for n, values in zip(args.thresholds, table):
            yield from zip(grid, repeat(n), values.tolist())

    def text():
        # One text block per threshold from one template of "g,\0,%r" lines,
        # each grid value formatted once: %r is a float's repr, and repr puts
        # ".0" only at the end of an integral float, so _csv_block's rule is
        # one replace over the block, needed only where a ratio is integral
        # (the replace scans the block at about 0.85 ns a byte).
        template = _csv_block(grid).replace("\n", ",\0,%r\n")
        integral = (table == table.round()).any(axis=1).tolist()
        for n, values, dot_zero in zip(args.thresholds, table, integral):
            block = template.replace("\0", str(n)) % tuple(values.tolist())
            yield block.replace(".0\n", "\n") if dot_zero else block

    manifest = _manifest("sweep", {
        "n_th_mean": args.n_th, "thresholds": list(args.thresholds),
        "grid_min": args.grid_min, "grid_max": args.grid_max,
        "grid_points": args.grid_points, "grid_scale": args.grid_scale,
    })
    return _emit(args, manifest, {"table": (["n_p_mean", "threshold_n", "ratio"], rows(), text())})


def _cmd_optimum(args) -> int:
    rows = [
        (opt.threshold_n, opt.n_th_mean, opt.best_n_p_mean, opt.best_ratio)
        for opt in find_optima(args.n_th, args.thresholds)
    ]
    manifest = _manifest("optimum", {"n_th_mean": args.n_th, "thresholds": list(args.thresholds)})
    columns = ["threshold_n", "n_th_mean", "best_n_p_mean", "best_ratio"]
    return _emit(args, manifest, {"table": (columns, rows)})


def _cmd_boundary(args) -> int:
    lo, hi, points = args.nth_min, args.nth_max, args.nth_points
    if not (0.0 < lo < hi < math.inf and points >= 2):
        raise ValueError(
            "need 0 < --nth-min < --nth-max < inf and --nth-points >= 2, "
            f"got --nth-min {lo!r}, --nth-max {hi!r} and --nth-points {points}"
        )
    grid = _distinct(log_grid(lo, hi, points), "--nth", lo, hi, points)
    rows = []
    skipped = []
    multiple = []
    sides = []  # each threshold's no_crossing sides, for the error of an empty table
    warnings = []  # one line per flagged cell, for stderr once the table is accepted
    for n, curve in zip(args.thresholds, find_boundary(args.thresholds, grid)):
        rows.extend((n, n_th, n_p, ratio) for (n_th, n_p), ratio in zip(curve.points, curve.ratios))
        skipped.extend({"threshold_n": n, "n_th_mean": t, "side": side} for t, side in curve.no_crossing)
        multiple.extend({"threshold_n": n, "n_th_mean": t} for t, _ in curve.multiple_crossings)
        sides.append(f"N = {n} {'/'.join(dict.fromkeys(side for _, side in curve.no_crossing))}")
        warnings += [f"N = {n}, n_th = {t!r}: no ratio == 1 crossing ({side})" for t, side in curve.no_crossing]
        warnings += [f"N = {n}, n_th = {t!r}: {changes} sign changes of ratio - 1; the largest-n_p crossing is kept"
                     for t, changes in curve.multiple_crossings]
    if not rows:  # N = 1's reason is a theorem, not a side of the grid
        theorem = "N = 1 never beats intensity: ratio < 1 for every n_p > 0"
        sides = [theorem if n == 1 else side for n, side in zip(args.thresholds, sides)]
        raise ValueError(
            f"no threshold has a ratio == 1 crossing on the noise grid (no_crossing: {', '.join(sides)})"
        )
    sys.stderr.writelines(f"pnrlidar: warning: {line}\n" for line in warnings)
    manifest = _manifest("boundary", {
        "thresholds": list(args.thresholds), "nth_min": args.nth_min,
        "nth_max": args.nth_max, "nth_points": args.nth_points,
        "no_crossing": skipped, "multiple_crossings": multiple,
    })
    return _emit(args, manifest, {"table": (["threshold_n", "n_th_mean", "n_p_mean", "ratio"], rows)})


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
    return _emit(args, manifest, {"bins": (bin_cols, bin_rows), "ratios": (ratio_cols, ratio_rows)})


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
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: cannot parse value {val!r} for {key!r}: {exc}") from None
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


def _subparser(*, named, **kwargs):
    """A subcommand's parser, or None for one that argv does not name."""
    return argparse.ArgumentParser(**kwargs) if named else None


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for one argv.  Every subcommand is listed with its help
    line, but only those whose name occurs in argv get a parser: argparse
    dispatches on an exact name and reads no other subcommand's parser."""
    parser = argparse.ArgumentParser(
        prog="pnrlidar",
        description="Photon-number threshold detection statistics and rangefinder simulation.",
    )
    parser.add_argument("--version", action="version", version=f"pnrlidar {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_subparser)
    named = set(argv)

    def command(name, help_line, func):
        p = sub.add_parser(name, help=help_line, named=name in named)
        if p is None:
            return None
        p.add_argument("--output", type=str, default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "structured"), default=None,
                       help="csv for tables (default), structured for one JSON document")
        p.set_defaults(func=func)
        return p

    if p := command("pmf", "photon-number PMF table", _cmd_pmf):
        p.add_argument("--kind", choices=("thermal", "poisson", "mixed"), required=True)
        p.add_argument("--n-p", dest="n_p", type=float, default=None, help="signal mean photon number")
        p.add_argument("--n-th", dest="n_th", type=float, default=None, help="noise mean photon number")
        p.add_argument("--n-max", dest="n_max", type=int, default=None, help="fixed truncation bound")
        p.add_argument("--tolerance", type=float, default=1e-12, help="residual tail tolerance")

    if p := command("snr", "classical vs threshold SNR at one point", _cmd_snr):
        p.add_argument("--n-p", dest="n_p", type=float, required=True)
        p.add_argument("--n-th", dest="n_th", type=float, required=True)
        p.add_argument("--thresholds", type=_parse_thresholds, default=(2, 5))

    if p := command("sweep", "SNR-ratio curves over a signal grid", _cmd_sweep):
        p.add_argument("--n-th", dest="n_th", type=float, required=True)
        p.add_argument("--thresholds", type=_parse_thresholds, default=(2, 3, 4, 5))
        p.add_argument("--grid-min", type=float, default=0.01)
        p.add_argument("--grid-max", type=float, default=100.0)
        p.add_argument("--grid-points", type=int, default=200)
        p.add_argument("--grid-scale", choices=("log", "linear"), default="log")

    if p := command("optimum", "best signal mean per threshold", _cmd_optimum):
        p.add_argument("--n-th", dest="n_th", type=float, required=True)
        p.add_argument("--thresholds", type=_parse_thresholds, default=(2, 3, 4, 5))

    if p := command("boundary", "ratio == 1 advantage boundary", _cmd_boundary):
        p.add_argument("--thresholds", type=_parse_thresholds, default=(2, 3, 4, 5))
        p.add_argument("--nth-min", type=float, default=0.2)
        p.add_argument("--nth-max", type=float, default=40.0)
        p.add_argument("--nth-points", type=int, default=60)

    if p := command("simulate", "time-binned Monte Carlo rangefinder", _cmd_simulate):
        p.add_argument("--config", required=True, help="config file path or bundled name")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--repetitions", type=int, default=None, help="repetitions override")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser(argv).parse_args(argv)
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
