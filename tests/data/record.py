"""Recorders for the reference files that the tests compare against.

Each recorder rebuilds its file from the current code over the case list
stored in the file itself and returns the new text, so a re-record keeps
every case: cases can be added to a file, never dropped by a recorder.

    PYTHONPATH=src python tests/data/record.py boundary cli mixed_tail sampler_tables simulation           # rewrite all five
    PYTHONPATH=src python tests/data/record.py --report boundary cli mixed_tail sampler_tables simulation  # print what would move

The report prints each boundary point that would move, with its old and new
|ratio - 1| by 40-digit mpmath (the tests' oracle), then a summary; for the
CLI file it names each argv whose exit code or stdout would change; for the
tail parts it prints each moved value with its old and new relative error
against 40-digit mpmath's sums of the parts; for the sampler tables it
prints each law whose n_max, residual or cells would move, with the old and
new residual's relative error against the mass beyond the table by 40-digit
mpmath, and for its cells, residual and overflow weights how many moved;
for the simulations it names each case and bin whose channels would move,
with the bin's old and new count sum.  The tail parts' and sampler tables'
summaries end with how many moved values came closer to mpmath, stayed as
close or moved away, and the worst moved error before and after.  The mpmath
references are the tests' own, from tests/oracles.py, which this module puts
on the import path when it runs as a script.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import re
import sys
from pathlib import Path

import numpy as np

from pnrlidar.cli import main
from pnrlidar.photon_stats import SourceParams, _mixed_tail, _overflow_weights, build_pmf, mixed_tail_parts
from pnrlidar.rangefinder_sim import SimConfig, run_simulation
from pnrlidar.snr_analysis import find_boundary, log_grid

DATA = Path(__file__).parent
if str(DATA.parent) not in sys.path:  # run as a script: the oracles live in tests/
    sys.path.insert(0, str(DATA.parent))
from oracles import cell_mp, ratio_mp, relative_error, tail_beyond_mp, tail_parts_mp, weight_mp

BOUNDARY_ABOUT = (
    "find_boundary curves on log_grid(nth_min, nth_max, nth_points), one per threshold in input order, "
    "noise levels, signal means and ratios as float.hex: the boundary command's defaults; N = 2 up to "
    "n_th = 5000, whose excess ratio - 1 loses its digits there and flags spurious multiple crossings; "
    "N = 1, 2 at n_th = 1e3..1e4; unsorted, repeated thresholds on 37 levels; recorded by "
    "tests/data/record.py from the lockstep search whose Newton steps put each point on ratio == 1 "
    "to rounding, with numpy 2.4.6 on x86_64"
)
CLI_ABOUT = (
    "main(argv) stdout and exit code per argv, the manifest's timestamp line dropped from structured "
    "output; recorded by tests/data/record.py with numpy 2.4.6 on x86_64; the boundary rows from the "
    "Newton root search, each ratio 1 to rounding"
)
MIXED_TAIL_ABOUT = (
    "the outputs poisson, scaled, last and head of mixed_tail_parts(threshold_n[:, None], n_p, x), and tail of "
    "_mixed_tail(N, n_p, x) at each element's N, n_p and x, at the listed flat output elements, as float.hex; "
    "recorded by tests/data/record.py from Poisson rows that recur from e^-mean at every row below 1024 for "
    "means up to 30 and take log space for larger means, numpy 2.4.6 on x86_64"
)
SAMPLER_ABOUT = (
    "build_pmf(SourceParams(n_p, n_th), **args) and _overflow_weights of that table, as float.hex, each law "
    "labelled by its pmf --kind: the rangefinder's tables (n_max as rangefinder_sim._count_table sets it) for the "
    "fig-4 laws (noise and targets at n_th = 1) and perfbench/strong_target.cfg's targets, and one tolerance-mode "
    "table per kind; each residual the law's mass beyond n_max, summed in positive terms; the Poisson rows of "
    "means up to 30 recur from e^-mean at every row below 1024; recorded by tests/data/record.py with numpy "
    "2.4.6 on x86_64"
)
SIMULATION_ABOUT = (
    "run_simulation(SimConfig(**config)) raw channels, the square sums as float.hex: paper_fig4 at R = 5 and "
    "200000, seeds 1 and 2; the strong-target layout (targets 10:50 and 30:500, 100k repetitions); noise 1e8 at "
    "1000 repetitions, whose square sums pass 2^53; and noise 1e5, wider than the sampler's table cap; recorded "
    "with numpy 2.4.6 on x86_64"
)


def _dumps(document: dict) -> str:
    return json.dumps(document, indent=1) + "\n"


def _cases(name: str) -> list[dict]:
    return json.loads((DATA / name).read_text())["cases"]


def boundary_curves(case: dict) -> list[dict]:
    """One boundary case's curves, as the file stores them: every float as float.hex."""
    grid = log_grid(case["nth_min"], case["nth_max"], case["nth_points"])
    return [
        {
            "threshold_n": curve.threshold_n,
            "points": [[n_th.hex(), n_p.hex()] for n_th, n_p in curve.points],
            "ratios": [ratio.hex() for ratio in curve.ratios],
            "no_crossing": [[n_th.hex(), side] for n_th, side in curve.no_crossing],
            "multiple_crossings": [n_th.hex() for n_th, _ in curve.multiple_crossings],
        }
        for curve in find_boundary(case["thresholds"], grid)
    ]


def record_boundary() -> str:
    """The text of boundary_reference.json, its cases re-run."""
    keys = ("thresholds", "nth_min", "nth_max", "nth_points")
    cases = [{**{key: case[key] for key in keys}, "curves": boundary_curves(case)}
             for case in _cases("boundary_reference.json")]
    return _dumps({"about": BOUNDARY_ABOUT, "cases": cases})


def cli_run(argv: list[str]) -> tuple[int, str]:
    """main(argv)'s exit code and stdout, without the manifest's timestamp line."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(list(argv))
    return code, re.sub(r',\n *"timestamp": "[^"\n]*"', "", out.getvalue())


def record_cli() -> str:
    """The text of cli_reference.json, its argvs re-run."""
    cases = []
    for case in _cases("cli_reference.json"):
        code, stdout = cli_run(case["argv"])
        cases.append({"argv": case["argv"], "exit_code": code, "stdout": stdout})
    return _dumps({"about": CLI_ABOUT, "cases": cases})


def mixed_tail_inputs(case: dict) -> tuple[tuple[np.ndarray, ...], list[tuple]]:
    """One case's arrays (the thresholds as a column, n_p and x) and the (N, n_p, x) of each listed element."""
    big_n = np.array(case["threshold_n"])[:, None]
    n_p, x = (np.array([float.fromhex(h) for h in case[key]]) for key in ("n_p", "x"))
    shape = np.broadcast_shapes(big_n.shape, n_p.shape, x.shape)
    columns = (np.broadcast_to(a, shape).ravel()[case["elements"]].tolist() for a in (big_n, n_p, x))
    return (big_n, n_p, x), list(zip(*columns))


def mixed_tail_outputs(case: dict) -> dict:
    """One case's outputs at its listed elements, as the file stores them: every float as float.hex."""
    arrays, elements = mixed_tail_inputs(case)
    outputs = {"tail": [_mixed_tail(*element).hex() for element in elements]}
    for name, part in zip(("poisson", "scaled", "last", "head"), mixed_tail_parts(*arrays), strict=True):
        outputs[name] = [v.hex() for v in part.ravel()[case["elements"]].tolist()]
    return outputs


def record_mixed_tail() -> str:
    """The text of mixed_tail_reference.json, its elements re-run; each output's list on one line."""
    keys = ("threshold_n", "n_p", "x", "elements")
    cases = [{**{key: case[key] for key in keys}, "outputs": mixed_tail_outputs(case)}
             for case in _cases("mixed_tail_reference.json")]
    return _lines(MIXED_TAIL_ABOUT, "cases", cases, expand="outputs")


def sampler_table(law: dict) -> dict:
    """One law's table and overflow weights, as the file stores them: every float as float.hex."""
    pmf = build_pmf(SourceParams(law["n_p"], law["n_th"]), **law["args"])
    weights = _overflow_weights(pmf.params, pmf.probs)
    return {"n_max": pmf.n_max, "residual": pmf.residual.hex(), "probs": [p.hex() for p in pmf.probs],
            "weights": [w.hex() for w in weights]}


def record_sampler_tables() -> str:
    """The text of sampler_tables_reference.json, its laws re-tabulated; a law's lists on one line each."""
    laws = [{**{key: law[key] for key in ("kind", "n_p", "n_th", "args")}, **sampler_table(law)}
            for law in json.loads((DATA / "sampler_tables_reference.json").read_text())["laws"]]
    return _lines(SAMPLER_ABOUT, "laws", laws)


def _lines(about: str, name: str, items: list[dict], expand: str | None = None) -> str:
    """A document of ``about`` and the list ``name``, each item's fields on one line each, and the
    fields of its dict ``expand`` on one line each, a level deeper."""
    def fields(item: dict, indent: str) -> str:
        return ",\n".join(f"{indent}{json.dumps(k)}: " + (
            "{\n" + fields(v, indent + " ") + f"\n{indent}}}" if k == expand else json.dumps(v))
            for k, v in item.items())

    texts = ["  {\n" + fields(item, "   ") + "\n  }" for item in items]
    return '{\n "about": ' + json.dumps(about) + f',\n "{name}": [\n' + ",\n".join(texts) + "\n ]\n}\n"


def simulation_channels(config: dict) -> dict:
    """One run's raw channels, as the file stores them: the square sums as float.hex."""
    result = run_simulation(SimConfig(**{**config, "targets": tuple(map(tuple, config["targets"]))}))
    return {"intensity_raw": result.intensity_raw.tolist(),
            "intensity_sq_raw": [float(v).hex() for v in result.intensity_sq_raw],
            "threshold_raw": {str(n): raw.tolist() for n, raw in result.threshold_raw.items()}}


def record_simulation() -> str:
    """The text of simulation_reference.json, its configs re-run; a case's lists on one line each."""
    cases = [{"config": case["config"], **simulation_channels(case["config"])}
             for case in _cases("simulation_reference.json")]
    return _lines(SIMULATION_ABOUT, "cases", cases)


def report_boundary(new_text: str) -> None:
    """Print each moved boundary point with its old and new |ratio - 1| by mpmath, then a summary."""
    def excess(n_p, n_th, big_n):
        return abs(float(ratio_mp(float.fromhex(n_p), float.fromhex(n_th), big_n) - 1))

    moved, worst_old, worst_new, same_levels = 0, 0.0, 0.0, True
    old_cases, new_cases = _cases("boundary_reference.json"), json.loads(new_text)["cases"]
    for old_case, new_case in zip(old_cases, new_cases):
        for old, new in zip(old_case["curves"], new_case["curves"]):
            n = old["threshold_n"]
            same_levels &= [t for t, _ in old["points"]] == [t for t, _ in new["points"]]
            same_levels &= (old["no_crossing"], old["multiple_crossings"]) == (
                new["no_crossing"], new["multiple_crossings"])
            for (n_th, p_old), (_, p_new) in zip(old["points"], new["points"]):
                if p_old == p_new:
                    continue
                moved += 1
                before, after = excess(p_old, n_th, n), excess(p_new, n_th, n)
                worst_old, worst_new = max(worst_old, before), max(worst_new, after)
                print(f"N = {n}, n_th = {float.fromhex(n_th)!r}: n_p {float.fromhex(p_old)!r} -> "
                      f"{float.fromhex(p_new)!r}, |ratio - 1| {before:.2e} -> {after:.2e}")
    total = sum(len(curve["points"]) for case in new_cases for curve in case["curves"])
    print(f"boundary: {moved} of {total} points moved; worst |ratio - 1| by mpmath {worst_old:.2e} -> "
          f"{worst_new:.2e}; levels, no_crossing and multiple_crossings "
          f"{'unchanged' if same_levels else 'CHANGED'}")


def report_cli(new_text: str) -> None:
    """Name each argv whose recorded exit code or stdout would change."""
    old_cases, new_cases = _cases("cli_reference.json"), json.loads(new_text)["cases"]
    moved = [" ".join(new["argv"]) for old, new in zip(old_cases, new_cases) if old != new]
    for argv in moved:
        print(f"cli: {argv} moved")
    print(f"cli: {len(moved)} of {len(new_cases)} argvs moved")


def report_mixed_tail(new_text: str) -> None:
    """Print each moved output with its old and new relative error against mpmath, then a summary."""
    moved, total = [], 0
    for old, new in zip(_cases("mixed_tail_reference.json"), json.loads(new_text)["cases"]):
        elements = mixed_tail_inputs(old)[1]
        for name, values in new["outputs"].items():
            for (n, mean, ratio), before, after in zip(elements, old["outputs"][name], values, strict=True):
                total += 1
                if before == after:
                    continue
                exact = tail_parts_mp(n, mean, ratio)[name]
                moved.append([relative_error(float.fromhex(h), exact) for h in (before, after)])
                print(f"{name} at N = {n}, n_p = {mean!r}, x = {ratio!r}: {before} -> {after}, "
                      f"relative error {moved[-1][0]:.2e} -> {moved[-1][1]:.2e}")
    print(f"mixed_tail: {len(moved)} of {total} values moved; {_tally(moved)}")


def report_sampler_tables(new_text: str) -> None:
    """Print each law whose table would move, with its old and new residual's error against mpmath."""
    old_laws = json.loads((DATA / "sampler_tables_reference.json").read_text())["laws"]
    new_laws = json.loads(new_text)["laws"]
    moved_laws, moved = 0, []
    for old, new in zip(old_laws, new_laws):
        if all(old.get(key) == value for key, value in new.items()):
            continue
        moved_laws += 1
        kind, n_p, n_th = old["kind"], old["n_p"], old["n_th"]
        print(f"{kind} n_p = {n_p!r}, n_th = {n_th!r}, {old['args']}:")
        for name, law in (("old", old), ("new", new)):
            residual = float.fromhex(law["residual"])
            exact = tail_beyond_mp(n_p, n_th, law["n_max"])
            print(f"  {name}: n_max {law['n_max']}, residual {residual:.6e} ({law['residual']}), "
                  f"mpmath {float(exact):.6e}, relative error {relative_error(residual, exact):.2e}")
        # each moved value of the rows both tables hold, against mpmath; the residual and the
        # overflow weights are the same quantities only where the tables end at the same row
        oracles = {"probs": lambda n: cell_mp(n, n_p, n_th)}
        if old["n_max"] == new["n_max"]:
            oracles["residual"] = lambda _: tail_beyond_mp(n_p, n_th, new["n_max"])
            oracles["weights"] = lambda i: weight_mp(i, n_p, n_th, new["n_max"])
        for name, oracle in oracles.items():
            values = [[law[name]] if name == "residual" else law[name] for law in (old, new)]
            errors = [[relative_error(float.fromhex(h), oracle(i)) for h in (a, b)]
                      for i, (a, b) in enumerate(zip(*values)) if a != b]
            moved += errors
            print(f"  {name}: {len(errors)} of the {min(map(len, values))} shared values moved; {_tally(errors)}")
    print(f"sampler_tables: {moved_laws} of {len(new_laws)} laws moved; {_tally(moved)}")


def _tally(moved: list[list[float]]) -> str:
    """How many moved values came closer to mpmath, stayed as close or moved away, from their
    [old, new] relative errors, and the worst error before and after."""
    closer = sum(new < old for old, new in moved)
    away = sum(new > old for old, new in moved)
    worst = [max((errors[i] for errors in moved), default=0.0) for i in (0, 1)]
    return (f"{closer} closer to mpmath, {len(moved) - closer - away} as close, {away} farther; "
            f"worst moved error {worst[0]:.2e} -> {worst[1]:.2e}")


def report_simulation(new_text: str) -> None:
    """Name each case and bin whose channels would move, with the bin's old and new count sum."""
    old_cases, new_cases = _cases("simulation_reference.json"), json.loads(new_text)["cases"]
    moved = 0
    for old, new in zip(old_cases, new_cases):
        bins = [b for b in range(len(new["intensity_raw"]))
                if old["intensity_raw"][b] != new["intensity_raw"][b]
                or old["intensity_sq_raw"][b] != new["intensity_sq_raw"][b]
                or any(old["threshold_raw"][n][b] != counts[b] for n, counts in new["threshold_raw"].items())]
        moved += bool(bins)
        for b in bins:
            print(f"simulation {json.dumps(new['config'])}: bin {b} count sum "
                  f"{old['intensity_raw'][b]} -> {new['intensity_raw'][b]}")
    print(f"simulation: {moved} of {len(new_cases)} cases moved")


# name: (file, recorder, report)
RECORDERS = {
    "boundary": ("boundary_reference.json", record_boundary, report_boundary),
    "cli": ("cli_reference.json", record_cli, report_cli),
    "mixed_tail": ("mixed_tail_reference.json", record_mixed_tail, report_mixed_tail),
    "sampler_tables": ("sampler_tables_reference.json", record_sampler_tables, report_sampler_tables),
    "simulation": ("simulation_reference.json", record_simulation, report_simulation),
}


def run(argv=None) -> None:
    parser = argparse.ArgumentParser(description="Rebuild reference files from their own case lists.")
    parser.add_argument("files", nargs="+", choices=sorted(RECORDERS))
    parser.add_argument("--report", action="store_true", help="write nothing; print what would move")
    args = parser.parse_args(argv)
    for name in args.files:
        filename, recorder, report = RECORDERS[name]
        text = recorder()
        if args.report:
            report(text)
        else:
            (DATA / filename).write_text(text)


if __name__ == "__main__":
    run()
