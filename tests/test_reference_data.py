"""Each reference file under tests/data is what its recorder writes from the current code,
and each report prints what moved."""

import functools
import importlib.util
import json
import math
import operator
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location("reference_recorders", DATA / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


def _ulp(value):
    return math.nextafter(float.fromhex(value), math.inf).hex()


# name: the path to one value in the stored document, its move, and what the report prints
MOVED = {
    "boundary": (("cases", 0, "curves", 0, "points", 0, 1), _ulp,
                 "N = 2, n_th = 0.2: n_p 6.953455713353474 -> 6.953455713353475, |ratio - 1| 3.68e-17 -> 8.23e-17\n"
                 "boundary: 1 of 450 points moved; worst |ratio - 1| by mpmath 3.68e-17 -> 8.23e-17; "
                 "levels, no_crossing and multiple_crossings unchanged\n"),
    "cli": (("cases", 0, "stdout"), lambda stdout: "N" + stdout[1:],
            "cli: pmf --kind mixed --n-p 3 --n-th 1 moved\ncli: 1 of 11 argvs moved\n"),
    "mixed_tail": (("cases", 0, "outputs", "scaled", 0), _ulp,
                   "scaled at N = 2, n_p = 0.001, x = 0.16666666666666669: 0x1.014751da53282p+0 -> "
                   "0x1.014751da53283p+0, relative error 4.96e-18 -> 2.16e-16\nmixed_tail: 1 of 280 values moved; "
                   "0 closer to mpmath, 0 as close, 1 farther; worst moved error 4.96e-18 -> 2.16e-16\n"),
    "sampler_tables": (("laws", 3, "probs", 3), _ulp,
                       "mixed n_p = 3.0, n_th = 1.0, {'n_max': 76}:\n" + "".join(
                           f"  {name}: n_max 76, residual 1.329149e-22 (0x1.415e5bf6fb107p-73), mpmath 1.329149e-22, "
                           "relative error 1.86e-16\n" for name in ("old", "new"))
                       + "  probs: 1 of the 77 shared values moved; 1 closer to mpmath, 0 as close, 0 farther; "
                       "worst moved error 8.67e-17 -> 5.95e-17\n" + "".join(
                           f"  {name}: 0 of the 1 shared values moved; 0 closer to mpmath, 0 as close, 0 farther; "
                           "worst moved error 0.00e+00 -> 0.00e+00\n" for name in ("residual", "weights"))
                       + "sampler_tables: 1 of 10 laws moved; 1 closer to mpmath, 0 as close, 0 farther; "
                       "worst moved error 8.67e-17 -> 5.95e-17\n"),
    "simulation": (("cases", 0, "intensity_raw", 1), lambda count: count + 1,
                   'simulation {"repetitions": 5, "seed": 1, "num_bins": 50, "noise_mean": 1.0, "targets": [[10, 0.5], '
                   '[20, 1.0], [30, 3.0], [40, 10.0]], "thresholds": [2, 5]}: bin 1 count sum 2 -> 3\n'
                   "simulation: 1 of 7 cases moved\n"),
}


@pytest.mark.parametrize("name", sorted(record.RECORDERS))
def test_recorder_reproduces_its_file(name):
    filename, recorder, _ = record.RECORDERS[name]
    assert recorder() == (DATA / filename).read_text()


@pytest.mark.parametrize("name", sorted(record.RECORDERS))
def test_report_prints_the_moved_value(name, capsys):
    # the stored text with one value moved, passed to the report as a
    # re-record's text: the report names that value, with its old and new
    # errors by mpmath where it prints them, and counts 1 moved
    filename, _, report = record.RECORDERS[name]
    document = json.loads((DATA / filename).read_text())
    (*keys, last), move, printed = MOVED[name]
    values = functools.reduce(operator.getitem, keys, document)
    values[last] = move(values[last])
    report(json.dumps(document))
    assert capsys.readouterr().out == printed
