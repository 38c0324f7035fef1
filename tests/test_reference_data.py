"""Each reference file under tests/data is what its recorder writes from the current code."""

import importlib.util
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location("reference_recorders", DATA / "record.py")
record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(record)


@pytest.mark.parametrize("name", sorted(record.RECORDERS))
def test_recorder_reproduces_its_file(name):
    filename, recorder, _ = record.RECORDERS[name]
    assert recorder() == (DATA / filename).read_text()
