"""Every command the cli-cold benchmark can draw prints its recorded bytes.

qbench/digests.json holds the sha256 of the stdout of each pool command,
recorded in a fresh interpreter per command; here each runs in-process
through cli.main, from empty cache tables, and must exit with its
expected code and, on success, print exactly those bytes.  The table is
only read: it pins the CLI output.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from qreals import _cache
from qreals.cli import main

QBENCH = Path(__file__).resolve().parents[1] / 'qbench'


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        'qbench_workloads', QBENCH / 'workloads.py')
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
DIGESTS = json.loads((QBENCH / 'digests.json').read_text())


def _run(argv):
    # the digests were recorded in a fresh process per command, so each
    # command starts from empty tables here too
    _cache.clear()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue().encode(), err.getvalue()


def _digest(data):
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(autouse=True)
def _default_precision(monkeypatch):
    monkeypatch.delenv('QREAL_PREC', raising=False)


@pytest.mark.parametrize('slot', WORKLOADS.CLI_POOL)
def test_pool_commands_print_their_recorded_bytes(slot):
    bad = []
    for tier in WORKLOADS.CLI_POOL[slot]:
        for argv, expect in tier:
            code, out, err = _run(argv)
            if code != expect or 'Traceback' in err:
                bad.append((argv, f'exit {code}, expected {expect}'))
            elif code == 0 and _digest(out) != DIGESTS[json.dumps(argv)]:
                bad.append((argv, 'stdout differs from the recorded bytes'))
    assert not bad


def test_negative_values_print_the_bytes_of_the_double_dash_form():
    for argv, ref in WORKLOADS.DEFECT_POOL['negative']:
        code, out, _ = _run(argv)
        assert code == 0, argv
        assert _digest(out) == DIGESTS[json.dumps(ref)], argv
