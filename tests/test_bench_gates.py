"""The three traced benchmark runs and the exact conditions they must meet.

Each test runs `qbench/run.py --trace 1` on a fixed panel, as a reader
would from the root of a checkout, and reads the JSON object on the last
line of its stdout.  The conditions are exact counts, so they do not
depend on the speed of the machine.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _traced_run(workload):
    done = subprocess.run(
        [sys.executable, 'qbench/run.py', '--workload', workload,
         '--seed', '7', '--seconds', '2', '--trace', '1'],
        capture_output=True, cwd=ROOT, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    return json.loads(done.stdout.decode().splitlines()[-1])


def test_identity_series_trace_repeats_and_builds_once():
    # correct outputs, exact per-layer counts that repeat across the two
    # traced passes, no checker retry and no build at a higher precision
    r = _traced_run('identity-series')
    got = {k: r['metrics'][k]['value'] for k in (
        'trace.exact_counts_repeat', 'identities.retries',
        'qbinomial.useful_ratio', 'qseries.useful_ratio',
        'qgamma.useful_ratio')}
    assert r['correct'] is True
    assert got == {'trace.exact_counts_repeat': 1, 'identities.retries': 0,
                   'qbinomial.useful_ratio': 1.0, 'qseries.useful_ratio': 1.0,
                   'qgamma.useful_ratio': 1.0}


def test_cli_cold_trace_repeats():
    # one fresh qreal process per command, the snake commands on long
    # partial quotients included
    r = _traced_run('cli-cold')
    assert r['correct'] is True
    assert r['metrics']['trace.exact_counts_repeat']['value'] == 1


def test_identity_exact_trace_repeats_and_bounds_gcds():
    # the traced panel is a fixed 1 000 cases, so the gcd count is exact;
    # it was 38 885 while q_binomial multiplied gcd-reduced rational
    # functions, and the shift-law numerators leave 12 515
    r = _traced_run('identity-exact')
    assert r['correct'] is True
    assert r['metrics']['trace.exact_counts_repeat']['value'] == 1
    assert r['metrics']['polynomial.gcd.calls']['value'] <= 12515
