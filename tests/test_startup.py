"""Start-up loads only the modules a command uses.

Each check runs in a fresh interpreter (`python -S`, src/ on PYTHONPATH)
and reads sys.modules after the import or the command, so what one test
imports cannot leak into another.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

LAZY = ('qreals.identities', 'qreals.qseries', 'qreals.qgamma',
        'qreals.snake', 'qreals.qbinomial')
# _cache is the registry of the memo tables, qcore's among them
CORE = {'_cache', 'cli', 'errors', 'polynomial', 'qcore', 'ratfun', 'series'}


def _loaded(code):
    """sys.modules after running code in a fresh interpreter."""
    env = dict(os.environ)
    env['PYTHONPATH'] = str(ROOT / 'src')
    env.pop('QREAL_PREC', None)
    script = (f'import contextlib, io, json, sys\n{code}\n'
              'sys.__stdout__.write(json.dumps(sorted(sys.modules)))')
    done = subprocess.run([sys.executable, '-S', '-c', script],
                          capture_output=True, env=env, cwd=ROOT, timeout=60)
    assert done.returncode == 0, done.stderr.decode()
    return set(json.loads(done.stdout.decode().splitlines()[-1]))


def _qreals_modules(modules):
    return {m.split('.', 1)[1] for m in modules if m.startswith('qreals.')}


def _command(*argv):
    return ('import qreals.cli\n'
            'with contextlib.redirect_stdout(io.StringIO()):\n'
            f'    code = qreals.cli.main({list(argv)!r})\n'
            'assert code == 0, code')


@pytest.mark.parametrize('code', ['import qreals', 'import qreals.cli'])
def test_import_loads_no_lazy_module(code):
    modules = _loaded(code)
    assert not modules & set(LAZY)
    assert 'dataclasses' not in modules
    # the parser is built, and argparse imported, only when a command runs
    assert 'argparse' not in modules


@pytest.mark.parametrize('argv, extra', [
    (('eval', '5/3'), set()),
    (('eval', '[2;(2)]', '--prec', '8'), set()),
    (('brace', '1/2'), set()),
    (('binom', '5/2', '2'), {'qbinomial'}),
    (('binom', '[2;(2)]', '2', '--prec', '8'), {'qbinomial'}),
    (('gamma', '1/2', '--prec', '8'), {'qbinomial', 'qgamma'}),
    (('series', 'B', '5/3', '--xdeg', '2'), {'qbinomial', 'qseries'}),
    (('snake', 'paths', '5/2'), {'snake'}),
    (('snake', 'graph', '52/23'), {'snake'}),
])
def test_command_loads_exactly_what_it_needs(argv, extra):
    modules = _loaded(_command(*argv))
    assert _qreals_modules(modules) == CORE | extra
    assert 'dataclasses' not in modules


def test_identity_run_loads_the_catalog():
    modules = _loaded(_command('identity', 'run', '--filter', 'PASCAL_A',
                               '--trials', '1'))
    assert _qreals_modules(modules) == CORE | {
        'identities', 'qbinomial', 'qgamma', 'qseries'}
    assert 'dataclasses' not in modules
