"""Each demo prints exactly its recorded output.

The goldens under tests/golden/demos/ are the demos' stdout; a demo runs
as a script in a fresh interpreter with src/ on PYTHONPATH, as a reader
would run it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / 'golden' / 'demos'
DEMOS = sorted(p.stem for p in (ROOT / 'demos').glob('*.py'))


def test_every_demo_has_a_golden():
    assert DEMOS == sorted(p.stem for p in GOLDEN.glob('*.txt'))


@pytest.mark.parametrize('name', DEMOS)
def test_demo_prints_its_golden(name):
    env = dict(os.environ)
    env['PYTHONPATH'] = os.pathsep.join(
        [str(ROOT / 'src')] + ([env['PYTHONPATH']]
                               if env.get('PYTHONPATH') else []))
    env.pop('QREAL_PREC', None)
    done = subprocess.run([sys.executable, str(ROOT / 'demos' / f'{name}.py')],
                          capture_output=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == (GOLDEN / f'{name}.txt').read_bytes()
