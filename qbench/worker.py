"""One fresh interpreter that runs identity cases or in-process commands.

    python3 qbench/worker.py SPEC_JSON

SPEC_JSON holds: workload, seed, budget (seconds one operation may
take), and either ``seconds`` (run whole blocks of the seeded stream
until that much time at the reference speed has passed) or ``count``
(run exactly the first ``count`` operations); ``trace`` turns on the
span recorder and ``spans`` names the file the spans go to.  The result
is one JSON object on stdout.  run.py starts it with src/ on
PYTHONPATH, so the library is imported cold, exactly as a user's first
call would.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import signal
import sys
import time

import reference
import workloads


class OverBudget(Exception):
    """A single operation ran past its time budget."""


def _alarm(signum, frame):
    raise OverBudget()


def _identity_op(verify):
    def run(op):
        name, binding = op
        case = verify(name, binding, precision=workloads.PRECISION,
                      xdeg=workloads.XDEG)
        if case.ok:
            return 'ok', ''
        return 'wrong', (f'{case.describe()}; expected '
                         f'{"equal" if case.expect_equal else "unequal"}')
    return run


def _cli_op(main, digests):
    def run(op):
        slot, argv, expect = op
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as stop:
                code = stop.code if isinstance(stop.code, int) else 1
        return check_command(argv, expect, code, out.getvalue().encode(),
                             err.getvalue(), digests)
    return run


def check_command(argv, expect, code, stdout, stderr, digests):
    """The cli oracle: exit code, no traceback, recorded stdout digest."""
    if 'Traceback' in stderr:
        return 'wrong', f'traceback: {stderr.strip().splitlines()[-1]}'
    if code != expect:
        return 'wrong', f'exit {code}, expected {expect}'
    if code == 0 and hashlib.sha256(stdout).hexdigest() != digests.get(
            json.dumps(argv)):
        return 'wrong', 'stdout differs from the recorded digest'
    return 'ok', ''


def _blocks(spec):
    if spec['workload'] == 'cli-cold':
        return workloads.cli_blocks(spec['seed'])
    return workloads.identity_blocks(spec['workload'], spec['seed'])


def scaled(ops, speed):
    """[label, seconds, status, detail, seconds at the reference speed]."""
    factor = speed.factor()
    return [[label, seconds, status, detail, seconds * factor]
            for label, seconds, status, detail in ops]


def _label(op):
    # an identity case is labelled by its identity, a command by its argv
    return op[0] if len(op) == 2 else ' '.join(op[1])


def main():
    spec = json.loads(sys.argv[1])
    os.environ.pop('QREAL_PREC', None)
    recorder = None
    if spec.get('trace'):
        import tracer
        recorder = tracer.Recorder()
        recorder.install()
    import qreals.cli
    import qreals.identities
    import qreals.qcore
    if spec['workload'] == 'cli-cold':
        with open(os.path.join(os.path.dirname(__file__),
                               'digests.json')) as fh:
            digests = json.load(fh)
        run = _cli_op(qreals.cli.main, digests)
    else:
        run = _identity_op(qreals.identities.verify_identity)
    budget = spec['budget']
    signal.signal(signal.SIGALRM, _alarm)
    ops = []
    blocks = _blocks(spec)
    if 'count' in spec:
        flat = itertools.chain.from_iterable(blocks)
        blocks = [list(itertools.islice(flat, spec['count']))]
    cache = qreals.qcore._q_rational_cached
    hits = misses = 0
    speed = reference.Speed()
    budget_s = spec.get('seconds', float('inf'))
    spent = 0.0             # seconds at the reference speed
    started = time.perf_counter()
    # whole blocks only, so runs of equal length hold the same mix
    for op in itertools.chain.from_iterable(
            itertools.takewhile(lambda _: spent < budget_s, blocks)):
        speed.tick()
        if spec['workload'] == 'cli-cold':
            # every command starts from a cold cache, as in a fresh process
            cache.cache_clear()
        before = cache.cache_info()
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, budget)
        try:
            status, detail = run(op)
        except OverBudget:
            status, detail = 'over-budget', f'ran past {budget} s'
        except Exception as err:    # the oracle reports it, the run goes on
            status, detail = 'wrong', f'{type(err).__name__}: {err}'
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        took = time.perf_counter() - t0
        ops.append([_label(op), took, status, detail])
        spent += took * speed.factor()
        after = cache.cache_info()
        hits += after.hits - before.hits
        misses += after.misses - before.misses
    wall = time.perf_counter() - started
    speed.sample()
    result = {'wall_s': wall, 'ops': scaled(ops, speed),
              'cache_hits': hits, 'cache_misses': misses}
    if recorder is not None:
        result['trace'] = recorder.summary()
        if spec.get('spans'):
            recorder.write(spec['spans'])
    json.dump(result, sys.stdout)


if __name__ == '__main__':
    main()
