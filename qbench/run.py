"""The qreals benchmark: one workload, one seed, one run.

    python3 qbench/run.py --workload identity-series --seed 7 \
        --seconds 26 --trace 0

Run from the root of a checkout.  --trace 0 measures the end-to-end
metrics with nothing wrapped; --trace 1 runs a fixed panel of the same
workload three times (untraced, traced, traced again) and reports the
per-layer metrics, the tracing overhead and whether the exact counts
repeated.  Human-readable lines come first; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.
Full results and the spans go to qbench/out/.  See NOTES.md.
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / 'out'

sys.path.insert(0, str(HERE))
import reference                                   # noqa: E402
import workloads                                   # noqa: E402
from worker import check_command, scaled           # noqa: E402

WORKLOADS = ('identity-series', 'identity-exact', 'cli-cold')
CPUS = len(os.sched_getaffinity(0))

SETUP_IMPORTS = 15       # fresh interpreters per run for setup_s
CASE_BUDGET = 20.0       # seconds one identity case may take
COMMAND_BUDGET = 6.0     # seconds one cold command may take
# traced panels: a fixed number of operations, so counts can repeat
TRACE_COUNT = {'identity-series': 30, 'identity-exact': 1000,
               'cli-cold': 80}


def _env():
    env = dict(os.environ)
    env.pop('QREAL_PREC', None)
    env['PYTHONPATH'] = os.pathsep.join(
        [str(ROOT / 'src')] + ([env['PYTHONPATH']]
                               if env.get('PYTHONPATH') else []))
    env['PYTHONHASHSEED'] = '0'
    return env


ENV = _env()


def run_child(argv, budget):
    """Run argv to completion or kill it at budget seconds.

    Returns (exit code, seconds from spawn to exit, stdout bytes, stderr
    text, killed).  The wait blocks in waitpid, so the time has no
    polling delay in it.
    """
    killed = []
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=ENV, cwd=ROOT)

    def kill():
        killed.append(True)
        proc.kill()
    timer = threading.Timer(budget, kill)
    timer.start()
    try:
        out, err = proc.communicate()
    finally:
        timer.cancel()
    seconds = time.perf_counter() - started
    timer.join()
    return (proc.returncode, seconds, out,
            err.decode('utf-8', 'replace'), bool(killed))


def measure_setup():
    """Median seconds for a fresh interpreter to import the library."""
    times = []
    for _ in range(SETUP_IMPORTS):
        code, seconds, _, err, _ = run_child(
            [sys.executable, '-c', 'import qreals'], 60)
        if code != 0:
            raise SystemExit(f'import qreals failed:\n{err}')
        times.append(seconds)
    return statistics.median(times)


def run_worker(spec, budget):
    code, seconds, out, err, killed = run_child(
        [sys.executable, str(HERE / 'worker.py'), json.dumps(spec)], budget)
    if code != 0 or killed:
        raise SystemExit(f'worker failed (exit {code}, killed={killed}):\n'
                         f'{err[-2000:]}')
    return json.loads(out)


def tail(values):
    """Highest whole percentile with at least 10 values beyond it.

    Returns (percentile, value, values beyond); falls back to the
    median when there are fewer than 20 values.
    """
    s = sorted(values)
    n = len(s)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, s[rank - 1], n - rank
    return 50, statistics.median(s), n // 2


def peak_child_rss_mb():
    # ru_maxrss is in KiB on Linux: the largest child waited for so far
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def _outcome(ops, wall):
    """Counts and end-to-end metrics of one timed window.

    The metrics use each operation's time at the nominal machine speed
    (see reference.py); the raw wall-clock figures are kept beside them.
    """
    raw = [op[1] for op in ops]
    times = [op[4] for op in ops]
    p, value, beyond = tail(times)
    failures = [op for op in ops if op[2] != 'ok']
    return {
        'attempted': len(ops),
        'failed': len(failures),
        'correct': not any(op[2] == 'wrong' for op in ops),
        'failures': [{'op': op[0], 'status': op[2], 'reason': op[3]}
                     for op in failures],
        'wall_s': wall,
        'ops_per_ref_s': len(ops) / sum(times),
        'op_p50_ref_ms': statistics.median(times) * 1000,
        'op_tail_ref_ms': value * 1000,
        'tail_percentile': p,
        'tail_beyond': beyond,
        'raw': {'ops_per_s': len(ops) / sum(raw),
                'op_p50_ms': statistics.median(raw) * 1000,
                'op_tail_ms': tail(raw)[1] * 1000},
    }


def timed_identity(workload, seed, seconds):
    spec = {'workload': workload, 'seed': seed, 'seconds': seconds,
            'budget': CASE_BUDGET}
    result = run_worker(spec, seconds + CASE_BUDGET + 60)
    out = _outcome(result['ops'], result['wall_s'])
    out['peak_rss_mb'] = peak_child_rss_mb()
    return out


def _load_digests():
    with open(HERE / 'digests.json') as fh:
        return json.load(fh)


def _command(argv):
    return [sys.executable, '-m', 'qreals.cli', *argv]


def timed_cli(seed, seconds):
    # commands run in child processes; on one CPU with this process, the
    # kernel sampled here runs at the speed they see
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    digests = _load_digests()
    ops = []
    speed = reference.Speed()
    spent = 0.0             # seconds at the reference speed
    started = time.perf_counter()
    blocks = itertools.takewhile(lambda _: spent < seconds,
                                 workloads.cli_blocks(seed))
    for slot, argv, expect in itertools.chain.from_iterable(blocks):
        speed.tick()
        code, took, out, err, killed = run_child(_command(argv),
                                                 COMMAND_BUDGET)
        spent += took * speed.factor()
        if killed:
            status, reason = 'over-budget', f'ran past {COMMAND_BUDGET} s'
        else:
            status, reason = check_command(argv, expect, code, out, err,
                                           digests)
        ops.append([' '.join(argv), took, status, reason])
    wall = time.perf_counter() - started
    speed.sample()
    out = _outcome(scaled(ops, speed), wall)
    out['peak_rss_mb'] = peak_child_rss_mb()
    out['probes'] = defect_probes(seed, digests)
    return out


def defect_probes(seed, digests):
    """Run one draw of each known-defect class; report pass or why not.

    Their outcomes are reported beside the timed window, not inside it:
    at the commit that introduced the benchmark they all fail, and some
    take the whole command budget.
    """
    rows = []
    for cls, argv, ref in workloads.defect_probes(seed):
        code, took, out, err, killed = run_child(_command(argv),
                                                 COMMAND_BUDGET)
        if killed:
            reason = f'ran past {COMMAND_BUDGET} s'
        elif 'Traceback' in err:
            reason = f'traceback: {err.strip().splitlines()[-1]}'
        elif code == 2 and ref is None and len(err.strip().splitlines()) == 1:
            reason = ''
        elif code != 0:
            reason = f'exit {code}: {err.strip().splitlines()[-1][:120]}' \
                if err.strip() else f'exit {code}'
        elif ref is not None and hashlib.sha256(out).hexdigest() != \
                digests[json.dumps(ref)]:
            reason = f'stdout differs from that of {" ".join(ref)}'
        else:
            reason = ''
        rows.append({'class': cls, 'argv': argv, 'exit': code,
                     'seconds': took, 'passed': not reason,
                     'reason': reason})
    return rows


# ---------------------------------------------------------------------------
# traced run

def _fn(summary, name):
    return summary['functions'].get(name, {'calls': 0, 'self_s': 0.0,
                                           'count': 0, 'size_p50': 0,
                                           'size_mean': 0})


def _sum_self(summary, prefix):
    return sum(v['self_s'] for k, v in summary['functions'].items()
               if k.startswith(prefix))


def _useful(summary, layer):
    attempts, retries = summary['keyed'][layer]
    return 1.0 - retries / attempts if attempts else 1.0


def _ref_seconds(result):
    return sum(op[4] for op in result['ops'])


def layer_metrics(result, untraced):
    """Per-layer metrics, named <layer>.<boundary>.<stat>."""
    s = result['trace']
    f = lambda name: _fn(s, name)          # noqa: E731
    hits, misses = result['cache_hits'], result['cache_misses']
    qrs = f('qcore:q_real_series')
    m = {}
    m['polynomial.gcd.calls'] = f('polynomial:poly_gcd')['calls']
    m['polynomial.gcd.self_s'] = f('polynomial:poly_gcd')['self_s']
    m['polynomial.gcd.deg_mean'] = f('polynomial:poly_gcd')['size_mean']
    m['polynomial.mul.calls'] = f('polynomial:IntPolynomial.__mul__')['calls']
    m['polynomial.mul.self_s'] = f('polynomial:IntPolynomial.__mul__')[
        'self_s']
    m['polynomial.self_s'] = _sum_self(s, 'polynomial:')
    m['ratfun.add.calls'] = f('ratfun:QRationalFunction.__add__')['calls']
    m['ratfun.add.self_s'] = f('ratfun:QRationalFunction.__add__')['self_s']
    m['ratfun.mul.calls'] = f('ratfun:QRationalFunction.__mul__')['calls']
    m['ratfun.mul.self_s'] = f('ratfun:QRationalFunction.__mul__')['self_s']
    m['ratfun.normalize.calls'] = f('ratfun:ratfun')['calls']
    m['ratfun.normalize.self_s'] = f('ratfun:ratfun')['self_s']
    m['ratfun.self_s'] = _sum_self(s, 'ratfun:')
    mul, div = f('series:LaurentSeries.__mul__'), \
        f('series:LaurentSeries.__truediv__')
    m['series.mul.calls'] = mul['calls']
    m['series.mul.self_s'] = mul['self_s']
    m['series.mul.coeff_ops'] = mul['count']
    m['series.mul.len_p50'] = mul['size_p50']
    m['series.div.calls'] = div['calls']
    m['series.div.self_s'] = div['self_s']
    m['series.div.coeff_ops'] = div['count']
    m['series.expand.calls'] = f('series:series_from_ratfun')['calls']
    m['series.expand.self_s'] = f('series:series_from_ratfun')['self_s']
    m['series.self_s'] = _sum_self(s, 'series:')
    m['qcore.q_rational.calls'] = f('qcore:q_rational')['calls']
    m['qcore.q_rational.self_s'] = f('qcore:q_rational')['self_s']
    m['qcore.q_rational.cache_hits'] = hits
    m['qcore.q_rational.cache_misses'] = misses
    m['qcore.q_rational.cache_hit_ratio'] = (hits / (hits + misses)
                                             if hits + misses else 0.0)
    m['qcore.q_rational_series.calls'] = f('qcore:q_rational_series')['calls']
    m['qcore.q_rational_series.self_s'] = f('qcore:q_rational_series')[
        'self_s']
    m['qcore.q_real_series.calls'] = qrs['calls']
    m['qcore.q_real_series.self_s'] = qrs['self_s']
    m['qcore.q_real_series.approximants_per_call'] = (
        s['approximants'] / qrs['calls'] if qrs['calls'] else 0.0)
    m['qcore.self_s'] = _sum_self(s, 'qcore:')
    m['qbinomial.q_binomial.calls'] = f('qbinomial:q_binomial')['calls']
    m['qbinomial.q_binomial.self_s'] = f('qbinomial:q_binomial')['self_s']
    m['qbinomial.q_binomial_series.self_s'] = f(
        'qbinomial:q_binomial_series')['self_s']
    m['qbinomial.useful_ratio'] = _useful(s, 'qbinomial')
    m['qbinomial.self_s'] = _sum_self(s, 'qbinomial:')
    m['qseries.sum.self_s'] = sum(f(f'qseries:{n}')['self_s'] for n in (
        'binomial_series', 'negative_binomial_series',
        'binomial_coefficients', 'negative_binomial_coefficients'))
    m['qseries.product.self_s'] = sum(f(f'qseries:{n}')['self_s'] for n in (
        'binomial_product', 'negative_binomial_product',
        'generalized_pochhammer'))
    m['qseries.xseries.self_s'] = (_sum_self(s, 'qseries:XSeries.')
                                   + f('qseries:xseries')['self_s']
                                   + f('qseries:q_derivative')['self_s'])
    m['qseries.useful_ratio'] = _useful(s, 'qseries')
    m['qseries.self_s'] = _sum_self(s, 'qseries:')
    m['qgamma.q_gamma.calls'] = f('qgamma:q_gamma')['calls']
    m['qgamma.q_gamma.self_s'] = f('qgamma:q_gamma')['self_s']
    m['qgamma.pochhammer_at_q.calls'] = f('qgamma:pochhammer_at_q')['calls']
    m['qgamma.pochhammer_at_q.self_s'] = f('qgamma:pochhammer_at_q')[
        'self_s']
    m['qgamma.reflection.self_s'] = f('qgamma:gamma_reflection')['self_s']
    m['qgamma.power.self_s'] = f('qgamma:gamma_power')['self_s']
    m['qgamma.useful_ratio'] = _useful(s, 'qgamma')
    m['qgamma.self_s'] = _sum_self(s, 'qgamma:')
    m['snake.graph.calls'] = f('snake:SnakeGraph.__init__')['calls']
    m['snake.graph.self_s'] = _sum_self(s, 'snake:SnakeGraph.')
    m['snake.paths.count'] = f('snake:_enumerate_paths')['count']
    m['snake.self_s'] = _sum_self(s, 'snake:')
    m['identities.case.self_s'] = f('identities:verify_identity')['self_s']
    m['identities.retries'] = s['keyed']['identities'][1]
    m['identities.self_s'] = _sum_self(s, 'identities:')
    for name in workloads.SERIES_IDENTITIES + workloads.EXACT_IDENTITIES \
            + workloads.EXACT_ONCE:
        m[f'identities.{name}.s'] = s['identity_s'].get(name, 0.0)
    m['cli.main.self_s'] = f('cli:main')['self_s']
    # the panel's own time: the operations, without the kernel samples
    wall = sum(op[1] for op in result['ops'])
    work, plain = _ref_seconds(result), _ref_seconds(untraced)
    m['trace.wall_s'] = wall
    m['trace.untraced_wall_s'] = sum(op[1] for op in untraced['ops'])
    m['trace.overhead_s'] = work - plain
    m['trace.overhead_frac'] = (work - plain) / plain
    m['trace.attributed_frac'] = s['root_s'] / wall
    m['trace.spans'] = s['spans']
    return m


def exact_counts(result):
    """Counts that must repeat exactly for the same code and seed."""
    s = result['trace']
    counts = {f'{k}.calls': v['calls'] for k, v in s['functions'].items()}
    counts.update({f'{k}.count': v['count']
                   for k, v in s['functions'].items() if v['count']})
    counts.update({f'{layer}.retries': kr[1]
                   for layer, kr in s['keyed'].items()})
    counts['q_rational.cache_hits'] = result['cache_hits']
    counts['q_rational.cache_misses'] = result['cache_misses']
    return counts


def traced(workload, seed):
    count = TRACE_COUNT[workload]
    budget = CASE_BUDGET if workload != 'cli-cold' else COMMAND_BUDGET
    cap = count * budget + 60
    base = {'workload': workload, 'seed': seed, 'count': count,
            'budget': budget}
    plain = run_worker(base, cap)
    spans = OUT / f'{workload}-seed{seed}.spans'
    first = run_worker(dict(base, trace=True, spans=str(spans)), cap * 4)
    second = run_worker(dict(base, trace=True), cap * 4)
    a, b = exact_counts(first), exact_counts(second)
    differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
    metrics = layer_metrics(first, plain)
    metrics['trace.exact_counts_repeat'] = 0 if differ else 1
    ops = plain['ops'] + first['ops'] + second['ops']
    failures = [op for op in first['ops'] if op[2] != 'ok']
    return {
        'attempted': len(first['ops']),
        'failed': len(failures),
        'correct': not any(op[2] == 'wrong' for op in ops),
        'failures': [{'op': op[0], 'status': op[2], 'reason': op[3]}
                     for op in failures],
        'metrics': metrics,
        'counts_differ': differ,
        'spans_file': str(spans.relative_to(ROOT)),
    }


# ---------------------------------------------------------------------------
# reporting

def _spec(benchmark, section):
    return {m['name']: m['unit'] for m in benchmark[section]}


def _print_end_to_end(workload, out):
    noun = 'cmd' if workload == 'cli-cold' else 'case'
    rate = f'{noun}s_per_s'
    raw = out['raw']
    print(f'setup_s          {out["setup_s"]:.4f} s   '
          f'(median of {SETUP_IMPORTS} fresh imports)')
    print('timed window: at the reference speed (raw wall clock in brackets)')
    print(f'{rate:<16} {out["ops_per_ref_s"]:.4f} 1/s  '
          f'[{raw["ops_per_s"]:.4f}]  ({out["attempted"]} in '
          f'{out["wall_s"]:.2f} s, one client)')
    print(f'{noun}_p50_ms      {out["op_p50_ref_ms"]:.2f} ms  '
          f'[{raw["op_p50_ms"]:.2f}]')
    print(f'{noun}_tail_ms     {out["op_tail_ref_ms"]:.2f} ms  '
          f'[{raw["op_tail_ms"]:.2f}]  (p{out["tail_percentile"]}, '
          f'{out["tail_beyond"]} {noun}s beyond, of {out["attempted"]})')
    print(f'peak_rss_mb      {out["peak_rss_mb"]:.1f} MB')
    print(f'failed_frac      {out["failed"] / out["attempted"]:.4f} ratio '
          f'({out["failed"]}/{out["attempted"]})')
    for fail in out['failures']:
        print(f'  failed: {fail["op"]}: {fail["status"]} {fail["reason"]}')
    if 'probes' in out:
        bad = [p for p in out['probes'] if not p['passed']]
        print(f'defect probes    {len(bad)}/{len(out["probes"])} failed '
              f'(known defects, outside the timed window)')
        for p in out['probes']:
            state = 'pass' if p['passed'] else f'FAIL {p["reason"]}'
            print(f'  {p["class"]:<14} {" ".join(p["argv"])}: {state}')


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument('--workload', required=True, choices=WORKLOADS)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / 'src' / 'qreals' / '__init__.py').is_file():
        sys.exit(f'no library to measure: {ROOT / "src" / "qreals"} '
                 'is missing')
    with open(ROOT / 'BENCHMARK.json') as fh:
        benchmark = json.load(fh)
    OUT.mkdir(exist_ok=True)
    print(f'qreals benchmark: workload {args.workload}, seed {args.seed}, '
          f'{args.seconds:g} s, trace {args.trace}; {CPUS} CPUs, '
          f'Python {platform.python_version()}')
    if args.trace:
        out = traced(args.workload, args.seed)
        units = _spec(benchmark, 'per_layer')
        for name, value in out['metrics'].items():
            print(f'{name:<44} {value:.6g} {units.get(name, "?")}')
        print(f'exact counts repeat across two traced runs: '
              f'{"yes" if not out["counts_differ"] else "NO"}')
        for name in out['counts_differ']:
            print(f'  differs: {name}')
    else:
        setup = measure_setup()
        if args.workload == 'cli-cold':
            out = timed_cli(args.seed, args.seconds)
        else:
            out = timed_identity(args.workload, args.seed, args.seconds)
        out['setup_s'] = setup
        # the tail is reported but not a JSON metric: see NOTES.md
        out['metrics'] = {k: out[k] for k in (
            'setup_s', 'ops_per_ref_s', 'op_p50_ref_ms', 'peak_rss_mb')}
        units = _spec(benchmark, 'end_to_end')
        _print_end_to_end(args.workload, out)
    if set(out['metrics']) != set(units):
        sys.exit('metrics do not match BENCHMARK.json: '
                 f'{sorted(set(out["metrics"]) ^ set(units))}')
    out.update(workload=args.workload, seed=args.seed, trace=args.trace,
               seconds=args.seconds, cpus=CPUS,
               python=platform.python_version())
    with open(OUT / f'{args.workload}-seed{args.seed}-trace{args.trace}'
              '.json', 'w') as fh:
        json.dump(out, fh, indent=1)
    print(json.dumps({
        'correct': out['correct'], 'attempted': out['attempted'],
        'failed': out['failed'],
        'metrics': {name: {'value': out['metrics'][name], 'unit': unit}
                    for name, unit in units.items()}}))


if __name__ == '__main__':
    main()
