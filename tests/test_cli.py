"""End-to-end checks of the command-line interface.

Commands run in-process through cli.main so output and exit codes can
be asserted exactly.  Usage failures raised by argparse surface as
SystemExit; failures detected later return the code.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qreals import (binomial_product, cli, negative_binomial_product,
                    parse_real_spec)
from qreals.cli import main
from qreals.identities import IdentityCase, SuiteReport

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# eval

def test_eval_rational_defaults_to_ratfun(capsys):
    code, out, _ = run(capsys, 'eval', '52/23')
    assert code == 0
    assert out == ('[52/23]_q = (1 + 3q + 5q^2 + 7q^3 + 8q^4 + 8q^5 + 7q^6'
                   ' + 6q^7 + 4q^8 + 2q^9 + q^10)'
                   ' / (1 + 2q + 3q^2 + 4q^3 + 4q^4 + 3q^5 + 3q^6 + 2q^7'
                   ' + q^8)\n')


@pytest.mark.parametrize('terms, value', [
    ('[2,3,1]', '9/4'), ('[2]', '2'), ('[2,3,1,5]', '52/23')])
def test_eval_finite_continued_fraction_of_any_length(capsys, terms, value):
    code, out, err = run(capsys, 'eval', terms)
    ref_code, ref_out, _ = run(capsys, 'eval', value)
    assert code == ref_code == 0 and err == ''
    assert out.split(' = ')[1] == ref_out.split(' = ')[1]


def test_eval_integer_ratfun(capsys):
    code, out, _ = run(capsys, 'eval', '4', '--form', 'ratfun')
    assert code == 0
    assert out == '[4]_q = 1 + q + q^2 + q^3\n'


def test_eval_periodic_defaults_to_series(capsys):
    code, out, _ = run(capsys, 'eval', '[2;(2)]', '--prec', '14')
    assert code == 0
    assert out == ('[[2;(2)]]_q = 1 + q + q^4 - 2q^6 + q^7 + 4q^8 - 5q^9'
                   ' - 7q^10 + 18q^11 + 7q^12 - 55q^13 + O(q^14)\n')


def test_eval_rational_series_form(capsys):
    code, out, _ = run(capsys, 'eval', '5/2', '--form', 'series',
                       '--prec', '6')
    assert code == 0
    assert out.startswith('[5/2]_q = 1 + q + q^3 - q^4 + q^5 + O(q^6)')


def test_eval_irrational_ratfun_is_domain_error(capsys):
    code, _, err = run(capsys, 'eval', '[2;(2)]', '--form', 'ratfun')
    assert code == 2
    assert 'rational arguments only' in err


def test_eval_unparseable_value_is_usage_error(capsys):
    code, _, err = run(capsys, 'eval', 'three-ish')
    assert code == 1
    assert 'cannot parse' in err


# ---------------------------------------------------------------------------
# binom / brace / gamma

def test_binom_rational(capsys):
    code, out, _ = run(capsys, 'binom', '5/2', '2')
    assert code == 0
    assert out == ('binom(5/2, 2)_q = (1 + 3q + 4q^2 + 4q^3 + 2q^4 + q^5)'
                   ' / (1 + 3q + 3q^2 + q^3)\n')


def test_binom_irrational_is_series(capsys):
    code, out, _ = run(capsys, 'binom', '[2;(2)]', '1', '--prec', '6')
    assert code == 0
    assert 'O(q^6)' in out


def test_binom_large_k(capsys):
    # k = 60 multiplies 60 short shift-law numerators; no gcd runs
    started = time.perf_counter()
    code, out, _ = run(capsys, 'binom', '5/3', '60')
    assert code == 0 and time.perf_counter() - started < 5
    assert out.startswith('binom(5/3, 60)_q = ')


@pytest.mark.parametrize('argv', [
    ['binom', '100000000000000000000', '2'],
    ['binom', '--', '-100000000000000000000', '2'],
    ['binom', '100000000000000000000/3', '2']])
def test_binom_too_large_to_build_is_domain_error(capsys, argv):
    # the degrees pass what a list can index: one line and exit 2, where
    # an OverflowError traceback used to end the command
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ''
    assert err.startswith('domain error: too large to build')
    assert len(err.splitlines()) == 1


def test_brace_half(capsys):
    code, out, _ = run(capsys, 'brace', '1/2')
    assert code == 0
    assert out == '{1/2}_q = (1 + q^2) / (1 + q)\n'


def test_gamma_half(capsys):
    code, out, _ = run(capsys, 'gamma', '1/2', '--prec', '8')
    assert code == 0
    assert out == ('gamma_q(1/2) = q^-1 + 3/2 - (1/8)q - (13/16)q^2'
                   ' + (91/128)q^3 - (171/256)q^4 + (779/1024)q^5'
                   ' - (3373/2048)q^6 + (107155/32768)q^7 + O(q^8)\n')


def test_gamma_pole_is_domain_error(capsys):
    code, _, err = run(capsys, 'gamma', '0')
    assert code == 2
    assert 'pole' in err


def test_gamma_irrational_is_domain_error(capsys):
    code, _, _ = run(capsys, 'gamma', '[2;(2)]')
    assert code == 2


# ---------------------------------------------------------------------------
# negative values need no '--'

@pytest.mark.parametrize('argv, ref', [
    (['gamma', '-1/2'], ['gamma', '--', '-1/2']),
    (['gamma', '-7/3', '--prec', '8'], ['gamma', '--prec', '8', '--', '-7/3']),
    (['eval', '-7/3'], ['eval', '--', '-7/3']),
    (['eval', '-5/4', '--format', 'json'],
     ['eval', '--format', 'json', '--', '-5/4']),
    (['eval', '-7'], ['eval', '--', '-7']),
    (['binom', '-7/3', '2'], ['binom', '--', '-7/3', '2']),
    (['brace', '-3/2', '--latex'], ['brace', '--latex', '--', '-3/2']),
    (['series', 'b', '-1/2', '--xdeg', '2', '--prec', '6'],
     ['series', '--xdeg', '2', '--prec', '6', 'b', '--', '-1/2'])])
def test_negative_value_matches_double_dash_form(capsys, argv, ref):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == run(capsys, *ref)
    assert code == 0 and out


@pytest.mark.parametrize('argv', [
    ['gamma', '--prec', '8', '-1/2'], ['gamma', '-1/2', '--prec', '8'],
    ['gamma', '--format', 'json', '-1/2', '--prec', '8', '--timing']])
def test_options_around_a_negative_value(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    if '--format' in argv:
        envelope = json.loads(out)
        assert envelope['input'] == {'value': '-1/2'}
        assert envelope['precision'] == 8 and 'seconds' in envelope
    else:
        assert out == run(capsys, 'gamma', '--prec', '8', '--', '-1/2')[1]


def test_negative_pole_without_double_dash(capsys):
    code, _, err = run(capsys, 'gamma', '-3')
    assert code == 2
    assert 'pole' in err


@pytest.mark.parametrize('argv', [['eval', '-x'], ['eval', '-1/2x'],
                                  ['gamma', '-1/2', '--bogus']])
def test_option_like_values_stay_usage_errors(capsys, argv):
    code, _, _ = run(capsys, *argv)
    assert code == 1


# ---------------------------------------------------------------------------
# series

def test_series_positive_family(capsys):
    code, out, _ = run(capsys, 'series', 'B', '5/3', '--xdeg', '3',
                       '--prec', '6')
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == 'B_{5/3}(q, x):'
    assert lines[1] == '[x^0]  1 + O(q^6)'
    assert lines[2] == '[x^1]  1 + q^2 - q^4 + q^5 + O(q^6)'
    assert lines[-1] == '+ O(x^4)'


def test_series_negative_family(capsys):
    code, out, _ = run(capsys, 'series', 'b', '1/2', '--xdeg', '2',
                       '--prec', '5')
    assert code == 0
    assert out.startswith('b_{1/2}(q, x):')


@pytest.mark.parametrize('family, value, prec', [
    ('B', '[1;(1)]', '16'), ('B', '[1;(1)]', '32'), ('b', '[2;(1)]', '16')])
def test_series_of_period_one_values(capsys, family, value, prec):
    # the sum route reads [value]_q once, near the requested precision,
    # so the slowly converging period-one values stay within reach
    started = time.perf_counter()
    code, out, _ = run(capsys, 'series', family, value, '--prec', prec,
                       '--format', 'json')
    assert code == 0 and time.perf_counter() - started < 1
    product = binomial_product if family == 'B' else \
        negative_binomial_product
    want = product(parse_real_spec(value), cli.DEFAULT_XDEG, int(prec))
    assert json.loads(out)['result']['value'] == want.to_json()


def test_series_bad_family_is_usage(capsys):
    code, _, _ = run(capsys, 'series', 'C', '1/2')
    assert code == 1


# ---------------------------------------------------------------------------
# snake

def test_snake_paths(capsys):
    code, out, _ = run(capsys, 'snake', 'paths', '5/2')
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == '5 paths for 5/2:'
    weights = [int(line.rsplit(' ', 1)[1]) for line in lines[1:6]]
    assert sorted(weights) == [0, 1, 1, 2, 3]
    assert lines[-1] == 'weight polynomial = 1 + 2q + q^2 + q^3'


def test_snake_paths_with_minimum_ups(capsys):
    code, out, _ = run(capsys, 'snake', 'paths', '5/2', '1')
    assert code == 0
    assert out.splitlines()[-1] == 'weight polynomial = q + q^2 + q^3'


def test_snake_paths_with_no_match_has_zero_weight(capsys):
    code, out, _ = run(capsys, 'snake', 'paths', '5/3', '9')
    assert code == 0
    assert out.splitlines()[-1] == 'weight polynomial = 0'
    code, out, _ = run(capsys, 'snake', 'paths', '5/3', '9',
                       '--format', 'json')
    assert json.loads(out)['result']['weights'] == []


def test_snake_tuples(capsys):
    code, out, _ = run(capsys, 'snake', 'tuples', '5/2', '2')
    assert code == 0
    assert '15 tuples' in out
    assert 'class sizes: 5, 3' in out


def test_snake_tuples_need_length(capsys):
    code, _, err = run(capsys, 'snake', 'tuples', '5/2')
    assert code == 2
    assert 'tuple length' in err


def test_snake_graph(capsys):
    code, out, _ = run(capsys, 'snake', 'graph', '5/2')
    assert code == 0
    assert 'SnakeGraph(5/2' in out
    assert 'numerator = 1 + 2q + q^2 + q^3' in out
    assert 'denominator = 1 + q' in out


def test_snake_graph_rejects_length(capsys):
    code, _, _ = run(capsys, 'snake', 'graph', '5/2', '2')
    assert code == 2


def test_snake_needs_value_above_one(capsys):
    code, _, _ = run(capsys, 'snake', 'paths', '1/2')
    assert code == 2


@pytest.mark.parametrize('n', [1200, 2000, 3000])
def test_snake_long_quotient(capsys, n):
    # (n+1)/n is a row of n cells: its numerator is [n+1]_q, and its
    # n + 1 paths of n + 1 steps are too many path-steps to list
    value = f'{n + 1}/{n}'
    for argv in (('graph', value), ('tuples', value, '2')):
        code, out, _ = run(capsys, 'snake', *argv, '--format', 'json')
        assert code == 0
        assert json.loads(out)['result']['numerator'] == [1] * (n + 1)
    code, out, err = run(capsys, 'snake', 'paths', value)
    assert code == 2
    assert out == ''
    assert err.count('\n') == 1 and 'budget' in err


def test_snake_error_names_only_the_fraction(capsys):
    # the snake of 3001/3000 is one row, so no path starts with 2 up steps
    code, out, err = run(capsys, 'snake', 'tuples', '3001/3000', '3')
    assert code == 2
    assert out == ''
    assert err.count('\n') == 1 and '3001/3000' in err
    assert len(err) < 120, err


# ---------------------------------------------------------------------------
# a reader that stops early

def test_closed_pipe_exits_cleanly():
    # the eval output (about 1 MB) outgrows the pipe buffer, so the
    # process is still writing when the reader closes its end
    env = dict(os.environ)
    env['PYTHONPATH'] = os.pathsep.join(
        [str(ROOT / 'src')] + ([env['PYTHONPATH']]
                               if env.get('PYTHONPATH') else []))
    proc = subprocess.Popen(
        [sys.executable, '-m', 'qreals.cli', 'eval', '100001/100000'],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert head.startswith(b'[100001/100000]_q = ')
    assert err == b''


# ---------------------------------------------------------------------------
# identity

def test_identity_run_single(capsys):
    code, out, _ = run(capsys, 'identity', 'run', '--filter',
                       'CHU_VANDERMONDE', '--trials', '3')
    assert code == 0
    assert 'CHU_VANDERMONDE' in out
    assert '0 unexpected' in out


def test_identity_run_unknown_name_is_usage(capsys):
    code, _, err = run(capsys, 'identity', 'run', '--filter', 'NOPE')
    assert code == 1
    assert 'unknown identity' in err


def test_identity_run_negative_xdeg_is_usage(capsys):
    code, _, err = run(capsys, 'identity', 'run', '--filter', 'DQ_B',
                       '--xdeg', '-1')
    assert code == 1
    assert err == 'error: xdeg must be at least 0\n'


def test_identity_failure_exit_code(capsys, monkeypatch):
    bad = IdentityCase(identity='PASCAL_A', binding={'alpha': '5/2', 'k': 2},
                       mode='exact', equal=False, expect_equal=True)
    report = SuiteReport(seed=7, trials=1, precision=32, xdeg=5,
                         cases=(bad,))
    monkeypatch.setattr(cli, 'run_suite', lambda *a, **k: report)
    code, out, _ = run(capsys, 'identity', 'run')
    assert code == 4
    assert 'UNEXPECTED' in out


# ---------------------------------------------------------------------------
# flags and envelope

def test_json_envelope_round_trips(capsys):
    for argv in (('eval', '52/23'), ('gamma', '1/2', '--prec', '6'),
                 ('snake', 'tuples', '5/2', '2'),
                 ('identity', 'run', '--filter', 'PASCAL_A',
                  '--trials', '2')):
        code, out, _ = run(capsys, *argv, '--format', 'json')
        assert code == 0
        payload = json.loads(out)
        assert json.dumps(payload, sort_keys=True) == out.strip()
        assert set(payload) == {'command', 'input', 'precision', 'result'}


def test_json_eval_payload_shape(capsys):
    _, out, _ = run(capsys, 'eval', '5/2', '--format', 'json')
    payload = json.loads(out)
    assert payload['command'] == 'eval'
    assert payload['input'] == {'value': '5/2', 'form': 'ratfun'}
    assert payload['result']['value'] == {
        'e': 0, 'num': [1, 2, 1, 1], 'den': [1, 1]}


def test_output_is_deterministic(capsys):
    first = run(capsys, 'identity', 'run', '--filter', 'RIORDAN_PRODUCT',
                '--trials', '4', '--format', 'json')
    second = run(capsys, 'identity', 'run', '--filter', 'RIORDAN_PRODUCT',
                 '--trials', '4', '--format', 'json')
    assert first == second


def test_env_precision_default(capsys, monkeypatch):
    monkeypatch.setenv('QREAL_PREC', '6')
    code, out, _ = run(capsys, 'gamma', '1/2')
    assert code == 0
    assert out.endswith('O(q^6)\n')
    # an explicit flag still wins
    code, out, _ = run(capsys, 'gamma', '1/2', '--prec', '5')
    assert out.endswith('O(q^5)\n')


@pytest.mark.parametrize('value', ['abc', '0', '-3', ''])
def test_invalid_env_precision_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv('QREAL_PREC', value)
    code, out, err = run(capsys, 'gamma', '1/2')
    assert code == 1
    assert out == ''
    assert err == f'error: QREAL_PREC must be a positive integer, ' \
                  f'got {value!r}\n'


def test_latex_rendering(capsys):
    _, out, _ = run(capsys, 'eval', '5/2', '--latex')
    assert out == '[5/2]_q = \\frac{1 + 2q + q^{2} + q^{3}}{1 + q}\n'
    _, out, _ = run(capsys, 'gamma', '1/2', '--prec', '5', '--latex')
    assert 'q^{-1} + \\frac{3}{2}' in out
    _, out, _ = run(capsys, 'series', 'B', '1/2', '--xdeg', '1',
                    '--prec', '4', '--latex')
    assert '\\left(' in out and 'O(x^{2})' in out


def test_timing_flag_adds_line(capsys):
    _, out, _ = run(capsys, 'eval', '5/2', '--timing')
    assert out.splitlines()[-1].startswith('time:')
    _, out, _ = run(capsys, 'eval', '5/2', '--format', 'json', '--timing')
    assert 'seconds' in json.loads(out)


def test_prec_must_be_positive(capsys):
    code, _, _ = run(capsys, 'eval', '5/2', '--prec', '0')
    assert code == 1


def test_no_arguments_is_usage(capsys):
    code, _, _ = run(capsys)
    assert code == 1


def test_unknown_command_is_usage(capsys):
    code, _, _ = run(capsys, 'transmogrify', '5/2')
    assert code == 1


# ---------------------------------------------------------------------------
# argv fuzz: every command line ends in a documented exit code, with one
# stderr line for a failure (argparse usage errors add the usage text)

_VALUES = st.sampled_from(
    ['5/2', '-7/3', '0', '1', '3', '-2', '6/5', '1/3', '52/23', '[2;(2)]',
     '[1;(1)]', '[1,2]', '[3,1,2,2]', '[1;(0)]', '1/0', 'x', ''])
# a long partial quotient: 1001 paths of 1001 steps
_SNAKE_VALUES = _VALUES | st.just('1001/1000')
_INTS = st.integers(min_value=-3, max_value=6).map(str)
_POSITIONALS = {
    'eval': st.tuples(_VALUES),
    'binom': st.tuples(_VALUES, _INTS),
    'brace': st.tuples(_VALUES),
    'gamma': st.tuples(_VALUES),
    'series': st.tuples(st.sampled_from(['B', 'b', 'c']), _VALUES),
    'snake': st.tuples(st.sampled_from(['paths', 'tuples', 'graph', 'x']),
                       _SNAKE_VALUES) | st.tuples(
        st.sampled_from(['paths', 'tuples', 'graph']), _SNAKE_VALUES, _INTS),
    'identity': st.tuples(st.just('run'), st.just('--filter'),
                          st.sampled_from(['BRACE_PROP_A', 'DQ_B',
                                           'PASCAL_A', 'NOPE', ''])),
}
_OPTIONS = st.one_of(
    st.tuples(st.just('--prec'),
              st.integers(min_value=-1, max_value=24).map(str)),
    st.tuples(st.just('--format'), st.sampled_from(['json', 'text', 'x'])),
    st.tuples(st.sampled_from(['--latex', '--timing'])),
    st.tuples(st.just('--xdeg'), _INTS),
    st.tuples(st.just('--form'), st.sampled_from(['ratfun', 'series'])),
    st.tuples(st.just('--trials'),
              st.integers(min_value=-1, max_value=2).map(str)),
    st.tuples(st.just('--seed'), _INTS),
    st.tuples(st.text(alphabet='-/;[](),.ax', max_size=4)))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_POSITIONALS)))
    argv = [command, *draw(_POSITIONALS[command])]
    for option in draw(st.lists(_OPTIONS, max_size=3)):
        argv.extend(option)
    return argv


@settings(max_examples=200, deadline=None)
@given(_argv())
def test_fuzzed_argv_ends_in_a_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    err = err.getvalue()
    assert code in (0, 1, 2, 3, 4)
    lines = err.splitlines()
    if code in (1, 2, 3) and not lines[0].startswith('usage:'):
        assert len(lines) == 1, err
    assert 'Traceback' not in err
