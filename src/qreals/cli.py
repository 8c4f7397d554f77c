"""Command-line front end: batch evaluation, enumeration, suite runs.

Every command prints one deterministic rendering of its result: a text
form meant for reading (optionally LaTeX-flavored) or a JSON envelope
meant for machines.  Identical arguments produce byte-identical output
unless --timing is requested, which adds a wall-clock field.

Exit codes: 0 success, 1 usage, 2 domain error, 3 non-convergence,
4 identity suite failure.  A reader closing the output pipe early is
not an error: the command exits 0.
"""

import json
import os
import re
import sys
import time

from .errors import (DomainError, InsufficientPrecisionError,
                     NonConvergenceError)
from .polynomial import IntPolynomial, format_terms
from .qcore import (parse_real_spec, q_brace, q_brace_series, q_rational,
                    q_real_series)
from .ratfun import QRationalFunction
from .series import LaurentSeries
# each command imports the rest of the library it uses, and only that

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_NONCONVERGENCE = 3
EXIT_IDENTITY = 4

DEFAULT_PREC = 32
DEFAULT_XDEG = 8


# ---------------------------------------------------------------------------
# rendering

def _latex_coefficient(c, alone):
    if c.denominator == 1:
        return str(c.numerator)
    return f'\\frac{{{c.numerator}}}{{{c.denominator}}}'


def _latex_poly(p):
    return format_terms(enumerate(p.coeffs), coefficient=_latex_coefficient,
                        power='{}^{{{}}}')


def _latex_ratfun(rf):
    if rf.is_zero:
        return '0'
    num, den, e = rf.num, rf.den, rf.e
    if den == IntPolynomial.one():
        body = _latex_poly(num)
        if e == 0:
            return body
    else:
        body = f'\\frac{{{_latex_poly(num)}}}{{{_latex_poly(den)}}}'
        if e == 0:
            return body
    return f'q^{{{e}}} \\, {body}'


def _latex_series(s):
    body = format_terms(((s.order + i, c) for i, c in enumerate(s.coeffs)),
                        coefficient=_latex_coefficient, power='{}^{{{}}}')
    if s.precision == float('inf'):
        return body
    tail = f'O(q^{{{s.precision}}})'
    return tail if body == '0' else f'{body} + {tail}'


def _latex_xseries(f):
    parts = []
    for j, c in enumerate(f.coefficients()):
        var = '' if j == 0 else (' x' if j == 1 else f' x^{{{j}}}')
        parts.append(f'\\left({_latex_series(c)}\\right){var}')
    if f.xlength != float('inf'):
        parts.append(f'O(x^{{{f.xlength}}})')
    return ' + '.join(parts)


def _render(obj, latex):
    if isinstance(obj, QRationalFunction):
        return _latex_ratfun(obj) if latex else str(obj)
    if isinstance(obj, LaurentSeries):
        return _latex_series(obj) if latex else str(obj)
    return _latex_poly(obj) if latex else str(obj)


def _emit(args, command, inputs, result_json, text_lines, started):
    if args.format == 'json':
        envelope = {
            'command': command,
            'input': inputs,
            'precision': args.prec,
            'result': result_json,
        }
        if args.timing:
            envelope['seconds'] = round(time.perf_counter() - started, 6)
        print(json.dumps(envelope, sort_keys=True))
    else:
        for line in text_lines:
            print(line)
        if args.timing:
            print(f'time: {time.perf_counter() - started:.3f}s')


# ---------------------------------------------------------------------------
# commands

def _parse_spec(text):
    # malformed arguments are usage errors (exit 1); exit 2 is reserved
    # for well-formed values outside an operation's domain
    try:
        return parse_real_spec(text)
    except DomainError as err:
        raise ValueError(str(err)) from err


def _require_rational(spec, what):
    if not spec.is_rational:
        raise DomainError(f'{what} is defined for rational arguments only, '
                          f'got {spec}')
    return spec.value


def _cmd_eval(args, started):
    spec = _parse_spec(args.value)
    form = args.form or ('ratfun' if spec.is_rational else 'series')
    if form == 'ratfun':
        value = q_rational(_require_rational(spec, 'the ratfun form'))
    else:
        value = q_real_series(spec, args.prec)
    _emit(args, 'eval', {'value': args.value, 'form': form},
          {'form': form, 'value': value.to_json()},
          [f'[{args.value}]_q = {_render(value, args.latex)}'], started)


def _cmd_binom(args, started):
    from .qbinomial import q_binomial, q_binomial_series
    spec = _parse_spec(args.value)
    if spec.is_rational:
        form, value = 'ratfun', q_binomial(spec.value, args.k)
    else:
        form, value = 'series', q_binomial_series(spec, args.k, args.prec)
    _emit(args, 'binom', {'value': args.value, 'k': args.k, 'form': form},
          {'form': form, 'value': value.to_json()},
          [f'binom({args.value}, {args.k})_q = {_render(value, args.latex)}'],
          started)


def _cmd_brace(args, started):
    spec = _parse_spec(args.value)
    if spec.is_rational:
        form, value = 'ratfun', q_brace(spec.value)
    else:
        form, value = 'series', q_brace_series(spec, args.prec)
    _emit(args, 'brace', {'value': args.value, 'form': form},
          {'form': form, 'value': value.to_json()},
          ['{%s}_q = %s' % (args.value, _render(value, args.latex))],
          started)


def _cmd_gamma(args, started):
    from .qgamma import q_gamma
    spec = _parse_spec(args.value)
    value = q_gamma(_require_rational(spec, 'the Gamma function'), args.prec)
    _emit(args, 'gamma', {'value': args.value},
          {'form': 'series', 'value': value.to_json()},
          [f'gamma_q({args.value}) = {_render(value, args.latex)}'], started)


def _cmd_series(args, started):
    if args.xdeg < 0:
        raise ValueError('xdeg must be at least 0')
    from .qseries import binomial_series, negative_binomial_series
    spec = _parse_spec(args.value)
    build = binomial_series if args.family == 'B' else \
        negative_binomial_series
    f = build(spec, args.xdeg, args.prec)
    if args.latex:
        body = [_latex_xseries(f)]
    else:
        body = str(f).splitlines()
    _emit(args, 'series',
          {'family': args.family, 'value': args.value, 'xdeg': args.xdeg},
          {'family': args.family, 'value': f.to_json()},
          [f'{args.family}_{{{args.value}}}(q, x):'] + body, started)


def _snake_payload(graph):
    return {
        'fraction': str(graph.fraction),
        'word': graph.word,
        'cells': [list(c) for c in graph.cells],
        'numerator': list(graph.numerator_polynomial().coeffs),
        'denominator': list(graph.denominator_polynomial().coeffs),
    }


def _cmd_snake(args, started):
    from .snake import SnakeGraph
    spec = _parse_spec(args.value)
    graph = SnakeGraph(_require_rational(spec, 'the snake model'))
    payload = _snake_payload(graph)
    inputs = {'mode': args.mode, 'value': args.value, 'k': args.k}
    if args.mode == 'graph':
        if args.k is not None:
            raise DomainError('the graph view takes no tuple length')
        del inputs['k']
        lines = [repr(graph), graph.ascii_art(),
                 f'numerator = '
                 f'{_render(graph.numerator_polynomial(), args.latex)}',
                 f'denominator = '
                 f'{_render(graph.denominator_polynomial(), args.latex)}']
    elif args.mode == 'paths':
        j = args.k or 0
        paths = graph.paths_with_initial_ups(j)
        if args.k is None:
            head = f'{len(paths)} paths for {args.value}:'
        else:
            head = (f'{len(paths)} paths with at least {args.k} initial '
                    f'up steps for {args.value}:')
        weights = graph.class_polynomial(j) if paths else IntPolynomial.zero()
        lines = [head] + [f'  {p.steps}  weight {p.weight}' for p in paths]
        lines.append(f'weight polynomial = {_render(weights, args.latex)}')
        payload['paths'] = [{'steps': p.steps, 'weight': p.weight}
                            for p in paths]
        payload['weights'] = list(weights.coeffs)
    else:
        if args.k is None:
            raise DomainError('tuple enumeration needs a tuple length')
        poly = graph.tuple_polynomial(args.k)
        sizes = [graph.class_polynomial(j)(1) for j in range(args.k)]
        lines = [f'{args.k}-tuples of paths for {args.value}: '
                 f'{poly(1)} tuples',
                 f'class sizes: {", ".join(str(s) for s in sizes)}'
                 if sizes else 'class sizes: (empty product)',
                 f'weight polynomial = {_render(poly, args.latex)}']
        payload['k'] = args.k
        payload['class_sizes'] = sizes
        payload['tuples'] = poly(1)
        payload['weights'] = list(poly.coeffs)
    _emit(args, 'snake', inputs, payload, lines, started)


def run_suite(*args, **kwargs):
    from .identities import run_suite
    return run_suite(*args, **kwargs)


def _cmd_identity(args, started):
    names = None if args.filter in (None, 'ALL') else [
        part.strip() for part in args.filter.split(',') if part.strip()]
    report = run_suite(names, trials=args.trials, seed=args.seed,
                       precision=args.prec, xdeg=args.xdeg)
    _emit(args, 'identity',
          {'filter': args.filter or 'ALL', 'trials': args.trials,
           'seed': args.seed, 'xdeg': args.xdeg},
          report.to_json(), report.lines(), started)
    return EXIT_OK if report.ok else EXIT_IDENTITY


def _env_precision():
    text = os.environ.get('QREAL_PREC', str(DEFAULT_PREC))
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f'QREAL_PREC must be a positive integer, '
                         f'got {text!r}')
    return value


def _parser_class():
    # imported here, not at the top: importing this module loads no
    # argparse, only running a command does
    import argparse

    class _Parser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            # a negative integer or rational such as -7/3 is a value, not
            # an option; argparse itself recognizes only negative decimals
            self._negative_number_matcher = re.compile(
                r'^-\d+(/\d+)?$|^-\d*\.\d+$')

        # argparse exits with 2 on bad flags; the contract reserves 2 for
        # domain errors and uses 1 for usage problems
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(EXIT_USAGE, f'{self.prog}: error: {message}\n')

    return _Parser


def _build_parser():
    _Parser = _parser_class()
    env_prec = _env_precision()

    common = _Parser(add_help=False)
    common.add_argument('--prec', type=int, default=env_prec, metavar='N',
                        help='series precision in q (default %(default)s, '
                        'or the QREAL_PREC environment variable)')
    common.add_argument('--format', choices=('text', 'json'), default='text',
                        help='output format (default %(default)s)')
    common.add_argument('--latex', action='store_true',
                        help='LaTeX-flavored text rendering')
    common.add_argument('--timing', action='store_true',
                        help='append wall-clock time to the output')

    parser = _Parser(prog='qreal',
                     description='Exact q-deformations of rationals and '
                     'reals: values, binomials, braces, Gamma, series, '
                     'lattice-path models, and the identity suite.')
    sub = parser.add_subparsers(dest='command', required=True,
                                parser_class=_Parser)

    p = sub.add_parser('eval', parents=[common],
                       help='deformation [value]_q')
    p.add_argument('value', help="rational 'p/q', finite continued "
                   "fraction '[a1,a2,...]', or periodic '[h;(p)]'")
    p.add_argument('--form', choices=('ratfun', 'series'),
                   help='exact rational function (rational input only) '
                   'or truncated series; defaults by input kind')
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser('binom', parents=[common],
                       help='q-binomial with deformed upper index')
    p.add_argument('value')
    p.add_argument('k', type=int)
    p.set_defaults(handler=_cmd_binom)

    p = sub.add_parser('brace', parents=[common],
                       help='the brace {value}_q = 1 + (q-1)[value]_q')
    p.add_argument('value')
    p.set_defaults(handler=_cmd_brace)

    p = sub.add_parser('gamma', parents=[common],
                       help='deformed Gamma function of a rational')
    p.add_argument('value')
    p.set_defaults(handler=_cmd_gamma)

    p = sub.add_parser('series', parents=[common],
                       help='deformed (1+x)^value or 1/(1-x)^value')
    p.add_argument('family', choices=('B', 'b'),
                   help='B for the (1+x) form, b for the 1/(1-x) form')
    p.add_argument('value')
    p.add_argument('--xdeg', type=int, default=DEFAULT_XDEG, metavar='K',
                   help='highest power of x kept (default %(default)s)')
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser('snake', parents=[common],
                       help='lattice-path model of a rational > 1')
    p.add_argument('mode', choices=('paths', 'tuples', 'graph'))
    p.add_argument('value')
    p.add_argument('k', type=int, nargs='?',
                   help='tuple length (tuples) or minimum initial up '
                   'steps (paths)')
    p.set_defaults(handler=_cmd_snake)

    # no common flags on the outer parser: a subparser re-applies its
    # own defaults, which would silently clobber values given before
    # the action word
    p = sub.add_parser('identity', help='verify the identity catalog')
    action = p.add_subparsers(dest='action', required=True,
                              parser_class=_Parser)
    run = action.add_parser('run', parents=[common])
    run.add_argument('--filter', metavar='NAMES',
                     help="identity name or comma-separated names "
                     "(default ALL)")
    run.add_argument('--trials', type=int, default=25)
    run.add_argument('--seed', type=int, default=7)
    run.add_argument('--xdeg', type=int, default=5, metavar='K',
                     help='x-degree for series identities '
                     '(default %(default)s)')
    run.set_defaults(handler=_cmd_identity)

    return parser


def main(argv=None):
    try:
        parser = _build_parser()
        args = parser.parse_args(argv)
        if args.prec < 1:
            parser.error('--prec must be at least 1')
        started = time.perf_counter()
        code = args.handler(args, started) or EXIT_OK
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader stopped early (say `| head`) after the command did its
        # work; stdout goes to devnull so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except DomainError as err:
        print(f'domain error: {err}', file=sys.stderr)
        return EXIT_DOMAIN
    except OverflowError as err:
        # a size past what a list or tuple can index, say the degree of
        # binom(10^20, 2)_q
        print(f'domain error: too large to build ({err})', file=sys.stderr)
        return EXIT_DOMAIN
    except (NonConvergenceError, InsufficientPrecisionError) as err:
        print(f'did not converge: {err}', file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except ValueError as err:
        print(f'error: {err}', file=sys.stderr)
        return EXIT_USAGE


if __name__ == '__main__':
    sys.exit(main())
