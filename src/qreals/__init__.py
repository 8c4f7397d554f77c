"""Exact arithmetic for q-deformed rationals and reals.

The deformation sends a rational r to a rational function [r]_q of a
formal variable q, and a real number to a Laurent series in q, in a way
that restricts to the classical q-integers [n]_q = 1 + q + ... + q^(n-1)
and is compatible with continued fractions.  Built on top of that are
q-binomial coefficients with arbitrary rational or real upper index,
their lattice-path models, the two q-binomial series and their product
expansions, and a q-Gamma function.
"""

from .errors import (DomainError, InsufficientPrecisionError,
                     IntegralityError, NonConvergenceError, QRealError)
from .polynomial import IntPolynomial, poly_gcd
from .qcore import (DEFAULT_PRECISION, ContinuedFraction,
                    ConvergentSequence, PeriodicContinuedFraction,
                    RationalValue, RealSpec, order_at_zero, parse_real_spec,
                    q_brace, q_brace_series, q_integer, q_rational,
                    q_rational_series, q_real_series)
from .ratfun import QRationalFunction, ratfun
from .series import LaurentSeries, series, series_from_ratfun

# Every command needs the modules above.  The names of the five below load
# their module on first use (PEP 562).  ratfun and series cannot: each names
# a submodule too, and an imported submodule hides a lazy function's name.
_HOME = {name: module for module, names in (
    ('qbinomial', 'binomial_order q_binomial q_binomial_series q_factorial '
                  'q_pochhammer'),
    ('qgamma', 'gamma_convergence_report gamma_power gamma_reflection '
               'pochhammer_at_q q_gamma scalar_binomial_series'),
    ('qseries', 'XSeries binomial_coefficients binomial_product '
                'binomial_series generalized_pochhammer '
                'negative_binomial_coefficients negative_binomial_product '
                'negative_binomial_series q_derivative xseries'),
    ('identities', 'CATALOG IDENTITIES IdentityCase SuiteReport run_suite '
                   'verify_identity'),
    ('snake', 'SnakeGraph SnakePath')) for name in names.split()}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f'module {__name__!r} has no attribute {name!r}')
    module = __import__(f'{__name__}.{_HOME[name]}', fromlist=[name])
    value = globals()[name] = getattr(module, name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))

__version__ = '0.1.0'

__all__ = [
    'QRealError', 'DomainError', 'NonConvergenceError',
    'InsufficientPrecisionError', 'IntegralityError',
    'IntPolynomial', 'poly_gcd',
    'QRationalFunction', 'ratfun',
    'LaurentSeries', 'series', 'series_from_ratfun',
    'DEFAULT_PRECISION', 'ContinuedFraction', 'RationalValue',
    'PeriodicContinuedFraction', 'ConvergentSequence', 'RealSpec',
    'parse_real_spec', 'q_integer', 'q_rational', 'q_rational_series',
    'q_brace', 'q_brace_series', 'q_real_series', 'order_at_zero',
    'q_factorial', 'q_pochhammer', 'q_binomial', 'binomial_order',
    'q_binomial_series',
    'XSeries', 'xseries', 'binomial_series', 'negative_binomial_series',
    'binomial_product', 'negative_binomial_product',
    'binomial_coefficients', 'negative_binomial_coefficients',
    'generalized_pochhammer', 'q_derivative',
    'q_gamma', 'pochhammer_at_q', 'gamma_reflection', 'gamma_power',
    'scalar_binomial_series', 'gamma_convergence_report',
    'IDENTITIES', 'CATALOG', 'IdentityCase', 'SuiteReport',
    'run_suite', 'verify_identity',
    'SnakeGraph', 'SnakePath',
    '__version__',
]
