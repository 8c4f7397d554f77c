"""The precision contract: every builder returns exactly the precision it
was asked for, the coefficients below it do not depend on the working
precision, and closed-form working precisions expand only once: one read
of an irrational value per binomial builder, one build per checker side,
and checker pads that are the smallest that work."""

import math
from fractions import Fraction

import pytest

import qreals.identities as identities
import qreals.qbinomial as qbinomial
import qreals.qcore as qcore
import qreals.qgamma as qgamma
import qreals.qseries as qseries
from qreals import _cache
from qreals import (ConvergentSequence, InsufficientPrecisionError,
                    PeriodicContinuedFraction, verify_identity)
from qreals.qbinomial import binomial_order, q_binomial_series
from qreals.qcore import q_brace
from qreals.qgamma import (gamma_power, gamma_reflection, pochhammer_at_q,
                           q_gamma)
from qreals.qseries import (binomial_product, binomial_series,
                            generalized_pochhammer, negative_binomial_product,
                            negative_binomial_series)

P = 10
SILVER = PeriodicContinuedFraction((2,), (2,))

# brace orders 2 down to -3 among the rationals
VALUES = [Fraction(7, 3), Fraction(1, 2), Fraction(-1, 10), Fraction(-4, 3),
          Fraction(-11, 10), Fraction(-21, 10)]
# Gamma orders 0, -2, 5, -3, -4, and 14 (no known term below P)
GAMMA_ARGS = [Fraction(5, 2), Fraction(1, 3), Fraction(-5, 2),
              Fraction(-29, 10), Fraction(-5, 6), Fraction(-17, 4)]
# b >= 4 with a / b < 0 as well as the small cases
POWERS = [(1, 2), (2, 3), (-1, 4), (-3, 4), (-7, 5), (-5, 6)]
PRODUCTS = [binomial_product, negative_binomial_product,
            generalized_pochhammer]
SUMS = [binomial_series, negative_binomial_series]


def _builders():
    for r in GAMMA_ARGS:
        yield f'q_gamma({r})', lambda p, r=r: q_gamma(r, p)
        yield f'reflection({r})', lambda p, r=r: gamma_reflection(r, p)
    for r in VALUES[:4]:
        yield f'pochhammer_at_q({r})', lambda p, r=r: pochhammer_at_q(r, p)
    for a, b in POWERS:
        yield f'power({a}/{b})', lambda p, a=a, b=b: gamma_power(a, b, p)
    for fn in PRODUCTS + SUMS:
        for r in VALUES + [SILVER]:
            yield (f'{fn.__name__}({r})',
                   lambda p, fn=fn, r=r: fn(r, 3, p))
    for k in (1, 3):
        yield (f'q_binomial_series(silver, {k})',
               lambda p, k=k: q_binomial_series(SILVER, k, p))


BUILDERS = dict(_builders())


def _truncate(value, precision):
    if isinstance(value, qseries.XSeries):
        return value.truncate_q(precision)
    return value.truncate(precision)


@pytest.mark.parametrize('name', BUILDERS)
def test_result_has_exactly_the_requested_precision(name):
    assert BUILDERS[name](P).precision == P


@pytest.mark.parametrize('name', BUILDERS)
def test_result_does_not_depend_on_working_precision(name):
    build = BUILDERS[name]
    assert build(P) == _truncate(build(P + 12), P)


def test_brace_orders_of_the_panel():
    assert [q_brace(r).order for r in VALUES] == [2, 0, -1, -2, -2, -3]


def _counting(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize('r', GAMMA_ARGS)
def test_reflection_expands_each_factor_once(monkeypatch, r):
    # from a cold table: a warm one calls q_gamma not at all
    calls = _counting(monkeypatch, qgamma, 'q_gamma')
    _cache.clear()
    gamma_reflection(r, P)
    values = [args[0] for args in calls]
    assert values.count(r) == 1 and values.count(1 - r) == 1


@pytest.mark.parametrize('a, b', POWERS)
def test_power_expands_its_base_once(monkeypatch, a, b):
    calls = _counting(monkeypatch, qgamma, 'q_gamma')
    _cache.clear()
    gamma_power(a, b, P)
    assert [args[0] for args in calls].count(Fraction(a, b)) == 1


@pytest.mark.parametrize('fn', PRODUCTS)
@pytest.mark.parametrize('r', VALUES)
def test_product_expands_once(monkeypatch, fn, r):
    # one build from a cold table, and none for the same key again
    calls = _counting(monkeypatch, qseries, '_expand_product')
    _cache.clear()
    fn(r, 5, P)
    fn(r, 5, P)
    assert len(calls) == 1


def _inv_silver():
    # sqrt(2) - 1, the fractional part of the silver ratio, in (0, 1)
    for c in SILVER.convergents():
        yield c - 2


IRRATIONALS = [SILVER, PeriodicContinuedFraction((), (1,)),
               ConvergentSequence(_inv_silver, 'sqrt(2) - 1')]


@pytest.mark.parametrize('value', IRRATIONALS, ids=str)
@pytest.mark.parametrize('build', [
    lambda v: binomial_series(v, 5, P),
    lambda v: negative_binomial_series(v, 5, P),
    lambda v: q_binomial_series(v, 1, P),
    lambda v: q_binomial_series(v, 4, P)],
    ids=['B', 'b', 'binom1', 'binom4'])
def test_irrational_binomials_read_the_value_once(monkeypatch, build, value):
    calls = _counting(monkeypatch, qcore, 'q_real_series')
    build(value)
    assert len(calls) == 1


@pytest.mark.parametrize('fn', PRODUCTS)
@pytest.mark.parametrize('value', VALUES + [SILVER], ids=str)
def test_product_expands_the_brace_once(monkeypatch, fn, value):
    calls = _counting(monkeypatch, qseries, 'q_brace_series')
    _cache.clear()
    fn(value, 5, P)
    assert len(calls) == 1


CHECKED = ['SHIFT_B', 'SHIFT_b', 'DQ_B', 'DQ_b', 'FUNC_EQ_B', 'FUNC_EQ_b',
           'SHIFT_Bn', 'SHIFT_bn']


def _checker_panel():
    # alpha = 0 adds an exact brace and an exactly vanishing [alpha]_q
    for name in CHECKED:
        for a in VALUES + [Fraction(0)]:
            if name.endswith('n'):
                for n in (-3, -1, 0, 2, 5):
                    yield name, {'alpha': a, 'n': n}
            else:
                yield name, {'alpha': a}


# the builds each checker makes, one per side of its statement
SIDES = {'SHIFT_B': 3, 'SHIFT_b': 3, 'SHIFT_Bn': 4, 'SHIFT_bn': 4,
         'DQ_B': 2, 'DQ_b': 2, 'FUNC_EQ_B': 1, 'FUNC_EQ_b': 1,
         'GAMMA_SHIFT': 2, 'GAMMA_BINOM': 6}


def _count_builds(monkeypatch):
    # (name, working precision) of every build a checker makes
    builds = []

    def count(module, name, at):
        inner = getattr(module, name)

        def counted(*args):
            builds.append((name, args[at]))
            return inner(*args)
        monkeypatch.setattr(module, name, counted)
    count(qseries, '_binomial_sum', 2)
    for name in ('q_brace_series', 'q_gamma', 'pochhammer_at_q'):
        count(identities, name, 1)
    return builds


def _assert_built_once(builds, panel, **settings):
    for name, binding in panel:
        before = len(builds)
        case = verify_identity(name, binding, precision=P, **settings)
        assert case.ok
        made = builds[before:]
        # every side built once, all at one working precision
        assert len(made) == SIDES[name], (name, binding, made)
        assert len({work for _, work in made}) == 1, (name, binding, made)


@pytest.mark.parametrize('xdeg', [3, 5, 8])
def test_identity_checkers_start_from_a_sufficient_pad(monkeypatch, xdeg):
    _assert_built_once(_count_builds(monkeypatch), _checker_panel(),
                       xdeg=xdeg)


def test_gamma_checkers_start_from_a_sufficient_slack(monkeypatch):
    panel = [('GAMMA_SHIFT', {'alpha': a}) for a in GAMMA_ARGS]
    panel += [('GAMMA_BINOM', {'alpha': a, 'k': k})
              for a in GAMMA_ARGS for k in (1, 2, 4)]
    _assert_built_once(_count_builds(monkeypatch), panel)


@pytest.mark.parametrize('xdeg', [0, 3, 5, 8])
def test_identity_checker_pads_are_the_smallest_that_work(monkeypatch,
                                                          xdeg):
    derived = identities._pad
    pads = []

    def recorded(*shapes):
        pads.append(derived(*shapes))
        return pads[-1]

    for name, binding in _checker_panel():
        monkeypatch.setattr(identities, '_pad', recorded)
        assert verify_identity(name, binding, precision=P, xdeg=xdeg).ok
        pad = pads[-1]
        if pad:
            # one less falls short, and the checker raises
            monkeypatch.setattr(identities, '_pad', lambda *shapes: pad - 1)
            with pytest.raises(InsufficientPrecisionError):
                verify_identity(name, binding, precision=P, xdeg=xdeg)


def _kernel_terms(a, precision):
    # the kernel's terms k (-1)^k q^(k(k+1)/2) binom(a, k)_q that show
    # below q^precision, counted from the binomial orders
    count = 0
    while True:
        o = binomial_order(a, count)
        if o == math.inf or count * (count + 1) // 2 + o >= precision:
            return count
        count += 1


def _count_walk(monkeypatch):
    # every shift-law read, made by binomial_run or by the descent, with
    # the factors requested from it, and every kernel built with the
    # reads made inside it; from cold tables
    reads, kernels = [], []
    inner, kernel = qbinomial.shift_numerator, qgamma._kernel_series

    def counting(value, precision=None):
        requested = []
        reads.append((value, requested))
        base, numerator = inner(value, precision)

        def counted(t):
            requested.append(t)
            return numerator(t)
        return base, counted

    def marked(a, precision):
        start = len(reads)
        out = kernel(a, precision)
        kernels.append((a, precision, reads[start:]))
        return out
    monkeypatch.setattr(qbinomial, 'shift_numerator', counting)
    monkeypatch.setattr(qgamma, 'shift_numerator', counting)
    monkeypatch.setattr(qgamma, '_kernel_series', marked)
    _cache.clear()
    return reads, kernels


def _assert_one_walk(reads, kernels, value):
    # the Pochhammer product at value is one kernel at value + m, whose
    # run requests each binomial factor [a - k]_q / [k + 1]_q, k < K - 1,
    # once and in order, then for value < 0 the descent's m factors
    # 1 - q^j {value}_q, j = 1..m, once and in order: no rebuild and no
    # second pass at a higher precision
    m = max(0, math.ceil(-value))
    [(a, precision, run)] = kernels
    assert a == value + m
    terms = _kernel_terms(a, precision)
    assert run == ([(a, list(range(0, 1 - terms, -1)))] if terms > 1
                   else [])
    assert reads == run + ([(value, list(range(1, m + 1)))] if m else [])
    return terms


@pytest.mark.parametrize('r', GAMMA_ARGS + [Fraction(7, 3), 3])
def test_gamma_runs_its_binomials_once(monkeypatch, r):
    reads, kernels = _count_walk(monkeypatch)
    q_gamma(r, P)
    # gamma(r) = P(r - 1) (1 - q)^(1 - r)
    assert _assert_one_walk(reads, kernels, Fraction(r) - 1) >= 2


@pytest.mark.parametrize('r', VALUES + GAMMA_ARGS + [0, 3])
def test_pochhammer_builds_each_factor_once(monkeypatch, r):
    reads, kernels = _count_walk(monkeypatch)
    pochhammer_at_q(r, P)
    _assert_one_walk(reads, kernels, Fraction(r))


@pytest.mark.parametrize('r', [Fraction(1, 2), Fraction(1, 3),
                               Fraction(5, 7), Fraction(-1, 2),
                               Fraction(-2, 3), Fraction(-1, 7)], ids=str)
def test_gamma_reads_each_shift_law_once(monkeypatch, r):
    # gamma on (0, 1) and (-1, 0) reads the shift law of its kernel's
    # argument and of the descent's, each once
    reads, _ = _count_walk(monkeypatch)
    q_gamma(r, 32)
    values = [value for value, _ in reads]
    assert len(values) == 2
    assert len(set(values)) == len(values)
