"""The package surface and the frozen records.

`qreals` imports five of its modules on first use of one of their names,
and the records in qcore, snake and identities are hand-written classes;
neither may change what a user sees.
"""

import importlib
from dataclasses import FrozenInstanceError, make_dataclass
from fractions import Fraction

import pytest

import qreals
from qreals.identities import IdentityCase, SuiteReport, _Entry
from qreals.qcore import (ContinuedFraction, PeriodicContinuedFraction,
                          RationalValue)
from qreals.snake import SnakePath

HOMES = ('errors', 'polynomial', 'ratfun', 'series', 'qcore', 'qbinomial',
         'qgamma', 'qseries', 'identities', 'snake')


def _home_object(name):
    for home in HOMES:
        module = importlib.import_module(f'qreals.{home}')
        if name in vars(module):
            return vars(module)[name]
    raise LookupError(name)


@pytest.mark.parametrize('name', [n for n in qreals.__all__
                                  if n != '__version__'])
def test_every_exported_name_is_its_home_object(name):
    assert getattr(qreals, name) is _home_object(name)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec('from qreals import *', namespace)
    assert set(qreals.__all__) <= set(namespace)
    for name in qreals.__all__:
        assert namespace[name] is getattr(qreals, name)


def test_dir_covers_all_and_unknown_names_raise():
    assert set(qreals.__all__) <= set(dir(qreals))
    with pytest.raises(AttributeError, match='no_such_name'):
        qreals.no_such_name
    assert not hasattr(qreals, 'no_such_name')


def test_ratfun_and_series_stay_functions_after_submodule_import():
    import qreals.ratfun
    import qreals.series
    assert callable(qreals.ratfun) and callable(qreals.series)
    assert qreals.ratfun is _home_object('ratfun')
    assert qreals.series is _home_object('series')


# dataclass references for the hand-written records, under the same names
_REFERENCES = {
    RationalValue: make_dataclass('RationalValue', [('value', Fraction)],
                                  frozen=True),
    PeriodicContinuedFraction: make_dataclass(
        'PeriodicContinuedFraction', [('head', tuple), ('period', tuple)],
        frozen=True),
    SnakePath: make_dataclass('SnakePath', [('steps', str), ('weight', int)],
                              frozen=True),
    IdentityCase: make_dataclass(
        'IdentityCase', [('identity', str), ('binding', dict), ('mode', str),
                         ('equal', bool), ('expect_equal', bool),
                         ('witness', tuple, None)], frozen=True),
    _Entry: make_dataclass(
        '_Entry', [('ident', str), ('summary', str), ('params', tuple),
                   ('sample', callable), ('check', callable),
                   ('default_mode', str, 'exact'),
                   ('modes', tuple, ('exact', 'series')),
                   ('expect_equal', bool, True), ('max_trials', int, None)],
        frozen=True),
    SuiteReport: make_dataclass(
        'SuiteReport', [('seed', int), ('trials', int), ('precision', int),
                        ('xdeg', int), ('cases', tuple)], frozen=True),
}

_CASE = IdentityCase('PASCAL_A', {'alpha': Fraction(5, 3), 'k': 2}, 'exact',
                     True, True)

RECORDS = [
    (RationalValue, {'value': Fraction(5, 3)}, {'value': Fraction(-7, 2)}),
    (PeriodicContinuedFraction, {'head': (2,), 'period': (1, 2)},
     {'head': (), 'period': (1,)}),
    (SnakePath, {'steps': 'NEEN', 'weight': 2},
     {'steps': 'EENN', 'weight': 0}),
    (IdentityCase,
     {'identity': 'PASCAL_A', 'binding': {'alpha': Fraction(5, 3), 'k': 2},
      'mode': 'exact', 'equal': True, 'expect_equal': True, 'witness': None},
     {'identity': 'BRACE_NON_ADD', 'binding': {}, 'mode': 'exact',
      'equal': True, 'expect_equal': False, 'witness': ('1', '2')}),
    (_Entry,
     {'ident': 'X', 'summary': 'x', 'params': ('alpha',), 'sample': len,
      'check': abs, 'default_mode': 'exact', 'modes': ('exact', 'series'),
      'expect_equal': True, 'max_trials': None},
     {'ident': 'Y', 'summary': 'y', 'params': (), 'sample': len,
      'check': abs, 'default_mode': 'series', 'modes': ('series',),
      'expect_equal': False, 'max_trials': 3}),
    (SuiteReport,
     {'seed': 7, 'trials': 1, 'precision': 32, 'xdeg': 5, 'cases': (_CASE,)},
     {'seed': 8, 'trials': 2, 'precision': 16, 'xdeg': 3, 'cases': ()}),
]


def _hash_or_error(x):
    try:
        return hash(x)
    except TypeError as err:    # a dict field makes the record unhashable
        return str(err)


@pytest.mark.parametrize('cls, fields, other', RECORDS)
def test_record_matches_a_frozen_dataclass(cls, fields, other):
    ref = _REFERENCES[cls]
    a, b, c = cls(**fields), cls(**fields), cls(**other)
    ra, rc = ref(**fields), ref(**other)
    assert cls(*fields.values()) == a
    assert (a == b, a == c, a != c) == (ra == ref(**fields), ra == rc,
                                        ra != rc)
    assert _hash_or_error(a) == _hash_or_error(ra) \
        == _hash_or_error(tuple(fields.values()))
    assert _hash_or_error(c) == _hash_or_error(rc)
    assert (repr(a), repr(c)) == (repr(ra), repr(rc))
    # equality holds only between instances of one class
    assert a != ra and a != tuple(fields.values())
    for name in fields:
        assert getattr(a, name) == getattr(ra, name)
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(FrozenInstanceError):
            setattr(ra, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(TypeError):
        cls(**fields, extra=1)


@pytest.mark.parametrize('cls, required', [
    (IdentityCase, ('PASCAL_A', {'k': 2}, 'exact', True, True)),
    (_Entry, ('X', 'x', ('alpha',), len, abs)),
])
def test_record_defaults_match_the_dataclass(cls, required):
    ref = _REFERENCES[cls]
    a, ra = cls(*required), ref(*required)
    assert repr(a) == repr(ra)
    for name in cls._fields:
        assert getattr(a, name) == getattr(ra, name)
    with pytest.raises(TypeError):
        cls(*required[:-1])


def test_record_validation_is_kept():
    assert RationalValue(value=3).value == Fraction(3)
    assert RationalValue('5/3').value == Fraction(5, 3)
    p = PeriodicContinuedFraction(head=[2], period=['1', 2])
    assert (p.head, p.period) == ((2,), (1, 2))
    with pytest.raises(qreals.DomainError, match='empty period'):
        PeriodicContinuedFraction((1,), ())
    with pytest.raises(qreals.DomainError, match='positive'):
        PeriodicContinuedFraction((0,), (1,))


def test_continued_fraction_is_a_frozen_record():
    cf = ContinuedFraction.from_rational(Fraction(52, 23))
    assert cf == ContinuedFraction([2, 3, 1, 5])
    assert hash(cf) == hash(((2, 3, 1, 5),))
    assert repr(cf) == 'ContinuedFraction([2, 3, 1, 5])'
    with pytest.raises(AttributeError):
        cf.terms = (2, 1)
