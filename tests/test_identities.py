import json
from fractions import Fraction

import pytest

import qreals.identities as identities
from qreals import _cache
from qreals.errors import DomainError
from qreals.identities import (CATALOG, IDENTITIES, IdentityCase, run_suite,
                               verify_identity)
from qreals.polynomial import IntPolynomial
from qreals.qbinomial import q_binomial
from qreals.qcore import q_brace
from qreals.ratfun import ratfun


def test_catalog_is_complete_and_named():
    assert len(IDENTITIES) == 33
    assert IDENTITIES == tuple(CATALOG)
    for entry in CATALOG.values():
        assert entry.summary
        assert entry.default_mode in entry.modes


def test_chu_vandermonde_example():
    case = verify_identity('CHU_VANDERMONDE',
                           {'alpha': Fraction(5, 3), 'n': 2, 'k': 2},
                           'exact')
    assert case.ok and case.equal
    assert case.witness is None


def test_pascal_a_example_value():
    binding = {'alpha': Fraction(5, 2), 'k': 2}
    case = verify_identity('PASCAL_A', binding, 'exact')
    assert case.ok
    want = ratfun(0, IntPolynomial((1, 3, 4, 4, 2, 1)),
                  IntPolynomial((1, 3, 3, 1)))
    assert q_binomial(Fraction(5, 2), 2) == want


def test_brace_shift_example_value():
    case = verify_identity('BRACE_PROP_C',
                           {'alpha': Fraction(1, 2), 'n': 2}, 'exact')
    assert case.ok
    want = ratfun(2, IntPolynomial((1, 0, 1)), IntPolynomial((1, 1)))
    assert q_brace(Fraction(5, 2)) == want


def test_series_mode_on_rational_statement():
    case = verify_identity('PASCAL_A', {'alpha': Fraction(5, 2), 'k': 2},
                           'series', precision=12)
    assert case.ok and case.mode == 'series'


def test_every_identity_passes_one_seeded_trial():
    report = run_suite(trials=1, seed=3, precision=16, xdeg=4)
    assert report.ok
    assert {c.identity for c in report.cases} == set(IDENTITIES)


def test_expected_inequalities_report_as_passes():
    report = run_suite(['BRACE_NON_ADD', 'BRACE_NON_MULT'], trials=5)
    assert report.ok
    # fixed bindings run once regardless of the requested trial count
    assert len(report.cases) == 2
    for case in report.cases:
        assert not case.equal and not case.expect_equal and case.ok
    text = str(report)
    assert 'expected inequality' in text
    assert '0 unexpected verdicts' in text


def test_suite_is_deterministic():
    kw = dict(identities=['PASCAL_B', 'ALT_FORM_C', 'BINOM_LIMIT',
                          'BRACE_PROP_D'],
              trials=6, seed=11, precision=16)
    a = run_suite(**kw)
    b = run_suite(**kw)
    assert json.dumps(a.to_json(), sort_keys=True) == \
        json.dumps(b.to_json(), sort_keys=True)
    # a different seed draws a different panel
    c = run_suite(**{**kw, 'seed': 12})
    assert [x.binding for x in a.cases] != [y.binding for y in c.cases]


def test_selection_forms():
    assert len(run_suite('PASCAL_A', trials=3).cases) == 3
    assert len(run_suite(['PASCAL_A', 'PASCAL_B'], trials=2).cases) == 4
    assert len(run_suite('ALL', trials=1).cases) == len(IDENTITIES)


def test_unknown_identity_rejected():
    with pytest.raises(ValueError):
        verify_identity('NO_SUCH_RULE', {})
    with pytest.raises(ValueError):
        run_suite(['PASCAL_A', 'NO_SUCH_RULE'])
    with pytest.raises(ValueError):
        run_suite(trials=0)
    with pytest.raises(ValueError, match='xdeg'):
        run_suite(trials=1, xdeg=-1)


# a series entry and an exact-mode entry
SETTINGS_PANEL = [('SHIFT_b', {'alpha': Fraction(1, 2)}),
                  ('PASCAL_A', {'alpha': Fraction(1, 2), 'k': 2})]


@pytest.mark.parametrize('precision', [0, -50])
def test_precision_below_one_rejected(precision):
    with pytest.raises(ValueError, match='precision'):
        run_suite(trials=1, precision=precision)
    for name, binding in SETTINGS_PANEL:
        with pytest.raises(ValueError, match='precision'):
            verify_identity(name, binding, precision=precision)


def test_negative_xdeg_rejected_by_verify_identity():
    for name, binding in SETTINGS_PANEL:
        with pytest.raises(ValueError, match='xdeg'):
            verify_identity(name, binding, xdeg=-1)


def test_unsupported_mode_rejected():
    with pytest.raises(ValueError):
        verify_identity('PRODUCT_B', {'alpha': Fraction(1, 2)}, 'exact')
    with pytest.raises(ValueError):
        verify_identity('BRACE_NON_ADD', {}, 'series')


def test_missing_parameters_rejected():
    with pytest.raises(ValueError, match='needs parameters'):
        verify_identity('CHU_VANDERMONDE', {'alpha': Fraction(1, 2)})


def test_out_of_domain_bindings_raise():
    with pytest.raises(DomainError):
        verify_identity('OTHER_PASCAL', {'alpha': Fraction(0), 'k': 2})
    with pytest.raises(DomainError):
        verify_identity('VAND_LEMMA', {'alpha': Fraction(1, 2), 'ell': 4,
                                       'm': 1, 'n': 2})
    # Gamma(alpha + 1) or Gamma(alpha - k + 1) at a pole
    for k in range(1, 5):
        for alpha in range(-6, k):
            with pytest.raises(DomainError):
                verify_identity('GAMMA_BINOM', {'alpha': alpha, 'k': k})


def test_double_binomial_collapse_holds_on_strip_boundary():
    for ell in (0, 3):
        case = verify_identity('VAND_LEMMA', {'alpha': Fraction(-7, 4),
                                              'ell': ell, 'm': 2, 'n': 3})
        assert case.ok


def test_gamma_shift_single_case():
    case = verify_identity('GAMMA_SHIFT', {'alpha': Fraction(5, 3)},
                           precision=12)
    assert case.ok


def test_gamma_binomial_single_case():
    case = verify_identity('GAMMA_BINOM', {'alpha': Fraction(5, 2), 'k': 2},
                           precision=12)
    assert case.ok


def test_integrality_entries_single_cases():
    assert verify_identity('REFLECTION_INT', {'alpha': Fraction(2, 3)},
                           precision=12).ok
    assert verify_identity('POWER_INT', {'a': 3, 'b': 2}, precision=12).ok


def test_limit_entry_checks_strictly_below_deviation_order():
    case = verify_identity('BINOM_LIMIT', {'k': 2, 'n': 5}, precision=32)
    assert case.ok


def test_case_describe_and_ok_semantics():
    good = IdentityCase('PASCAL_A', {'alpha': 2, 'k': 1}, 'exact',
                        equal=True, expect_equal=True)
    assert good.ok and 'ok' in good.describe()
    bad = IdentityCase('PASCAL_A', {'alpha': 2, 'k': 1}, 'exact',
                       equal=False, expect_equal=True,
                       witness=('a', 'b'))
    assert not bad.ok and 'UNEXPECTED' in bad.describe()


def test_report_json_shape():
    report = run_suite(['PASCAL_A', 'BRACE_NON_MULT'], trials=2, seed=5,
                       precision=16)
    payload = report.to_json()
    assert payload['ok'] is True
    assert payload['seed'] == 5 and payload['trials'] == 2
    assert payload['identities']['PASCAL_A'] == {
        'pass': 2, 'total': 2, 'expect': 'equal'}
    assert payload['identities']['BRACE_NON_MULT'] == {
        'pass': 1, 'total': 1, 'expect': 'unequal'}
    assert payload['unexpected'] == []
    json.dumps(payload)  # must be serializable as-is


# -- the pad table ----------------------------------------------------------

PAD_ALPHAS = sorted({Fraction(p, d) for p in range(-40, 41)
                     for d in range(1, 13)})
SHIFTS = (-3, -1, 1, 2, 4, 5)


def _pad_cases(xdeg):
    # (shapes, the arguments after alpha) of every checker's pad; the
    # Gamma checkers have no x-degree
    for sign in (1, -1):
        for shapes in (identities._shift_one_shapes, identities._dq_shapes,
                       identities._func_eq_shapes):
            yield shapes, (xdeg, sign)
        for n in SHIFTS:
            yield identities._shift_n_shapes, (xdeg, sign, n)
    if xdeg == 0:
        yield identities._gamma_shift_shapes, ()
        for k in range(1, 5):
            yield identities._gamma_binom_shapes, (k,)


@pytest.mark.parametrize('xdeg', range(9))
def test_tabled_pads_equal_the_pads_derived_on_shapes(xdeg):
    # the table runs the shapes on one alpha per floor and fractional
    # order; every other alpha of that pair must lose exactly as much
    _cache.clear()
    for shapes, args in _pad_cases(xdeg):
        for a in PAD_ALPHAS:
            derived = identities._pad(*shapes(a, *args))
            assert identities._work(0, shapes, a, *args) == derived, (
                shapes.__name__, a, args)


SERIES_CHECKED = ['SHIFT_B', 'SHIFT_b', 'SHIFT_Bn', 'SHIFT_bn', 'DQ_B',
                  'DQ_b', 'FUNC_EQ_B', 'FUNC_EQ_b']


def test_negative_x_degree_is_raised_before_any_table():
    # the checkers themselves, without verify_identity's ValueError
    _cache.clear()
    for _ in range(2):
        for name in SERIES_CHECKED:
            with pytest.raises(DomainError, match='x-degree'):
                CATALOG[name].check({'alpha': Fraction(5, 3), 'n': 2},
                                    'series', 8, -1)
    for name, info in _cache.info().items():
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0), name
