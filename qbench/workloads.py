"""Seeded inputs for the benchmark's workloads.

Everything here is plain data drawn from ``random.Random``; nothing
imports the library, so a change to the library cannot change what a
seed generates.  The same seed always yields the same stream.

The identity workloads draw their parameters by bin.  A case's cost
depends mostly on properties of its parameters (for series identities
the sign, size and denominator of alpha; for exact ones the binomial
sizes and the denominator), so case j of round r always gets the same
bin and the seed only picks the numerator inside it.  Every seed then
runs the same mix of cheap and expensive cases, which keeps the cases
per second of a run independent of the seed without dropping any bin.

cli-cold draws from a finite pool of commands, one per slot per round,
with the cost tier of each slot fixed by the round number, so the digest
table recorded for the pool covers every seed.
"""

import itertools
import math
import random
from fractions import Fraction

SERIES_IDENTITIES = (
    'PRODUCT_B', 'PRODUCT_b', 'SHIFT_B', 'SHIFT_b', 'SHIFT_Bn', 'SHIFT_bn',
    'DQ_B', 'DQ_b', 'FUNC_EQ_B', 'FUNC_EQ_b', 'BINOM_LIMIT', 'GAMMA_SHIFT',
    'GAMMA_BINOM', 'REFLECTION_INT', 'POWER_INT')

EXACT_IDENTITIES = (
    'PASCAL_A', 'PASCAL_B', 'ALT_FORM_A', 'ALT_FORM_B', 'ALT_FORM_C',
    'ALT_FORM_D', 'ALT_FORM_E', 'OTHER_PASCAL', 'CHU_VANDERMONDE',
    'VAND_LEMMA', 'RIORDAN_PRODUCT', 'BRACE_PROP_A', 'BRACE_PROP_B',
    'BRACE_PROP_C', 'BRACE_PROP_D', 'BRACE_PROP_E')

# parameter-free inequalities: one case each, at the start of every run
EXACT_ONCE = ('BRACE_NON_ADD', 'BRACE_NON_MULT')

# the settings of the Tier-1 identity suite
PRECISION = 32
XDEG = 5


def _stratified(rng, stratum, den):
    # the bin fixes the sign, the size |alpha| in [0, 1), [1, 2) or
    # [2, 3) and the denominator; the seed picks the numerator
    sign = -1 if stratum % 2 else 1
    k = rng.choice([k for k in range(1, den) if math.gcd(k, den) == 1])
    return sign * (stratum // 2 + Fraction(k, den))


# Gamma routines slow down steeply with the denominator (GAMMA_BINOM
# takes 2 s at denominator 5 and 6 s at 7), so they stop at 5
_GAMMA_FAMILY = ('GAMMA_SHIFT', 'GAMMA_BINOM', 'REFLECTION_INT', 'POWER_INT')
_DENOMINATORS = (2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
_GAMMA_DENOMINATORS = (2, 3, 4, 5)
_SHIFTS = (-3, -1, 1, 2, 4, 5)


def _series_binding(name, rng, stratum, j):
    if name == 'BINOM_LIMIT':
        k = rng.randint(0, 6)
        return {'k': k, 'n': k + rng.randint(1, 20)}
    dens = _GAMMA_DENOMINATORS if name in _GAMMA_FAMILY else _DENOMINATORS
    alpha = _stratified(rng, stratum, dens[(j + 5 * stratum) % len(dens)])
    if name == 'POWER_INT':
        return {'a': alpha.numerator, 'b': alpha.denominator}
    if name in ('SHIFT_Bn', 'SHIFT_bn'):
        return {'alpha': alpha, 'n': _SHIFTS[(stratum + j) % len(_SHIFTS)]}
    if name == 'GAMMA_BINOM':
        return {'alpha': alpha, 'k': 1 + stratum % 3}
    return {'alpha': alpha}


def _exact_binding(name, rng, b, den):
    # bin b in 0..6 fixes the integer parameters, the slot fixes the
    # denominator, and the seed picks the numerator.  Cost grows with the
    # continued-fraction length of alpha times the binomial sizes, so the
    # catalog's own range (denominators to 40, m + n to 12) has cases that
    # take seconds among thousands that take a millisecond; this range
    # keeps them to a fraction of a second.
    alpha = Fraction(rng.choice([p for p in range(-24, 25)
                                 if p or name != 'OTHER_PASCAL']), den)
    if name == 'CHU_VANDERMONDE':
        return {'alpha': alpha, 'n': b, 'k': 3 * b % 7}
    if name == 'VAND_LEMMA':
        return {'alpha': alpha, 'ell': 2 * b % (b + 1), 'm': 5 * b % 7,
                'n': b}
    if name == 'RIORDAN_PRODUCT':
        return {'alpha': alpha, 'm': b, 'n': 4 * b % 7}
    if name in ('BRACE_PROP_C', 'BRACE_PROP_E'):
        return {'alpha': alpha, 'n': 1 + b % 6}
    if name.startswith('BRACE_PROP'):
        return {'alpha': alpha}
    return {'alpha': alpha, 'k': b}


def identity_blocks(workload, seed):
    """Endless stream of blocks, each a list of (identity, binding).

    A round holds one case per identity, and a run stops only between
    blocks.  identity-series: case j of round r gets bin (r + j) mod 6,
    and a block is six rounds, so every block holds every (identity,
    bin) pair once.  identity-exact: case j of round r gets bin
    (r + j) mod 7 and denominator 1 + (5r + 3j) mod 12, which repeat every
    84 rounds, and a block is one round; the first one also holds the
    two parameter-free inequalities.  The bins depend on the round number
    only, so runs of equal length hold the same mix whatever the seed,
    and each identity draws from its own generator, so a prefix of the
    stream is the same panel whatever the run length.
    """
    series = workload == 'identity-series'
    names = SERIES_IDENTITIES if series else EXACT_IDENTITIES
    rngs = {name: random.Random(f'{seed}:{workload}:{name}')
            for name in names}
    rounds = 6 if series else 1
    block = [] if series else [(name, {}) for name in EXACT_ONCE]
    for r in itertools.count():
        block += [
            (name, _series_binding(name, rngs[name], (r + j) % 6, j)
             if series else _exact_binding(name, rngs[name], (r + j) % 7,
                                           1 + (5 * r + 3 * j) % 12))
            for j, name in enumerate(names)]
        if (r + 1) % rounds == 0:
            yield block
            block = []


# ---------------------------------------------------------------------------
# cli-cold

_RATIONALS = tuple(Fraction(p, q) for q in range(2, 8)
                   for p in range(q + 1, 5 * q) if math.gcd(p, q) == 1)
_NEGATIVES = ('-1/2', '-7/3', '-5/4', '-3/2', '-9/5', '-2/3')
_PERIODIC = ('[2;(2)]', '[1;(2)]', '[3;(1,2)]', '[1;(2,1)]', '[2;(3)]',
             '[1;(1,3)]', '[3;(3)]', '[2;(1,2)]')
_SLOW_PERIODIC = ('[1;(2,1)]', '[2;(1,2)]', '[3;(1,2)]')
_GAMMA_VALUES = ('1/2', '1/3', '2/3', '5/4', '7/3', '5/2')
_FORMATS = ((), ('--format', 'json'), ('--latex',))


def _fmt(i):
    return _FORMATS[i % len(_FORMATS)]


def _cli_pool():
    """Slot name -> tiers, each a tuple of (argv, expected exit code).

    A tier groups commands of one cost class (mostly one precision).
    Every slot has one or four tiers, so four rounds visit them all.
    """
    rats = [str(r) for r in _RATIONALS]
    pool = {}
    pool['eval-rational'] = (tuple(
        (['eval', v, *_fmt(i)], 0) for i, v in enumerate(rats)),)
    # the heaviest tiers keep only values of about the same cost (within
    # 15% in cold runs), so the tail does not hang on which value a seed
    # drew: at precision 40 the other periods take half as long, and so
    # does Gamma at 7/3 and 5/2 at precisions 48 and 64
    pool['eval-periodic'] = tuple(
        tuple((['eval', v, '--prec', str(p), *_fmt(i)], 0)
              for i, v in enumerate(_PERIODIC if p < 40 else _SLOW_PERIODIC))
        for p in (16, 24, 32, 40))
    pool['brace'] = (
        tuple((['brace', v, *_fmt(i)], 0) for i, v in enumerate(rats)),
        *(tuple((['brace', v, '--prec', str(p), *_fmt(i)], 0)
                for i, v in enumerate(_PERIODIC)) for p in (16, 24, 32)))
    pool['binom'] = (
        *(tuple((['binom', v, str(k), *_fmt(i)], 0)
                for i, v in enumerate(rats)) for k in (0, 2, 3)),
        tuple((['binom', v, str(k), '--prec', '24'], 0)
              for v in _PERIODIC for k in (1, 2)))
    pool['gamma'] = tuple(
        tuple((['gamma', v, '--prec', str(p), *_fmt(i)], 0)
              for i, v in enumerate(_GAMMA_VALUES[:6 if p < 48 else 4]))
        + (tuple((['gamma', '--prec', str(p), '--', v], 0)
                 for v in _NEGATIVES) if p == 32 else ())
        for p in (16, 32, 48, 64))
    pool['series'] = (
        *(tuple((['series', fam, v, '--prec', str(p), *_fmt(i)], 0)
                for i, (fam, v) in enumerate(
                    (fam, v) for fam in 'Bb' for v in rats[::2]))
          for p in (16, 32, 48)),
        tuple((['series', fam, v, '--prec', '16', '--xdeg', '3'], 0)
              for fam in 'Bb' for v in _PERIODIC))
    snake_values = [str(r) for r in _RATIONALS if r < 6]
    pool['snake'] = (tuple(
        (['snake', mode, v, *extra, *_fmt(i)], 0)
        for i, (v, (mode, extra)) in enumerate(
            (v, m) for v in snake_values
            for m in (('graph', ()), ('paths', ()), ('tuples', ('2',))))),)
    # inputs the generator knows to be poles or out of domain: exit 2
    pool['domain'] = (tuple(
        (argv, 2) for argv in (
            ['gamma', '0'], ['gamma', '--', '-3'], ['gamma', '[2;(2)]'],
            ['snake', 'graph', '1/2'], ['snake', 'paths', '3/4'],
            ['eval', '[2;(2)]', '--form', 'ratfun'],
            ['snake', 'graph', '5/2', '2'], ['snake', 'tuples', '7/3'])),)
    return pool


CLI_POOL = _cli_pool()


def cli_pool_commands():
    """Every (argv, expected exit) the cli-cold stream can draw."""
    return [cmd for tiers in CLI_POOL.values() for tier in tiers
            for cmd in tier]


# Known defects at the commit that introduced the benchmark.  They keep
# being drawn so that fixes show up; the expected outcome is exit 0 (or
# 2 with a one-line message) and never a traceback.
#   negative: a negative rational typed without '--' is read as an option
#   long-quotient: path enumeration recurses once per step
#   period-one: convergents of period (1) gain one agreeing term each
DEFECT_POOL = {
    'negative': tuple((['gamma', v], ['gamma', '--', v]) for v in _NEGATIVES)
    + tuple((['eval', v], ['eval', '--', v]) for v in _NEGATIVES),
    'long-quotient': tuple(
        (['snake', mode, f'{n + 1}/{n}', *extra], None)
        for n in (1200, 1500, 2000) for mode, extra in (
            ('graph', ()), ('paths', ()), ('tuples', ('2',)))),
    'period-one': tuple(
        (argv, None) for argv in (
            ['series', 'B', '[1;(1)]', '--prec', '32'],
            ['series', 'b', '[2;(1)]', '--prec', '16'],
            ['eval', '[1;(1)]', '--prec', '64'],
            ['brace', '[3;(1)]', '--prec', '64'])),
}


def cli_blocks(seed):
    """Endless stream of blocks of (slot, argv, expected exit).

    A round holds one command per slot; round r takes tier r mod 4 of
    every four-tier slot, and a block is four rounds, so every block
    visits every tier once.
    """
    rng = random.Random(f'{seed}:cli-cold')
    while True:
        yield [(slot, list(argv), code) for r in range(4)
               for slot, tiers in CLI_POOL.items()
               for argv, code in [rng.choice(tiers[r % len(tiers)])]]


def defect_probes(seed):
    """One seeded draw per known-defect class: (class, argv, reference).

    reference is the argv whose output the probe must reproduce, or
    None when the commit that recorded the digests had no correct
    output to compare against.
    """
    rng = random.Random(f'{seed}:defects')
    return [(cls, list(argv), ref and list(ref))
            for cls, pool in DEFECT_POOL.items()
            for argv, ref in [rng.choice(pool)]]
