"""Outside-in span recorder for the traced run.

``Recorder.install()`` wraps the public functions and methods of every
library module from the outside: nothing under src/ changes.  Each call
through a wrapper records one span (function, parent span, start, end,
a count and a size) in flat arrays kept in memory; ``write`` stores
them when the run ends and ``summary`` turns them into per-layer
metrics.

A wrapped name is rebound wherever the original object is reachable:
module globals (so ``from .x import y`` copies are covered), class
attributes (so ``__rmul__ = __mul__`` aliases share one wrapper),
closure cells (the identity catalog captures routines when it is built)
and the catalog entries themselves.
"""

import functools
import importlib
import inspect
import json
import math
import statistics
import sys
import time
from array import array
from fractions import Fraction

from qreals.polynomial import IntPolynomial
from qreals.series import LaurentSeries

LAYERS = ('polynomial', 'ratfun', 'series', 'qcore', 'qbinomial', 'qseries',
          'qgamma', 'snake', 'identities', 'cli')

# arithmetic operators count as public methods; __init__, __eq__,
# __hash__, __str__ and friends do not, so their time stays in the
# caller's self time (rendering, for instance, is cli work)
_OPERATORS = frozenset((
    '__add__', '__radd__', '__sub__', '__rsub__', '__mul__', '__rmul__',
    '__truediv__', '__rtruediv__', '__pow__', '__neg__', '__call__'))

# private names that are layer boundaries all the same
_EXTRA = {'snake': ('_enumerate_paths', 'SnakeGraph.__init__')}

# routines whose precision loops can repeat a call: a second call with
# the same arguments apart from the precision, under the same parent
# span, is a retry
_RETRY_LAYERS = frozenset(('qcore', 'qbinomial', 'qseries', 'qgamma'))


def _shape(x):
    """(order, length, precision) of an operand as the series code sees it."""
    if isinstance(x, LaurentSeries):
        return x.order, len(x.coeffs), x.precision
    if isinstance(x, IntPolynomial):
        if x.is_zero:
            return math.inf, 0, math.inf
        return x.valuation, x.degree - x.valuation + 1, math.inf
    if isinstance(x, (int, Fraction)):
        return (0, 1, math.inf) if x else (math.inf, 0, math.inf)
    return None


def _mul_ops(a, b):
    """Coefficient products LaurentSeries.__mul__ performs, zeros included."""
    sb = _shape(b)
    if sb is None or not a.coeffs or not sb[1]:
        return 0, 0
    oa, la, pa = _shape(a)
    ob, lb, pb = sb
    n = min(la + lb - 1, min(pa + ob, pb + oa) - oa - ob)
    m = min(la, n)
    full = max(0, min(m, n - lb + 1))   # rows i with i + lb <= n
    ops = full * lb + (m - full) * n - (m - 1 + full) * (m - full) // 2
    return max(ops, 0), max(n, 0)


def _div_ops(a, b):
    """Products plus divisions LaurentSeries.__truediv__ performs."""
    sb = _shape(b)
    if sb is None or not a.coeffs or not sb[1]:
        return 0, 0
    oa, la, pa = _shape(a)
    ob, lb, pb = sb
    p = min(pa - ob, pb - 2 * ob + oa)
    if p == math.inf:
        n = la if lb == 1 else 0
    else:
        n = max(0, p - (oa - ob))
    c = lb - 1
    if n <= c + 1:
        products = n * (n - 1) // 2
    else:
        products = c * (c + 1) // 2 + (n - c - 1) * c
    return products + n, n


def _gcd_degree(a, b):
    return 0, max(a.degree, b.degree)


class Recorder:
    """Spans of one traced run, in parallel arrays indexed by span."""

    def __init__(self):
        self.names = []          # function id -> 'layer:Qual.name'
        self.layers = []         # function id -> layer
        self.fid = array('i')
        self.parent = array('i')
        self.start = array('d')
        self.end = array('d')
        self.count = array('q')  # per-boundary count (coefficient ops, ...)
        self.size = array('q')   # per-boundary size (length, degree, ...)
        self.retry = array('b')  # 1 retry, 0 first call, -1 not tracked
        self._stack = [-1]
        self._seen = {}
        self._wrappers = {}      # id(original) -> wrapper
        self._originals = {}     # id(original) -> original, kept alive
        self._wrapper_ids = set()
        self.identity_names = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, layer, qualname, fn, aux=None, post=None):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        fid = len(self.names)
        self.names.append(f'{layer}:{qualname}')
        self.layers.append(layer)
        skip = None
        if layer in _RETRY_LAYERS and '.' not in qualname:
            params = list(inspect.signature(fn).parameters)
            if 'precision' in params:
                skip = params.index('precision')
        fids, parents, starts, ends = self.fid, self.parent, self.start, \
            self.end
        counts, sizes, retries = self.count, self.size, self.retry
        stack, seen = self._stack, self._seen
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            idx = len(fids)
            fids.append(fid)
            parents.append(parent)
            starts.append(0.0)
            ends.append(0.0)
            if skip is None:
                retries.append(-1)
            else:
                rest = args[:skip] + args[skip + 1:]
                try:
                    call = (fid, rest, tuple(sorted(
                        (k, v) for k, v in kwargs.items()
                        if k != 'precision')))
                    prior = seen.setdefault(parent, set())
                    retries.append(1 if call in prior else 0)
                    prior.add(call)
                except TypeError:      # unhashable argument
                    retries.append(0)
            if aux is None:
                counts.append(0)
                sizes.append(0)
            else:
                c, s = aux(*args)
                counts.append(c)
                sizes.append(s)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                starts[idx] = t0
                stack.pop()
                seen.pop(idx, None)
            if post is not None:
                counts[idx] = post(result)
            return result

        functools.update_wrapper(traced, fn)
        self._wrappers[key] = traced
        self._originals[key] = fn
        self._wrapper_ids.add(id(traced))
        return traced

    def _aux_for(self, layer, qualname):
        if qualname in ('LaurentSeries.__mul__', 'LaurentSeries.__rmul__'):
            return _mul_ops
        if qualname == 'LaurentSeries.__truediv__':
            return _div_ops
        if qualname == 'poly_gcd':
            return _gcd_degree
        if qualname == 'verify_identity':
            table = self.identity_names

            def identity_index(name, *rest, **kw):
                if name not in table:
                    table.append(name)
                return table.index(name), 0
            return identity_index
        return None

    def install(self):
        """Wrap every layer's public callables and rebind all references."""
        modules = {layer: importlib.import_module(f'qreals.{layer}')
                   for layer in LAYERS}
        for layer, mod in modules.items():
            extra = _EXTRA.get(layer, ())
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and (not name.startswith('_') or name in extra):
                    self._wrap(layer, name, obj, self._aux_for(layer, name),
                               len if name == '_enumerate_paths' else None)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, fn in list(vars(obj).items()):
                        qual = f'{name}.{attr}'
                        if inspect.isfunction(fn) and (
                                not attr.startswith('_') or attr in _OPERATORS
                                or qual in extra):
                            wrapper = self._wrap(layer, qual, fn,
                                                 self._aux_for(layer, qual))
                            setattr(obj, attr, wrapper)
        self._rebind()

    def _rebind(self):
        done = set()
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == 'qreals'
                                   or mod_name.startswith('qreals.')):
                continue
            for name, obj in list(vars(mod).items()):
                if id(obj) in self._wrappers:
                    setattr(mod, name, self._wrappers[id(obj)])
                elif inspect.isfunction(obj):
                    self._rebind_closure(obj, done)
                elif inspect.isclass(obj):
                    for fn in vars(obj).values():
                        if inspect.isfunction(fn):
                            self._rebind_closure(fn, done)
        catalog = sys.modules['qreals.identities'].CATALOG
        for entry in catalog.values():
            for field in ('sample', 'check'):
                fn = getattr(entry, field)
                if id(fn) in self._wrappers:
                    object.__setattr__(entry, field, self._wrappers[id(fn)])
                elif inspect.isfunction(fn):
                    self._rebind_closure(fn, done)

    def _rebind_closure(self, fn, done):
        # a wrapper's own cell holds its original: leave it alone
        if id(fn) in done or id(fn) in self._wrapper_ids:
            return
        done.add(id(fn))
        for cell in fn.__closure__ or ():
            try:
                obj = cell.cell_contents
            except ValueError:         # empty cell
                continue
            if id(obj) in self._wrappers:
                cell.cell_contents = self._wrappers[id(obj)]
            elif inspect.isfunction(obj):
                self._rebind_closure(obj, done)

    # -- results -----------------------------------------------------------

    def write(self, path):
        """Store the spans: a JSON header line, then the raw arrays."""
        with open(path, 'wb') as fh:
            header = {'names': self.names, 'spans': len(self.fid),
                      'arrays': [['fid', 'i'], ['parent', 'i'],
                                 ['start', 'd'], ['end', 'd'],
                                 ['count', 'q'], ['size', 'q'],
                                 ['retry', 'b']],
                      'identity_names': self.identity_names}
            fh.write(json.dumps(header).encode() + b'\n')
            for arr in (self.fid, self.parent, self.start, self.end,
                        self.count, self.size, self.retry):
                arr.tofile(fh)

    def summary(self):
        """Per-function calls, self seconds, counts and sizes; retries."""
        n = len(self.fid)
        nf = len(self.names)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        roots = 0.0
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
            else:
                roots += dur[i]
        calls = [0] * nf
        self_s = [0.0] * nf
        counts = [0] * nf
        sizes = [[] for _ in range(nf)]
        fid = self.fid
        layer_id = {layer: k for k, layer in enumerate(LAYERS)}
        fn_layer = [layer_id[layer] for layer in self.layers]
        keyed = [[0, 0] for _ in LAYERS]      # [attempts, retries]
        by_identity = {}
        verify = self._fid_of('identities:verify_identity')
        for i in range(n):
            f = fid[i]
            calls[f] += 1
            self_s[f] += dur[i] - child[i]
            counts[f] += self.count[i]
            sizes[f].append(self.size[i])
            r = self.retry[i]
            if r >= 0 and parent[i] >= 0:
                slot = keyed[fn_layer[fid[parent[i]]]]
                slot[0] += 1
                slot[1] += r
            if f == verify:
                name = self.identity_names[self.count[i]]
                by_identity[name] = by_identity.get(name, 0.0) + dur[i]
        return {
            'spans': n,
            'root_s': roots,
            'functions': {
                self.names[f]: {'calls': calls[f], 'self_s': self_s[f],
                                'count': counts[f],
                                'size_p50': (statistics.median(sizes[f])
                                             if sizes[f] else 0),
                                'size_mean': (statistics.fmean(sizes[f])
                                              if sizes[f] else 0)}
                for f in range(nf) if calls[f]},
            'keyed': {LAYERS[k]: v for k, v in enumerate(keyed)},
            'identity_s': by_identity,
            'approximants': self._children_of('qcore:q_real_series',
                                              'qcore:q_rational_series'),
        }

    def _fid_of(self, name):
        return self.names.index(name) if name in self.names else -1

    def _children_of(self, parent_name, child_name):
        pf, cf = self._fid_of(parent_name), self._fid_of(child_name)
        fid, parent = self.fid, self.parent
        return sum(1 for i in range(len(fid))
                   if fid[i] == cf and parent[i] >= 0 and fid[parent[i]] == pf)
