"""One registry for the library's bounded memo tables.

table(maxsize) is functools.lru_cache that also records the function it
wraps, under its module and name, so that clear() and info() reach every
table of every imported module at once.
"""

from functools import lru_cache

_TABLES = {}


def table(maxsize):
    """Decorator: lru_cache(maxsize=maxsize), recorded in the registry."""
    def wrap(fn):
        cached = lru_cache(maxsize=maxsize)(fn)
        _TABLES[f'{fn.__module__}.{fn.__name__}'] = cached
        return cached
    return wrap


def clear():
    """Empty every recorded table."""
    for cached in _TABLES.values():
        cached.cache_clear()


def info():
    """{'module.name': CacheInfo} for every recorded table."""
    return {name: cached.cache_info() for name, cached in _TABLES.items()}
