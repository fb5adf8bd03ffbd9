"""The one error type of the input boundary.

:class:`InputError` marks a bad argument from a caller — a problem
shape, a config value, an unreadable plan or store file — as opposed to
a bug inside the package.  ``repro-topk`` catches it in one place,
prints one ``ERROR <message>`` line and exits 2; any other exception
still ends in a traceback.  It subclasses :class:`ValueError`, so
``except ValueError`` callers keep working.
"""

from __future__ import annotations

import operator


class InputError(ValueError):
    """A caller passed an invalid argument; the message says which."""


def check_k(k) -> int:
    """``k`` as a Python int; raise :class:`InputError` unless it is an
    integer (a NumPy integer passes, ``bool`` does not)."""
    try:
        if isinstance(k, bool):  # an int subclass, but never a count
            raise TypeError
        return operator.index(k)
    except TypeError:
        raise InputError(f"k must be an integer, got k={k!r}") from None


def check_problem(n: int, k, batch: int = 1) -> int:
    """``k`` as a Python int; raise :class:`InputError` unless it passes
    :func:`check_k`, ``1 <= k <= n`` and ``batch >= 1``.

    The wording matches the serving layer's per-request admission check
    (:func:`repro.serve.admission_failure`).
    """
    k = check_k(k)
    if not 1 <= k <= n:
        raise InputError(f"k must be in [1, n={n}], got k={k}")
    if batch < 1:
        raise InputError(f"batch must be >= 1, got {batch}")
    return k
