"""The one error type of the input boundary.

:class:`InputError` marks a bad argument from a caller — a problem
shape, a config value, an unreadable plan or store file — as opposed to
a bug inside the package.  ``repro-topk`` catches it in one place,
prints one ``ERROR <message>`` line and exits 2; any other exception
still ends in a traceback.  It subclasses :class:`ValueError`, so
``except ValueError`` callers keep working.
"""

from __future__ import annotations


class InputError(ValueError):
    """A caller passed an invalid argument; the message says which."""


def check_problem(n: int, k: int, batch: int = 1) -> None:
    """Raise :class:`InputError` unless ``1 <= k <= n`` and ``batch >= 1``.

    The wording matches the serving layer's per-request admission check
    (:func:`repro.serve.admission_failure`).
    """
    if not 1 <= k <= n:
        raise InputError(f"k must be in [1, n={n}], got k={k}")
    if batch < 1:
        raise InputError(f"batch must be >= 1, got {batch}")
