"""Shared test set-up.

Make the package under test importable from subprocesses in any directory.
The no-install test command puts the package on the path with a relative
entry (``PYTHONPATH=src``). The CLI tests start ``python -m privmech`` from a
temporary directory, where that entry would resolve to nothing. Rewriting each
relative entry against the directory pytest was started from, as this
interpreter resolved it, lets every child import the same checkout. An unset
or empty ``PYTHONPATH`` (the installed case) is left as it is.

The ``certify_corpus`` fixture is the seeded set of channels whose
certificates and verdicts are pinned byte for byte.
"""
import os

import numpy as np
import pytest


def pytest_configure(config):
    value = os.environ.get("PYTHONPATH")
    if not value:
        return
    base = str(config.invocation_params.dir)
    # An empty entry stands for the current directory, as Python reads it.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        e if os.path.isabs(e) else os.path.normpath(os.path.join(base, e))
        for e in value.split(os.pathsep)
    )


def _edge_rows(rng) -> list:
    """Raw matrices for the edge cases of the column pass: zero entries,
    all-zero columns, -0.0 entries, entries near 1e-300, one row, equal rows."""
    out = []
    for k, m in ((2, 3), (3, 3), (4, 5), (5, 2), (6, 6), (8, 8)):
        rows = rng.dirichlet(np.full(m, 0.5), size=k)
        zero = rng.random(rows.shape) < 0.35
        zero[np.arange(k), rows.argmax(axis=1)] = False
        rows[zero] = 0.0
        rows /= rows.sum(axis=1, keepdims=True)
        out.append(rows)
        out.append(np.where(rows == 0.0, -0.0, rows))  # the same zeros, negative
        out.append(np.insert(rows, [0, m], 0.0, axis=1))  # all-zero first and last columns
        tiny = rng.dirichlet(np.ones(m), size=k)
        scaled = rng.random(k) < 0.5
        scaled[0] = True
        tiny[scaled] *= 1e-300  # every entry of the row near 1e-300 ...
        top = tiny[scaled].argmax(axis=1)
        tiny[np.flatnonzero(scaled), top] += 1.0 - tiny[scaled].sum(axis=1)  # ... but one
        out.append(tiny)
        out.append(np.tile(rows[:1], (k, 1)))  # constant, with zeros
        out.append(np.tile(rng.dirichlet(np.ones(m)), (k, 1)))  # constant, full support
    out += [
        [[1.0]],
        [[0.0, 1.0]],
        [[-0.0, 1.0, 0.0]],
        [[0.2, 0.3, 0.5]],
        [[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]],
        [[0.5, -0.0, 0.5], [0.5, 0.0, 0.5]],
        [[0.0, 1.0], [0.0, 1.0]],
        np.eye(4),
        np.eye(3)[::-1],
    ]
    return out


@pytest.fixture
def certify_corpus():
    """Fresh channels: Dirichlet rows at concentrations 0.05, 0.1, 1 and 10
    for every k, m in 1-8, the edge cases of `_edge_rows`, and randomized
    response, the leakage staircase and the Z channel at a few levels. No
    channel here has full support with a likelihood ratio that overflows."""
    from privmech import maxl_staircase, randomized_response, validate_channel, z_channel

    rng = np.random.default_rng(20260)
    raw = [
        rng.dirichlet(np.full(m, a), size=k)
        for a in (0.05, 0.1, 1.0, 10.0)
        for k in range(1, 9)
        for m in range(1, 9)
    ]
    raw += _edge_rows(rng)
    channels = [validate_channel(rows) for rows in raw]
    for k in (2, 3, 5, 8):
        channels += [randomized_response(k, a) for a in (0.0, 0.5, 1.0, 4.0)]
        channels += [maxl_staircase(k, a) for a in (0.25, 1.0, float(np.log2(k)))]
    channels += [z_channel(a) for a in (0.0, 0.3, 0.7, 1.0)]
    return channels
