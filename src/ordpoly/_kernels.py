"""Compiled-kernel probe.

The hit-and-run stepping loop is plain numpy in ``sampler._raw_samples``;
there is no compiled kernel.  ``numba_available`` remains only because the
benchmark's environment report (``ordbench/run.py``) imports it.
"""
from __future__ import annotations


def numba_available() -> bool:
    """Always False: no stepping loop is compiled."""
    return False
