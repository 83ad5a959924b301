"""Tier-1 runs BLAS under the thread policy of the CLI: one thread,
unless a BLAS thread variable is set (see `qreduce.cli`)."""

from qreduce.cli import _one_blas_thread


def pytest_sessionstart(session):
    _one_blas_thread()
