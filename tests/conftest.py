"""Shared test setup: the report header names what the exact pins depend on.

The pinned benchmark outputs, SWEEP_PINS and the chain-bit pins hold for
the numpy and scipy versions and the SIMD extensions numpy dispatches to
(``np.show_runtime()``'s "found" list). The header prints those, the
BLAS library and its thread variables, so every test log shows them.
Reading them changes no setting.
"""

import os

import numpy as np
import scipy

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _simd_found() -> list:
    """The SIMD extensions numpy dispatches to on this machine, in the
    order np.show_runtime() lists them as found."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [name for name in __cpu_dispatch__ if __cpu_features__[name]]


def pytest_report_header(config) -> list:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ", ".join(f"{k}={os.environ.get(k)}" for k in BLAS_THREAD_VARS)
    return [f"numpy {np.__version__}, scipy {scipy.__version__}, "
            f"BLAS {blas.get('name')} {blas.get('version')}",
            f"numpy SIMD found: {', '.join(_simd_found()) or 'none'}",
            f"BLAS threads: {threads}"]
