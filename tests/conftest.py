"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro import GCEL, ZERO_COST, Mesh2D, get_strategy
from repro.runtime.launcher import Runtime

#: All strategy variants evaluated in the paper.
ALL_STRATEGIES = ["2-ary", "4-ary", "16-ary", "2-4-ary", "4-8-ary", "4-16-ary", "fixed-home"]

#: Access-tree variants only.
TREE_STRATEGIES = ["2-ary", "4-ary", "16-ary", "2-4-ary", "4-8-ary", "4-16-ary"]


@pytest.fixture
def mesh4x4() -> Mesh2D:
    return Mesh2D(4, 4)


@pytest.fixture
def mesh4x3() -> Mesh2D:
    return Mesh2D(4, 3)


@pytest.fixture
def mesh8x8() -> Mesh2D:
    return Mesh2D(8, 8)


@pytest.fixture
def ckernel():
    """The C kernel, for the kernel-vs-pure differential tests.

    Skips only when the kernel is legitimately absent (``REPRO_PURE_PYTHON``
    set, no ``cffi``, no C compiler); a kernel that fails to build or load
    fails the test with the compiler's stderr, so a broken C source can
    never turn the differential suites into skips."""
    from repro.sim import _ckern

    kernel = _ckern.load_kernel()
    if kernel is None:
        err = _ckern.LOAD_ERROR
        if err is not None:
            pytest.fail(f"C kernel failed to build or load: {err!r}\n"
                        f"{getattr(err, 'stderr', None) or ''}")
        pytest.skip("C kernel unavailable; only the pure engine runs here")
    return kernel


def run_program(mesh, strategy_name, program, machine=ZERO_COST, seed=0, **kw):
    """Build runtime + strategy, run ``program``, return (result, runtime)."""
    strategy = get_strategy(strategy_name, mesh, seed=seed)
    rt = Runtime(mesh, strategy, machine, seed=seed, **kw)
    result = rt.run(program)
    return result, rt
