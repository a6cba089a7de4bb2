"""Kernel selection: compiled extension when it is built, pure Python otherwise.

The compiled max-flow works on 64-bit integers and raises OverflowError when
a capacity or the flow does not fit; such problems (possible after clearing
huge rational denominators) are rerun on the pure-Python kernel, which uses
arbitrary-precision integers.  Results never depend on the backend.
"""

from . import _kernels_py

try:
    from . import _kernels  # type: ignore[attr-defined]
    BACKEND = "compiled"
except ImportError:
    _kernels = _kernels_py
    BACKEND = "python"

gf_rank = _kernels.gf_rank


def max_flow(n, edges, s, t):
    """(flow, reach) of the max-flow problem; edges is a sequence of
    (u, v, cap) tuples, read a second time when the compiled kernel
    overflows."""
    try:
        return _kernels.max_flow(n, edges, s, t)
    except OverflowError:
        return _kernels_py.max_flow(n, edges, s, t)
