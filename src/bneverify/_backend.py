"""The kernel module the estimator calls.

The estimator looks each kernel up as a module attribute at call time, so a
tracer can wrap them from outside (perfbench/spans.py does, through here).
"""
from . import _kernels_py as kernels

BACKEND_NAME = kernels.NAME


def get_kernels():
    """Kernel module (numpy)."""
    return kernels
