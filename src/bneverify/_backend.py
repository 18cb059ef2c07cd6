"""The kernel module the estimator calls.

The estimator looks each kernel up as an attribute of get_kernels() at call
time, so a tracer can wrap them from outside (perfbench/spans.py does).
"""
from . import _kernels_py as kernels

BACKEND_NAME = kernels.NAME


def get_kernels():
    """Kernel module (numpy)."""
    return kernels
