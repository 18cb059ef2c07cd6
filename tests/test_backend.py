"""The kernel module the estimator reaches through _backend."""
from bneverify import BACKEND_NAME, _backend, _kernels_py


def test_backend_name_is_the_python_kernel_module():
    assert _backend.get_kernels() is _kernels_py
    assert BACKEND_NAME == _backend.BACKEND_NAME == _kernels_py.NAME == "python"
