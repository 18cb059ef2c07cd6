"""The kernel module the estimator reaches through _backend."""
from bneverify import BACKEND_NAME, _backend, _kernels_py


def test_backend_name_is_one_of_the_two_implementations():
    assert _backend.get_kernels() is _kernels_py
    assert BACKEND_NAME == _backend.BACKEND_NAME == _kernels_py.NAME == "python"
