"""OpenBLAS held at one thread, and the count it had given back."""

import pytest

from sohpred import blas

pytestmark = pytest.mark.skipif(
    blas.openblas_threads() is None, reason="NumPy's OpenBLAS offers no thread setter here"
)


@pytest.fixture
def threads():
    """OpenBLAS set to two threads for the test, and the count it took; restored after."""
    get, set_ = blas.openblas_threads()
    found = get()
    set_(2)
    yield get
    set_(found)


def test_one_thread_inside_and_the_count_restored(threads):
    before = threads()
    with blas.one_thread():
        assert threads() == 1
    assert threads() == before


def test_count_restored_when_the_body_raises(threads):
    before = threads()
    with pytest.raises(RuntimeError, match="body"):
        with blas.one_thread():
            raise RuntimeError("body")
    assert threads() == before


def test_nested_use_restores_each_level(threads):
    before = threads()
    with blas.one_thread():
        with blas.one_thread():
            assert threads() == 1
        assert threads() == 1
    assert threads() == before
