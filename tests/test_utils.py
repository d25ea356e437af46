import pytest

from repro.utils.flops import FlopCounter, axpy_flops, gemm_flops, gemv_flops


def test_gemm_flops():
    assert gemm_flops(10, 20, 30) == 2 * 10 * 20 * 30


def test_gemv_flops():
    assert gemv_flops(10, 20) == 400


def test_axpy_flops():
    assert axpy_flops(7) == 14


def test_counter_accumulates():
    c = FlopCounter()
    c.add_gemm("a", 2, 3, 4)
    c.add_gemm("a", 2, 3, 4)
    c.add_gemv("b", 5, 5)
    assert c.total("a") == 2 * gemm_flops(2, 3, 4)
    assert c.total() == c.total("a") + c.total("b")
    assert c.total("missing") == 0


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        FlopCounter().add("x", -1)


def test_counter_merge_and_reset():
    a, b = FlopCounter(), FlopCounter()
    a.add("x", 5)
    b.add("x", 7)
    b.add("y", 1)
    a.merge(b)
    assert a.total("x") == 12
    assert a.total("y") == 1
    a.reset()
    assert a.total() == 0
