"""Deterministic stream behavior."""

from qfiber.rng import Stream


def test_reproducible():
    a = Stream(42)
    b = Stream(42)
    assert [a.next64() for _ in range(5)] == [b.next64() for _ in range(5)]


def test_randrange_bounds():
    s = Stream(1)
    vals = [s.randrange(10) for _ in range(200)]
    assert all(0 <= v < 10 for v in vals)
    assert len(set(vals)) == 10
    vals = [s.randrange(5, 8) for _ in range(50)]
    assert all(5 <= v < 8 for v in vals)


def test_fork_independent():
    s = Stream(9)
    f1 = s.fork(0)
    f2 = s.fork(1)
    again = Stream(9).fork(0)
    assert f1.next64() == again.next64()
    assert f1.next64() != f2.next64()
