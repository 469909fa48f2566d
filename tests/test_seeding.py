import numpy as np

from searesponse.seeding import derive_seed, mix64


def test_mix64_is_deterministic_and_64bit():
    assert mix64(0) == mix64(0)
    for x in (0, 1, 2**63, 2**64 - 1, 123456789):
        assert 0 <= mix64(x) < 2**64


def test_derive_seed_varies_with_every_coordinate():
    base = derive_seed(7, 1, 2, 3)
    assert derive_seed(7, 1, 2, 3) == base
    assert derive_seed(8, 1, 2, 3) != base
    assert derive_seed(7, 2, 2, 3) != base
    assert derive_seed(7, 1, 3, 3) != base
    assert derive_seed(7, 1, 2, 4) != base


def test_derive_seed_order_sensitive():
    assert derive_seed(0, 1, 2) != derive_seed(0, 2, 1)


def test_no_collisions_over_realization_hour_grid():
    seen = {derive_seed(42, m, h) for m in range(50) for h in range(500)}
    assert len(seen) == 50 * 500


def test_numpy_integers_give_the_python_int_seed():
    assert derive_seed(np.uint64(3), 0x99, np.int64(2), np.int32(5)) == derive_seed(3, 0x99, 2, 5)
    assert derive_seed(np.int64(-1), np.uint64(2**64 - 1)) == derive_seed(-1, 2**64 - 1)
