from latcut.rng import MASK64, SplitMix64, Xoshiro256StarStar, derive_seeds


def test_splitmix_is_deterministic():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_splitmix_outputs_stay_in_64_bits():
    gen = SplitMix64(0xFFFFFFFFFFFFFFFF)
    for _ in range(100):
        assert 0 <= gen.next_u64() <= MASK64


def test_derive_seeds_prefix_stability():
    # trial k's seed must not depend on how many seeds are requested
    assert list(derive_seeds(7, 3)) == list(derive_seeds(7, 10))[:3]


def test_xoshiro_determinism_and_divergence():
    a = Xoshiro256StarStar(99)
    b = Xoshiro256StarStar(99)
    c = Xoshiro256StarStar(100)
    seq_a = [a.next_u64() for _ in range(20)]
    seq_b = [b.next_u64() for _ in range(20)]
    seq_c = [c.next_u64() for _ in range(20)]
    assert seq_a == seq_b
    assert seq_a != seq_c


def test_xoshiro_survives_seed_zero():
    gen = Xoshiro256StarStar(0)
    values = {gen.next_u64() for _ in range(50)}
    assert len(values) > 45  # not stuck in a short cycle


def test_randrange_bounds_and_coverage():
    gen = Xoshiro256StarStar(5)
    seen = set()
    for _ in range(500):
        v = gen.randrange(7)
        assert 0 <= v < 7
        seen.add(v)
    assert seen == set(range(7))


def test_randrange_rejects_nonpositive():
    gen = Xoshiro256StarStar(5)
    try:
        gen.randrange(0)
    except ValueError:
        pass
    else:
        raise AssertionError("expected ValueError")
