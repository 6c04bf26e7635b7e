from defreg.ultrametric import NEG_INF, NegativeInfinity


def test_negative_infinity_is_a_singleton():
    assert NegativeInfinity() is NEG_INF
    assert repr(NEG_INF) == "-inf"


def test_negative_infinity_ordering():
    assert NEG_INF < -10**9
    assert NEG_INF <= NEG_INF
    assert not NEG_INF < NEG_INF
    assert 0 > NEG_INF
    assert max(NEG_INF, 3) == 3
    assert max(NEG_INF, NEG_INF) is NEG_INF
