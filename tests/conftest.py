import random
import tracemalloc

import numpy as np
import pytest

from altiset.collective import SubsetFamily, ValuedGroundSet
from altiset.geoalt import EUCLIDEAN_2D, SummitField
from altiset.orders import GAIN, PRICE, KeyedOrder, OrderSystem
from altiset.relation import FiniteRelation, Universe


def peak_bytes(fn, *args) -> int:
    """The tracemalloc peak of one call of fn."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_relation(rng: random.Random, size: int, density: float = 0.4) -> FiniteRelation:
    pairs = [
        (a, b)
        for a in range(size)
        for b in range(size)
        if rng.random() < density
    ]
    return FiniteRelation.from_pairs(Universe(size), pairs)


def random_aa_relation(rng: random.Random, size: int, density: float = 0.4) -> FiniteRelation:
    """Random relation whose asymmetric interior is acyclic.

    Strict edges only go upward in a hidden permutation; symmetric pairs
    and loops are sprinkled freely (they never enter the interior).
    """
    perm = list(range(size))
    rng.shuffle(perm)
    rank = {v: i for i, v in enumerate(perm)}
    pairs = []
    for a in range(size):
        for b in range(size):
            if rng.random() >= density:
                continue
            if a == b or rank[a] < rank[b]:
                pairs.append((a, b))
            elif rng.random() < 0.5:  # make it symmetric instead of downward
                pairs.append((a, b))
                pairs.append((b, a))
    return FiniteRelation.from_pairs(Universe(size), pairs)


def aa_matrix(rng: np.random.Generator, size: int) -> np.ndarray:
    """random_aa_relation's shape drawn in numpy, as a bool matrix: fast at
    the sizes where blocked routes have many blocks."""
    rank = rng.permutation(size)
    drawn = rng.random((size, size)) < 0.4
    sym = drawn & (rank[:, None] > rank[None, :]) & (rng.random((size, size)) < 0.5)
    up = drawn & (rank[:, None] <= rank[None, :])
    return up | sym | sym.T


def random_system(rng: random.Random, size: int, max_orders: int = 4) -> OrderSystem:
    n_orders = rng.randint(1, max_orders)
    orders = []
    for _ in range(n_orders):
        keys = tuple(rng.randint(0, max(1, size - 1)) for _ in range(size))
        orders.append(KeyedOrder(keys, rng.choice([GAIN, PRICE])))
    return OrderSystem(Universe(size), tuple(orders))


def random_family(rng: random.Random, ground_size: int, max_members: int = 8) -> SubsetFamily:
    elements = tuple(f"e{i}" for i in range(ground_size))
    valuation = {e: float(rng.randint(0, 3)) for e in elements}
    ground = ValuedGroundSet(elements, valuation)
    n = rng.randint(1, max_members)
    members = tuple(
        frozenset(e for e in elements if rng.random() < 0.5) for _ in range(n)
    )
    return SubsetFamily(ground, members)


def random_field(rng: random.Random, size: int, with_ties: bool = True) -> SummitField:
    """Planar field; coordinate/altitude values drawn from a small integer
    lattice so distance and altitude ties actually occur."""
    span = max(3, size // 4) if with_ties else 10**6
    summits = tuple(
        (float(rng.randint(-span, span)), float(rng.randint(-span, span)))
        for _ in range(size)
    )
    altitudes = tuple(float(rng.randint(0, span)) for _ in range(size))
    ref = (float(rng.randint(-span, span)), float(rng.randint(-span, span)))
    return SummitField(EUCLIDEAN_2D, summits, altitudes, ref)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xA17C)
