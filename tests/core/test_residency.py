"""ResidencyStore: the membership rows, the per-variable fields and growth."""

import random

import pytest

from repro.core.residency import INITIAL_CAPACITY, ResidencyStore


@pytest.mark.parametrize("nsites", [1, 7, 64, 683])
def test_matches_a_set_model_under_random_ops(nsites):
    rng = random.Random(nsites)
    store = ResidencyStore(nsites)
    model = {}
    for vid in range(40):
        site = rng.randrange(nsites)
        store.add(vid, site, owner=-1)
        model[vid] = {site}
    for _ in range(2000):
        vid = rng.randrange(40)
        site = rng.randrange(nsites)
        op = rng.randrange(3)
        if op == 0:
            assert store.insert(vid, site) == (site not in model[vid])
            model[vid].add(site)
        elif op == 1:
            assert store.discard(vid, site) == (site in model[vid])
            model[vid].discard(site)
        else:
            store.reset(vid, site)
            model[vid] = {site}
        assert store.members(vid) == sorted(model[vid])
        assert store.count[vid] == len(model[vid])
        assert store.has(vid, site) == (site in model[vid])


def test_growth_keeps_state_and_tells_the_borrower():
    store = ResidencyStore(13)
    grown = []
    store.on_grow = lambda: grown.append(store.arrays[0].size)
    for vid in range(INITIAL_CAPACITY):
        store.add(vid, vid % 13, owner=vid % 5)
        store.insert(vid, (vid + 3) % 13)
    store.top[7] = 12
    assert grown == []
    store.add(INITIAL_CAPACITY, 0, owner=2)
    assert grown == [2 * INITIAL_CAPACITY * store.nsites]
    for vid in range(INITIAL_CAPACITY):
        assert store.members(vid) == sorted({vid % 13, (vid + 3) % 13})
        assert store.owner[vid] == vid % 5
    assert store.top[7] == 12
    assert store.members(INITIAL_CAPACITY) == [0]
    member, count, owner, top, storage = store.arrays
    assert count.size == owner.size == top.size == 2 * INITIAL_CAPACITY
    assert storage.size == 3
