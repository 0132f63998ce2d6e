"""Batch membership updates are exact: one merge equals one add per id.

``LeafSet.add_all`` merges a whole batch in one sorted pass instead of
calling ``add`` per id, and ``LeafSet.shared_arc`` lets join maintenance read
only the files whose k-set can hold the newcomer.  Both must agree with the
per-id definitions they replace, on every ring the strategies below can build.
"""

from bisect import bisect_left

from hypothesis import given, settings, strategies as st

from repro.pastry import idspace
from repro.pastry.leafset import LeafSet
from repro.pastry.node import PastryNode
from tests.conftest import build_pastry

SPACE = idspace.ID_SPACE
HALF = SPACE // 2


def id_strategy(owner):
    """Ids biased towards the owner, the namespace wrap and the antipode."""
    near = st.integers(min_value=1, max_value=64)
    return st.one_of(
        st.integers(min_value=0, max_value=SPACE - 1),
        st.sampled_from([0, 1, SPACE - 1, owner, (owner + HALF) % SPACE]),
        near.map(lambda d: (owner + d) % SPACE),
        near.map(lambda d: (owner - d) % SPACE),
    )


@st.composite
def batches(draw):
    """(owner, l, initial ids, batches, keys): the initial ids are added one
    at a time, so a ring can start empty, partial, full or already trimmed."""
    owner = draw(st.one_of(
        st.integers(min_value=0, max_value=SPACE - 1),
        st.sampled_from([0, 1, HALF, SPACE - 1]),
    ))
    ids = id_strategy(owner)
    l = draw(st.sampled_from([2, 4, 8, 32]))
    initial = draw(st.lists(ids, max_size=2 * l))
    rounds = draw(st.lists(st.lists(ids, max_size=3 * l), min_size=1, max_size=3))
    keys = draw(st.lists(ids, min_size=1, max_size=6))
    return owner, l, initial, rounds, keys


def one_by_one(owner, l, initial):
    ls = LeafSet(owner, l)
    for node_id in initial:
        ls.add(node_id)
    return ls


def state(ls, keys):
    return (
        ls.sorted_members_with_owner(),
        ls.ever_trimmed,
        ls.extremes(),
        ls.is_full(),
        [ls.covers(key) for key in keys],
    )


@settings(max_examples=400, deadline=None)
@given(batches())
def test_add_all_equals_add_per_id(case):
    owner, l, initial, rounds, keys = case
    batched, stepped = one_by_one(owner, l, initial), one_by_one(owner, l, initial)
    # Previously trimmed ids come back in a later batch, with duplicates.
    trimmed = [i for i in initial if i not in batched and i != owner]
    for batch in rounds:
        batch = batch + trimmed[:2] + batch[:2]
        # Read first, so covers() has an arc to forget.
        assert state(batched, keys) == state(stepped, keys)
        batched.add_all(batch)
        for node_id in batch:
            stepped.add(node_id)
        ring_keys = keys + list(batched.sorted_members_with_owner())
        assert state(batched, ring_keys) == state(stepped, ring_keys)


def test_add_all_of_known_ids_keeps_the_arc():
    ls = LeafSet(1000, 4)
    ls.add_all([900, 950, 1050, 1100])
    assert ls.covers(900)
    arc = ls._arc
    ls.add_all([950, 1000, 1100])
    assert ls._arc is arc


def test_add_all_that_only_trims_forgets_the_global_arc():
    """A batch whose every new id is trimmed leaves the ring as it was but
    ends global knowledge, which covers() must notice."""
    ls = LeafSet(1000, 4)
    ls.add_all([1100, 1200, 1300, 1400])  # never trimmed, not full: global
    assert ls.covers(500) and not ls.ever_trimmed
    ring = ls.sorted_members_with_owner()
    ls.add_all([1250])  # lands at clockwise index l/2 + 1: dropped at once
    assert ls.sorted_members_with_owner() == ring and ls.ever_trimmed
    assert not ls.covers(500)


@st.composite
def join_rings(draw):
    """(leaf set, node, keys): rings of 1 to l + 1 ids, the node a member or
    not; keys include every ring id, 0 and the top id, and the ids around
    the node and the owner out to each side of any arc."""
    owner = draw(st.one_of(
        st.integers(min_value=0, max_value=SPACE - 1),
        st.sampled_from([0, 1, HALF, SPACE - 1]),
    ))
    l = draw(st.sampled_from([2, 4, 8, 32]))
    size = draw(st.integers(min_value=0, max_value=l))
    ls = LeafSet(owner, l)
    ls.add_all(draw(st.lists(
        id_strategy(owner).filter(lambda i: i != owner),
        min_size=size, max_size=size, unique=True,
    )))
    ring = list(ls.sorted_members_with_owner())
    node = draw(st.one_of(st.sampled_from(ring), id_strategy(owner)))
    ends = [ring[(i + d) % len(ring)]
            for i in {ring.index(owner), bisect_left(ring, node) % len(ring)}
            for d in range(-l, l + 1)]
    around = [(e + d) % SPACE for e in ends for d in (-1, 1)]
    extra = draw(st.lists(st.integers(min_value=0, max_value=SPACE - 1), max_size=8))
    return ls, node, ring + ends + around + [0, SPACE - 1] + extra


def in_arc(arc, key):
    low, span = arc
    return (key - low - 1) % SPACE < span


@settings(max_examples=300, deadline=None)
@given(join_rings())
def test_shared_arc_keeps_every_key_the_brute_force_test_keeps(case):
    """Join maintenance acts on a file only when the newcomer and the owner
    are both in its k-set; the arc must hold every key where they are."""
    ls, node, keys = case
    for k in range(1, ls.l // 2 + 2):  # up to the paper's l/2 + 1: 2k >= n occurs
        arc = ls.shared_arc(node, k)
        low, span = arc
        if node not in ls:  # the owner included
            assert span == 0
            continue
        edges = [(low + d) % SPACE for d in (0, 1, span, span + 1)]
        for key in keys + edges:
            kset = ls.closest_nodes(key, k)
            if node in kset and ls.owner_id in kset:
                assert in_arc(arc, key), (k, key)


def test_shared_arc_is_the_overlap_of_two_k_set_reaches():
    ls = LeafSet(1040, 8)
    ls.add_all(range(1000, 1090, 10))  # 1000 .. 1080 on the ring, 9 ids
    assert ls.shared_arc(1050, 2) == (1030, 30)  # keys 1031 .. 1060
    assert in_arc(ls.shared_arc(1050, 2), 1060)  # the clockwise end is in
    assert not in_arc(ls.shared_arc(1050, 2), 1030)  # the counterclockwise end is out
    assert ls.shared_arc(1030, 2) == (1020, 30)  # counterclockwise of the owner
    assert ls.shared_arc(1060, 2) == (0, 0)  # two slots away: never in one k-set
    assert ls.shared_arc(1060, 3) == (1030, 40)
    assert ls.shared_arc(1045, 2) == (0, 0)  # not a member
    assert ls.shared_arc(1040, 2) == (0, 0)  # the owner is no member
    assert ls.shared_arc(1050, 4) == (1010, 70)  # 2k + 1 = n: still exact
    assert ls.shared_arc(1050, 5) == (0, SPACE)  # 2k >= n: a full turn
    wrapped = LeafSet(5, 8)
    wrapped.add_all([SPACE - 20, SPACE - 10, 15, 25, 35, 45])
    assert wrapped.shared_arc(SPACE - 10, 2) == (SPACE - 20, 35)  # wraps at 0


def test_failure_repair_merges_each_witness_leafset_once(monkeypatch):
    """A repair that needs no exchange makes one add_all per witness and no
    per-id add at all."""
    net = build_pastry(160, l=8, seed=38)
    calls = {"add": 0, "add_all": 0, "exchange": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(LeafSet, "add", counting("add", LeafSet.add))
    monkeypatch.setattr(LeafSet, "add_all", counting("add_all", LeafSet.add_all))
    monkeypatch.setattr(
        PastryNode, "exchange_leafsets",
        counting("exchange", PastryNode.exchange_leafsets),
    )
    victim = net.node_ids[40]
    witnesses = net.node(victim).leafset.members()
    net.fail_node(victim)
    assert calls["exchange"] == 0
    assert calls["add"] == 0
    assert calls["add_all"] == len(witnesses) > 0
