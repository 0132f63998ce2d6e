"""Differential model: the ring-ordered LeafSet against its definition.

``ReferenceLeafSet`` is the leaf set as the parent commit defined it — a
member set, trimmed to the union of the two per-direction rankings, with
every view re-derived by sorting — kept here, test-local, as the oracle.
It trims after every mutation, i.e. it is the old lazy implementation with
a read after every operation (see the LeafSet docstring for why that is the
only order the two are required to agree on).
"""

from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from repro.pastry import idspace
from repro.pastry.leafset import LeafSet

SPACE = idspace.ID_SPACE
HALF = SPACE // 2
cw = idspace.clockwise_distance
ccw = idspace.counterclockwise_distance


class ReferenceLeafSet:
    def __init__(self, owner_id, l):
        self.owner_id, self.l = owner_id, l
        self.member_set = set()
        self.ever_trimmed = False

    def add(self, node_id):
        if node_id == self.owner_id:
            return
        self.member_set.add(node_id)
        half = self.l // 2
        ranked_cw = sorted(self.member_set, key=lambda i: cw(self.owner_id, i))
        ranked_ccw = sorted(self.member_set, key=lambda i: ccw(self.owner_id, i))
        keep = set(ranked_cw[:half]) | set(ranked_ccw[:half])
        if len(keep) != len(self.member_set):
            self.ever_trimmed = True
            self.member_set = keep

    def remove(self, node_id):
        present = node_id in self.member_set
        self.member_set.discard(node_id)
        return present

    @property
    def larger(self):
        side = [m for m in self.member_set if cw(self.owner_id, m) <= ccw(self.owner_id, m)]
        return sorted(side, key=lambda i: cw(self.owner_id, i))[: self.l // 2]

    @property
    def smaller(self):
        side = [m for m in self.member_set if ccw(self.owner_id, m) < cw(self.owner_id, m)]
        return sorted(side, key=lambda i: ccw(self.owner_id, i))[: self.l // 2]

    def is_full(self):
        return len(self.smaller) == len(self.larger) == self.l // 2

    def extremes(self):
        smaller, larger = self.smaller, self.larger
        return (smaller[-1] if smaller else None, larger[-1] if larger else None)

    def covers(self, key):
        if not self.is_full() and not self.ever_trimmed:
            return True
        low, high = self.extremes()
        low = self.owner_id if low is None else low
        high = self.owner_id if high is None else high
        span = cw(low, self.owner_id) + cw(self.owner_id, high)
        if span >= SPACE:
            return True
        return cw(low, key) <= span

    def candidates(self, include_self):
        return self.member_set | {self.owner_id} if include_self else self.member_set

    def closest_to(self, key, include_self):
        return idspace.closest_of(self.candidates(include_self), key)

    def closest_nodes(self, key, k, include_self):
        return idspace.sort_by_distance(self.candidates(include_self), key)[:k]


def walk_closest_nodes(ring, owner_id, key, k, include_self):
    """The staged body of ``LeafSet.closest_nodes`` (DESIGN.md §4g, "Staged").

    Two walkers leave the key's bisect point in opposite directions over
    the same index range (negative indices wrap for free).  The untaken ids
    always form one arc between them, whose nearest id by ring distance is
    whichever walker has the shorter way back to the key: O(k + log l).
    Kept under the differential test so that landing it is a move.
    """
    up = bisect_left(ring, key) - len(ring)  # first id >= key
    down = up + len(ring) - 1  # last id < key
    out = []
    while len(out) < k and up <= down:
        below, above = ring[down], ring[up]
        d_below, d_above = (key - below) % SPACE, (above - key) % SPACE
        if d_below < d_above or (d_below == d_above and below < above):
            pick = below
            down -= 1
        else:
            pick = above
            up += 1
        if include_self or pick != owner_id:
            out.append(pick)
    return out


@st.composite
def scenarios(draw):
    """(owner, l, ops, keys) with ids biased towards the awkward places."""
    any_id = st.integers(min_value=0, max_value=SPACE - 1)
    owner = draw(st.one_of(any_id, st.sampled_from([0, 1, HALF, SPACE - 1])))
    near = st.integers(min_value=1, max_value=64)
    ids = st.one_of(
        any_id,
        # The namespace wrap, the owner, and the cw/ccw tie at the antipode.
        st.sampled_from(
            [0, 1, SPACE - 1, owner, (owner + HALF) % SPACE, (owner - HALF) % SPACE]
        ),
        near.map(lambda d: (owner + d) % SPACE),  # one-sided cluster, clockwise
        near.map(lambda d: (owner - d) % SPACE),  # one-sided cluster, counterclockwise
        st.integers(min_value=-8, max_value=8).map(lambda d: (owner + HALF + d) % SPACE),
    )
    l = draw(st.sampled_from([2, 4, 8]))
    ops = draw(st.lists(st.tuples(st.sampled_from(["add", "add", "remove"]), ids), max_size=40))
    keys = draw(st.lists(ids, min_size=1, max_size=4))
    return owner, l, ops, keys


def assert_same(ls, ref, keys):
    assert ls.members() == ref.member_set
    assert ls.sorted_members() == tuple(sorted(ref.member_set))
    assert ls.sorted_members_with_owner() == tuple(sorted(ref.member_set | {ref.owner_id}))
    assert len(ls) == len(ref.member_set)
    assert ls.smaller == ref.smaller
    assert ls.larger == ref.larger
    assert ls.extremes() == ref.extremes()
    assert ls.is_full() == ref.is_full()
    assert ls.ever_trimmed == ref.ever_trimmed
    paper_k = ls.l // 2 + 1
    for key in keys + list(ref.member_set)[:3]:
        assert (key in ls) == (key in ref.member_set)
        assert ls.covers(key) == ref.covers(key)
        assert ls.owner_rank(key) == ref.closest_nodes(key, ls.l + 2, True).index(ls.owner_id)
        for include_self in (True, False):
            assert ls.closest_to(key, include_self) == ref.closest_to(key, include_self)
            for k in (1, paper_k, paper_k + 1, ls.l + 3):
                expected = ref.closest_nodes(key, k, include_self)
                assert ls.closest_nodes(key, k, include_self) == expected
                ring = list(ls.sorted_members_with_owner())
                assert walk_closest_nodes(ring, ls.owner_id, key, k, include_self) == expected


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_ring_leafset_matches_reference_after_every_operation(scenario):
    owner, l, ops, keys = scenario
    ls, ref = LeafSet(owner, l), ReferenceLeafSet(owner, l)
    assert_same(ls, ref, keys)
    for op, node_id in ops:
        if op == "add":
            ls.add(node_id)
            ref.add(node_id)
        else:
            assert ls.remove(node_id) == ref.remove(node_id)
        assert_same(ls, ref, keys)


@pytest.mark.parametrize("owner", [0, 1, HALF - 1, HALF, SPACE - 1])
@pytest.mark.parametrize("member", [None, "mirror", "antipode", "successor"])
def test_owner_rank_on_the_smallest_rings(owner, member):
    """A ring of the owner alone, then of the owner and one member placed
    where the rank's arc degenerates: the owner's mirror image about the
    key (the tie), its antipode (the arc is the whole ring), its successor."""
    ls, ref = LeafSet(owner, 4), ReferenceLeafSet(owner, 4)
    keys = [0, SPACE - 1, owner, (owner + HALF) % SPACE, (owner - HALF) % SPACE,
            (owner + 7) % SPACE, (owner - 7) % SPACE]
    assert_same(ls, ref, keys)
    if member is not None:
        node_id = {
            "mirror": (owner + 14) % SPACE,  # the keys owner +- 7 sit midway
            "antipode": (owner + HALF) % SPACE,
            "successor": (owner + 1) % SPACE,
        }[member]
        ls.add(node_id)
        ref.add(node_id)
        assert_same(ls, ref, keys + [(owner - 14) % SPACE])


def test_covers_forgets_its_arc_when_the_ring_changes():
    """``covers`` remembers the arc between calls; every mutation that moves
    an extreme (a nearer add, the trim it causes, a removal) must clear it."""
    ls = LeafSet(1000, 4)
    ls.add_all([900, 950, 1050, 1100])
    assert ls.covers(900) and ls.covers(1100) and not ls.covers(899)
    ls.add(1025)  # trims 1100: the clockwise extreme moves in
    assert ls.ever_trimmed and not ls.covers(1100) and ls.covers(1050)
    assert ls.remove(900)  # the counterclockwise extreme moves in
    assert not ls.covers(900) and ls.covers(950)
    ls.add(800)  # and out again
    assert ls.covers(800) and not ls.covers(799)


def test_trim_is_eager_so_remove_before_read_cannot_resurrect_a_member():
    """The one order in which eager and batch trimming differ (pinned).

    Batch-trimmed at the next read, the unread sequence below would end
    with 1300 promoted into the gap 1200 left.  The eager trim forgot 1300
    when 1500 arrived; callers must not rely on getting it back.
    """
    ls = LeafSet(1000, 4)
    ls.add_all([1100, 1200, 1300, 1400, 1500])
    assert ls.remove(1200)
    assert ls.members() == {1100, 1400, 1500}  # a batch trim: + 1300, untrimmed
    assert ls.ever_trimmed
    # Removing the already-trimmed id reports "was not a member".
    assert not ls.remove(1300)
