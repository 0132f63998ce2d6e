"""Unit tests for the Pastry routing table."""

from hypothesis import given, strategies as st

from repro.pastry import idspace
from repro.pastry.routingtable import RoutingTable

OWNER = 0x12345678 << 96  # digits: 1,2,3,4,5,6,7,8,0,...

ids = st.integers(min_value=0, max_value=idspace.ID_SPACE - 1)


def make(proximity=None):
    prox = proximity if proximity is not None else (lambda n: 0.0)
    return RoutingTable(OWNER, 4, prox)


class TestSlots:
    def test_slot_for_self_is_none(self):
        assert make().slot_for(OWNER) is None

    def test_slot_row_is_shared_prefix(self):
        rt = make()
        other = 0x22345678 << 96  # differs at digit 0
        assert rt.slot_for(other) == (0, 2)

    def test_slot_deeper(self):
        rt = make()
        other = 0x12395678 << 96  # shares 3 digits, digit 3 = 9
        assert rt.slot_for(other) == (3, 9)

    def test_dimensions(self):
        rt = make()
        assert rt.rows == 32
        assert rt.cols == 16


class TestConsider:
    def test_fills_empty_slot(self):
        rt = make()
        node = 0x2 << 124
        assert rt.consider(node)
        assert rt.entry(0, 2) == node

    def test_never_fills_own_digit_column(self):
        rt = make()
        # Shares 0 digits but first digit equals owner's first digit: that
        # is impossible (they'd share a digit), so craft a row-1 case:
        # shares 1 digit ("1"), next digit 2 == owner's digit 2 -> impossible
        # too.  The guard is exercised via install_row with the owner itself.
        assert not rt.consider(OWNER)

    def test_prefers_proximal_candidate(self):
        distances = {}
        rt = make(lambda n: distances[n])
        far = 0x2F << 120
        near = 0x2A << 120
        distances[far], distances[near] = 5.0, 1.0
        rt.consider(far)
        assert rt.consider(near)
        assert rt.entry(0, 2) == near

    def test_keeps_nearer_occupant(self):
        distances = {}
        rt = make(lambda n: distances[n])
        near = 0x2A << 120
        far = 0x2F << 120
        distances[far], distances[near] = 5.0, 1.0
        rt.consider(near)
        assert not rt.consider(far)
        assert rt.entry(0, 2) == near

    def test_duplicate_consider_is_noop(self):
        rt = make()
        node = 0x2 << 124
        rt.consider(node)
        assert not rt.consider(node)

    @given(st.lists(ids, min_size=1, max_size=100, unique=True))
    def test_property_entries_in_correct_slots(self, nodes):
        rt = make()
        for n in nodes:
            rt.consider(n)
        for entry in rt.entries():
            row, col = rt.slot_for(entry)
            assert rt.entry(row, col) == entry
            assert idspace.shared_prefix_length(OWNER, entry, 4) == row
            assert idspace.digit(entry, row, 4) == col


class TestLookup:
    def test_lookup_finds_longer_prefix_node(self):
        rt = make()
        node = 0x129 << 116  # shares "12", digit 9 at row 2
        rt.consider(node)
        key = 0x1299 << 112
        assert rt.lookup(key) == node

    def test_lookup_empty_slot_returns_none(self):
        assert make().lookup(0x9 << 124) is None

    def test_lookup_own_id_returns_none(self):
        assert make().lookup(OWNER) is None

    def test_remove(self):
        rt = make()
        node = 0x2 << 124
        rt.consider(node)
        assert rt.remove(node)
        assert rt.entry(0, 2) is None

    def test_remove_absent(self):
        assert not make().remove(0x3 << 124)

    def test_remove_wrong_occupant_is_noop(self):
        rt = make()
        a = 0x2A << 120
        b = 0x2B << 120  # same slot as a
        rt.consider(a)
        assert not rt.remove(b)
        assert rt.entry(0, 2) == a


class TestRows:
    def test_row_copy_is_defensive(self):
        rt = make()
        node = 0x2 << 124
        rt.consider(node)
        row = rt.row(0)
        row[2] = None
        assert rt.entry(0, 2) == node

    def test_install_row_applies_consider_rules(self):
        rt = make()
        donor_row = [None] * 16
        node = 0x2 << 124
        donor_row[2] = node
        donor_row[1] = OWNER  # must be skipped
        rt.install_row(0, donor_row)
        assert rt.entry(0, 2) == node
        assert len(rt) == 1

    def test_len_counts_entries(self):
        rt = make()
        rt.consider(0x2 << 124)
        rt.consider(0x129 << 116)
        assert len(rt) == 2


class TestLazyRows:
    """Unfilled rows share one immutable all-None row until their first entry."""

    def test_empty_row_reads_none(self):
        rt = make()
        assert all(rt.entry(r, c) is None for r in range(rt.rows) for c in range(rt.cols))
        assert rt.lookup(0x2 << 124) is None
        assert rt.row(5) == [None] * 16
        assert len(rt) == 0 and list(rt.entries()) == []

    def test_row_of_an_unfilled_row_is_a_fresh_list(self):
        rt = make()
        row = rt.row(3)
        assert type(row) is list
        row[7] = 0x2 << 124
        assert rt.row(3) == [None] * 16
        assert rt.row(3) is not rt.row(3)

    def test_writing_one_row_leaves_the_other_rows_alone(self):
        rt = make()
        node = 0x129 << 116  # row 2, column 9
        assert rt.consider(node)
        assert rt.entry(2, 9) == node
        for r in range(rt.rows):
            if r != 2:
                assert rt.row(r) == [None] * 16
        assert list(rt.entries()) == [node]

    def test_writing_one_table_leaves_another_tables_rows_alone(self):
        first, second = make(), make()
        nodes = [0x2 << 124, 0x129 << 116, 0x12345679 << 96]
        for node in nodes:
            assert first.consider(node)
        assert len(first) == 3
        assert len(second) == 0
        assert all(second.row(r) == [None] * 16 for r in range(second.rows))
        assert second.consider(0x3 << 124)
        assert first.entry(0, 3) is None
        assert second.entry(0, 2) is None

    def test_remove_empties_a_slot_without_touching_other_tables(self):
        first, second = make(), make()
        node = 0x2 << 124
        first.consider(node)
        second.consider(node)
        assert first.remove(node)
        assert first.entry(0, 2) is None
        assert second.entry(0, 2) == node
        assert not first.remove(node)
