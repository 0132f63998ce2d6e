"""Extension: replica locality and route stretch (the §2.1 Pastry claims).

The paper quotes [27]: route stretch ~1.5x, and "among 5 replicated
copies of a file, Pastry is able to find the 'nearest' copy in 76% of all
lookups and one of the two 'nearest' copies in 92%".  We measure both in
our emulator.  Shape expectations: nearest-replica share well above the
1/k uniform baseline, and stretch a small constant.
"""


def test_replica_locality_and_stretch(paper_artifact):
    loc, stretch = paper_artifact("locality")

    # Shape: locality clearly beats the uniform-random baseline.
    assert loc.rank_share(0) > 1.5 * loc.random_baseline
    assert loc.rank_share(1) > loc.rank_share(0)
    # Shape: stretch is a small constant.
    assert stretch.mean_stretch < 3.0
