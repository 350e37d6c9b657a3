"""Property-based tests: the binned neighbor builder equals brute force.

The builder bins atoms at half the cutoff, merges each stencil column
along z and bounds its cell grid by the atom count; every shape below
pokes one of those mechanisms (flat axes, a lone pair, a cutoff tiny
against the span, lattice points sitting exactly on bin edges and at
exactly the cutoff, ghosts crowded on one side).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md.neighbor import build_pairs, build_pairs_bruteforce

SHAPES = ("cloud", "coplanar", "collinear", "dimer", "sparse", "lattice", "one-sided")


def pair_set(i, j):
    return set(zip(i.tolist(), j.tolist()))


@st.composite
def systems(draw):
    """``(x, nlocal, cutoff)`` for one drawn shape."""
    shape = draw(st.sampled_from(SHAPES))
    n = 2 if shape == "dimer" else draw(st.integers(min_value=2, max_value=60))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    span = draw(st.floats(min_value=0.5, max_value=20.0))
    cutoff = draw(st.floats(min_value=0.1, max_value=6.0))
    x = rng.uniform(0.0, span, size=(n, 3))
    if shape == "coplanar":
        x[:, 2] = 1.25
    elif shape == "collinear":
        x[:, 1:] = (0.5, -3.0)
    elif shape == "dimer":
        x[1] = x[0] + rng.normal(size=3) * cutoff / 2
    elif shape == "sparse":
        x = rng.uniform(0.0, 100.0, size=(n, 3))
        cutoff = draw(st.floats(min_value=1e-3, max_value=0.05))
        x[-1] = x[0] + cutoff / 2  # at least one pair in range
    elif shape == "lattice":
        spacing = draw(st.sampled_from([0.5, 1.0, 1.25]))
        x = rng.integers(0, 6, size=(n, 3)) * spacing
        x = np.unique(x, axis=0)
        cutoff = spacing * draw(st.sampled_from([1, 2, 3]))  # pairs at exactly r_c
    nlocal = draw(st.sampled_from([0, 1, len(x), draw(st.integers(0, len(x)))]))
    if shape == "one-sided" and 0 < nlocal < len(x):
        x[nlocal:, 0] += x[:nlocal, 0].max() - x[nlocal:, 0].min() + cutoff / 3
    return x, nlocal, cutoff


class TestBuilderEqualsBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(sys=systems(), half=st.booleans(), rule=st.sampled_from(["all", "coord"]))
    def test_same_pair_set(self, sys, half, rule):
        x, nlocal, cutoff = sys
        got = build_pairs(x, nlocal, cutoff, half=half, ghost_rule=rule)
        want = build_pairs_bruteforce(x, nlocal, cutoff, half=half, ghost_rule=rule)
        assert pair_set(*got) == pair_set(*want)
        assert len(got[0]) == len(pair_set(*got))  # no pair twice
        assert got[0].dtype == got[1].dtype == np.intp


class TestBoundedBinGrid:
    def test_tiny_cutoff_over_wide_span_returns(self):
        # 100 / (0.05 / 2) bins per axis would be 6.4e10 cells.
        x = np.array([[0.0, 0.0, 0.0], [100.0, 100.0, 100.0], [50.0, 50.0, 50.2]])
        i, j = build_pairs(x, 2, 0.05)
        assert i.size == j.size == 0

    def test_sparse_cloud_of_many_atoms(self):
        # Clipping each axis alone would still leave ~4000^3 cells here.
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 1000.0, size=(500, 3))
        x[1] = x[0] + 0.02
        got = pair_set(*build_pairs(x, 400, 0.05))
        assert got == pair_set(*build_pairs_bruteforce(x, 400, 0.05)) == {(0, 1)}

    def test_flat_axes_keep_their_pairs(self):
        # Both atoms on one line: two axes have a span of ~2e-9.
        x = np.array([[0.0, 1.0, 2.0], [1.5, 1.0, 2.0]])
        assert pair_set(*build_pairs(x, 2, 2.0, half=False)) == {(0, 1), (1, 0)}


class TestStencilCorners:
    def test_pairs_reaching_into_trimmed_columns(self):
        # A 3x3x3 grid of 0.65-wide bins for cutoff 1: the (2, 2) columns
        # reach one z cell, the (2, 1) columns two, so a pair just inside
        # the cutoff in either direction tests the per-column z reach.
        x = np.array([
            [0.0, 0.0, 0.0],
            [1.95, 1.95, 1.95],
            [0.64, 0.64, 0.64],  # cell (0, 0, 0), near its upper corner
            [1.31, 1.31, 0.66],  # cell (2, 2, 1): r^2 = 0.898
            [1.31, 0.66, 1.31],  # cell (2, 1, 2): r^2 = 0.898
        ])
        for half in (True, False):
            got = pair_set(*build_pairs(x, len(x), 1.0, half=half))
            assert got == pair_set(*build_pairs_bruteforce(x, len(x), 1.0, half=half))
            assert (2, 3) in got and (2, 4) in got
