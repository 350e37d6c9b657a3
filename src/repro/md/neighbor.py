"""Neighbor lists: binned, vectorized pair construction.

LAMMPS builds Verlet lists over local + ghost atoms with an extended
cutoff ``r_comm = cutoff + skin`` and rebuilds them either on a fixed
cadence (``neigh_modify every N check no``, the LJ benchmark) or when any
atom has moved more than half the skin (``check yes``, the EAM benchmark
— the variant whose global allreduce dominates "Other" in Table 3).

Two list flavors (paper section 4.4):

* **half** — each pair appears once; forces are applied to both partners
  (Newton's 3rd law).  For local-local pairs the rule is ``i < j``.  For
  local-ghost pairs the rule depends on how ghosts were communicated:

  - ``ghost_rule="all"`` — the p2p pattern's half shell: ghosts only
    arrive from the 13 plus-side neighbors, so every local-ghost pair is
    owned by exactly one rank already and all of them are kept.
  - ``ghost_rule="coord"`` — the 3-stage pattern's full shell: both ranks
    see the pair, so the conventional coordinate tie-break keeps it only
    where the ghost is lexicographically above in (z, y, x).

* **full** — each local atom lists *all* its neighbors (Tersoff/DeePMD
  style); communication must then supply the full 26-neighbor shell.

The builder is fully vectorized (per the HPC-Python guides, the hot path
is NumPy end to end, with no Python-level loop over atoms).  As in
LAMMPS, whose default ``binsize`` is half the neighbor cutoff, atoms are
binned into cells at least ``r_comm / 2`` wide and sorted by cell.  Cell
ids run consecutively along z, so each (x, y) stencil column is one
contiguous range of sorted atoms: a local atom reads 25 ranges instead
of 125 per-cell rows, and cells wholly beyond ``r_comm`` (by their
minimum cell-to-cell distance) are left out of the stencil.  The
distance filter runs on contiguous per-axis copies of the sorted
coordinates; only the surviving pairs are mapped back to atom indices.
The cell grid is bounded by the atom count, so a sparse cloud or a flat
slab widens its bins instead of asking for billions of cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Bound on the bin grid: at most this many cells per atom (plus 27).
_CELLS_PER_ATOM = 8
#: Relative margin on the cutoff: bins come out a hair wider than half
#: of it, so round-off never adds a third ring of cells, and a cell whose
#: minimum distance sits within round-off of it stays in the stencil.
_SLACK = 1.0 + 1e-9


def _gap2(offset: np.ndarray, edge: float) -> np.ndarray:
    """Squared minimum gap along one axis between cells ``offset`` apart."""
    return (np.maximum(np.abs(offset) - 1, 0) * edge) ** 2


def _ranges_to_indices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[k], starts[k]+counts[k])`` vectorized."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.intp)
    # Standard trick: offsets where each range begins, then cumulative fix-up.
    ends = np.cumsum(counts)
    out = np.ones(total, dtype=np.intp)
    out[0] = starts[0]
    prev_last = starts[:-1] + counts[:-1] - 1  # last value of each range
    out[ends[:-1]] = starts[1:] - prev_last
    return np.cumsum(out)


def build_pairs(
    x: np.ndarray,
    nlocal: int,
    cutoff: float,
    half: bool = True,
    ghost_rule: str = "all",
) -> tuple[np.ndarray, np.ndarray]:
    """Build neighbor pairs ``(i, j)`` with ``|x_i - x_j| < cutoff``.

    ``i`` is always a local atom (< ``nlocal``); ``j`` ranges over all
    atoms.  With ``half=True`` each pair appears once (see module doc for
    the ghost rules); with ``half=False`` the list is directed — both
    (i, j) and (j, i) appear for local-local pairs.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if nlocal > n:
        raise ValueError(f"nlocal {nlocal} exceeds atom count {n}")
    if cutoff <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    if ghost_rule not in ("all", "coord"):
        raise ValueError(f"unknown ghost_rule {ghost_rule!r}")
    if nlocal == 0 or n < 2:
        e = np.empty(0, dtype=np.intp)
        return e, e

    # --- binning ----------------------------------------------------------
    lo = x.min(axis=0) - 1e-9
    hi = x.max(axis=0) + 1e-9
    span = np.maximum(hi - lo, 1e-12)
    # Bins of at least half the cutoff, but never more than O(atoms) of
    # them: a few atoms spread far apart widen their bins instead.
    max_cells = _CELLS_PER_ATOM * n + 27
    ncell = np.clip(span // (0.5 * cutoff * _SLACK), 1, max_cells).astype(np.intp)
    while math.prod(ncell.tolist()) > max_cells:
        ncell = np.maximum(ncell // 2, 1)
    edge = span / ncell
    # Cells within reach per axis; a flat axis (one cell) reaches none.
    reach = np.minimum(np.ceil(cutoff / edge), ncell - 1).astype(np.intp)
    nx, ny, nz = ncell.tolist()
    cell3 = np.minimum((x - lo) // edge, ncell - 1).astype(np.intp)
    cell_id = (cell3[:, 0] * ny + cell3[:, 1]) * nz + cell3[:, 2]
    order = np.argsort(cell_id, kind="stable")
    # Left edge of cell k in sorted order is bounds[k], right edge bounds[k + 1].
    bounds = np.searchsorted(cell_id[order], np.arange(nx * ny * nz + 1))

    # --- stencil: (x, y) columns, each with its own z reach ------------------
    ox, oy = np.meshgrid(
        np.arange(-reach[0], reach[0] + 1), np.arange(-reach[1], reach[1] + 1),
        indexing="ij",
    )
    ox, oy = ox.ravel(), oy.ravel()
    reach2 = cutoff * cutoff * _SLACK
    gap_xy = _gap2(ox, edge[0]) + _gap2(oy, edge[1])
    gap_z = _gap2(np.arange(reach[2] + 1), edge[2])
    zreach = (gap_xy[:, None] + gap_z[None, :] < reach2).sum(axis=1) - 1
    col = zreach >= 0
    ox, oy, zreach = ox[col], oy[col], zreach[col]

    # --- one contiguous range per (local atom, column) -----------------------
    src = np.flatnonzero(order < nlocal)  # sorted positions of local atoms
    sc = cell3[order[src]]
    cx = sc[:, 0:1] + ox
    cy = sc[:, 1:2] + oy
    inside = (cx >= 0) & (cx < nx) & (cy >= 0) & (cy < ny)
    base = (cx * ny + cy) * nz
    zlo = np.maximum(sc[:, 2:3] - zreach, 0)
    zhi = np.minimum(sc[:, 2:3] + zreach, nz - 1)
    starts = bounds[(base + zlo)[inside]]
    counts = bounds[(base + zhi + 1)[inside]] - starts
    rows = np.broadcast_to(src[:, None], inside.shape)[inside]
    have = counts > 0
    starts, counts, rows = starts[have], counts[have], rows[have]
    i_sorted = np.repeat(rows, counts)
    j_sorted = _ranges_to_indices(starts, counts)

    # --- distance filter on per-axis sorted coordinates ----------------------
    r2 = np.zeros(j_sorted.size)
    for xa in x[order].T.copy():
        d = xa[j_sorted]
        d -= xa[i_sorted]
        d *= d
        r2 += d
    near = np.flatnonzero(r2 < cutoff * cutoff)
    i = order[i_sorted[near]]
    j = order[j_sorted[near]]

    # --- pair rules ----------------------------------------------------------
    if not half:
        keep = i != j
        return i[keep], j[keep]

    j_local = j < nlocal
    keep_local = j_local & (i < j)
    if ghost_rule == "all":
        keep_ghost = ~j_local
    else:
        # Lexicographic (z, y, x) coordinate rule for full-shell ghosts.
        xi, xj = x[i], x[j]
        gz = xj[:, 2] > xi[:, 2]
        ez = xj[:, 2] == xi[:, 2]
        gy = xj[:, 1] > xi[:, 1]
        ey = xj[:, 1] == xi[:, 1]
        gx = xj[:, 0] > xi[:, 0]
        keep_ghost = ~j_local & (gz | (ez & (gy | (ey & gx))))
    keep = keep_local | keep_ghost
    return i[keep], j[keep]


def build_pairs_bruteforce(
    x: np.ndarray,
    nlocal: int,
    cutoff: float,
    half: bool = True,
    ghost_rule: str = "all",
) -> tuple[np.ndarray, np.ndarray]:
    """O(N^2) reference implementation for testing the binned builder."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    ii, jj = np.meshgrid(np.arange(nlocal), np.arange(n), indexing="ij")
    i, j = ii.ravel(), jj.ravel()
    keep = i != j
    i, j = i[keep], j[keep]
    # Squared distance summed per axis, in the binned builder's order, so
    # both agree on pairs within round-off of the cutoff.
    d = x[i] - x[j]
    r2 = d[:, 0] * d[:, 0]
    r2 += d[:, 1] * d[:, 1]
    r2 += d[:, 2] * d[:, 2]
    keep = r2 < cutoff * cutoff
    i, j = i[keep], j[keep]
    if not half:
        return i.astype(np.intp), j.astype(np.intp)
    j_local = j < nlocal
    keep_local = j_local & (i < j)
    if ghost_rule == "all":
        keep_ghost = ~j_local
    else:
        xi, xj = x[i], x[j]
        gz = xj[:, 2] > xi[:, 2]
        ez = xj[:, 2] == xi[:, 2]
        gy = xj[:, 1] > xi[:, 1]
        ey = xj[:, 1] == xi[:, 1]
        gx = xj[:, 0] > xi[:, 0]
        keep_ghost = ~j_local & (gz | (ez & (gy | (ey & gx))))
    keep = keep_local | keep_ghost
    return i[keep].astype(np.intp), j[keep].astype(np.intp)


@dataclass
class NeighborSettings:
    """Rebuild policy (the ``neigh_modify`` of Table 2)."""

    cutoff: float
    skin: float
    every: int = 20
    check: bool = False
    half: bool = True
    ghost_rule: str = "all"

    @property
    def r_comm(self) -> float:
        """Communication cutoff: force cutoff plus skin."""
        return self.cutoff + self.skin


class NeighborList:
    """A Verlet pair list with displacement-triggered rebuild support."""

    def __init__(self, settings: NeighborSettings) -> None:
        self.settings = settings
        self.pair_i = np.empty(0, dtype=np.intp)
        self.pair_j = np.empty(0, dtype=np.intp)
        self._x_at_build: np.ndarray | None = None
        self.builds = 0

    def build(self, x: np.ndarray, nlocal: int) -> None:
        """(Re)build the pair list over local+ghost positions ``x``."""
        s = self.settings
        self.pair_i, self.pair_j = build_pairs(
            x, nlocal, s.r_comm, half=s.half, ghost_rule=s.ghost_rule
        )
        self._x_at_build = np.array(x[:nlocal], copy=True)
        self.builds += 1

    @property
    def n_pairs(self) -> int:
        return int(self.pair_i.shape[0])

    def max_displacement_sq(self, x_local: np.ndarray) -> float:
        """Largest squared displacement of a local atom since last build."""
        if self._x_at_build is None:
            return float("inf")
        ref = self._x_at_build
        if x_local.shape[0] != ref.shape[0]:
            # Atom migration changed the local set; force a rebuild.
            return float("inf")
        d = x_local - ref
        return float(np.einsum("ij,ij->i", d, d).max(initial=0.0))

    def needs_rebuild(self, x_local: np.ndarray) -> bool:
        """LAMMPS ``check yes`` criterion: moved beyond half the skin."""
        half_skin = 0.5 * self.settings.skin
        return self.max_displacement_sq(x_local) > half_skin * half_skin

    def per_atom(self, nlocal: int) -> tuple[np.ndarray, np.ndarray]:
        """CSR view of the list: ``(firstneigh, neighbors)``.

        ``neighbors[firstneigh[i]:firstneigh[i+1]]`` are atom ``i``'s
        partners — LAMMPS' per-atom representation, which downstream
        analysis (coordination numbers, bond-order parameters, custom
        potentials) expects.  Rows are sorted by ``i``; neighbor order
        within a row is unspecified.
        """
        order = np.argsort(self.pair_i, kind="stable")
        sorted_i = self.pair_i[order]
        firstneigh = np.searchsorted(sorted_i, np.arange(nlocal + 1))
        return firstneigh.astype(np.intp), self.pair_j[order]

    def coordination(self, nlocal: int) -> np.ndarray:
        """Neighbor count per local atom (full coordination only when
        this is a full list; a half list counts each pair once)."""
        counts = np.bincount(self.pair_i, minlength=nlocal)[:nlocal]
        if self.settings.half:
            counts = counts + np.bincount(
                self.pair_j[self.pair_j < nlocal], minlength=nlocal
            )[:nlocal]
        return counts
