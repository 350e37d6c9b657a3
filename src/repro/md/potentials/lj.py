"""Lennard-Jones 12-6 pair potential (paper Eq. 1, Table 2 LJ column).

``U(r) = 4 eps [ (sigma/r)^12 - (sigma/r)^6 ]`` truncated at ``cutoff``
(2.5 sigma in the benchmark) without shift, matching the LAMMPS bench
input the paper uses.  The kernel is a single vectorized pass over the
pair list that works one axis at a time: the separations, ``r^2``, the
per-pair force components and the bincount-based scatters (see
:mod:`repro.md.kernels`) are 1-D arrays, never ``(m, 3)`` temporaries.
The skin pairs beyond the force cutoff are dropped once, by index.
"""

from __future__ import annotations

import numpy as np

from repro.md.atoms import Atoms
from repro.md.kernels import scatter_signed
from repro.md.potentials.base import ForceResult, GhostComm, PairPotential


class LennardJones(PairPotential):
    """LJ 12-6 with energy computed only inside the cutoff (no shift).

    Supports multiple species: construct with ``n_types > 1`` and set
    per-pair coefficients with :meth:`set_coeff`; unset cross terms fill
    in by Lorentz-Berthelot mixing (geometric epsilon, arithmetic sigma),
    matching LAMMPS' default ``pair_modify mix``.
    """

    def __init__(
        self,
        epsilon: float = 1.0,
        sigma: float = 1.0,
        cutoff: float = 2.5,
        n_types: int = 1,
    ):
        if epsilon <= 0 or sigma <= 0 or cutoff <= 0:
            raise ValueError("epsilon, sigma and cutoff must be positive")
        if n_types < 1:
            raise ValueError(f"n_types must be >= 1, got {n_types}")
        self.epsilon = epsilon
        self.sigma = sigma
        self.cutoff = cutoff
        self.n_types = n_types
        # Per-type-pair tables (filled by mixing until set explicitly).
        self._eps = np.full((n_types, n_types), epsilon)
        self._sig = np.full((n_types, n_types), sigma)
        self._cut = np.full((n_types, n_types), cutoff)
        self._diag_set = [False] * n_types
        self._pair_set = np.zeros((n_types, n_types), dtype=bool)

    # -- multi-species coefficients ------------------------------------
    def set_coeff(
        self, i: int, j: int, epsilon: float, sigma: float, cutoff: float | None = None
    ) -> None:
        """Set the (i, j) interaction (symmetric); remix unset cross terms."""
        if not (0 <= i < self.n_types and 0 <= j < self.n_types):
            raise ValueError(f"types ({i}, {j}) out of range for {self.n_types}")
        if epsilon <= 0 or sigma <= 0:
            raise ValueError("epsilon and sigma must be positive")
        cut = cutoff if cutoff is not None else self.cutoff
        for a, b in ((i, j), (j, i)):
            self._eps[a, b] = epsilon
            self._sig[a, b] = sigma
            self._cut[a, b] = cut
            self._pair_set[a, b] = True
        if i == j:
            self._diag_set[i] = True
            self._remix()
        self.cutoff = float(self._cut.max())  # neighbor lists use the max

    def _remix(self) -> None:
        """Lorentz-Berthelot fill for cross terms not set explicitly."""
        for a in range(self.n_types):
            for b in range(self.n_types):
                if a == b or self._pair_set[a, b]:
                    continue
                if self._diag_set[a] and self._diag_set[b]:
                    self._eps[a, b] = np.sqrt(self._eps[a, a] * self._eps[b, b])
                    self._sig[a, b] = 0.5 * (self._sig[a, a] + self._sig[b, b])
                    self._cut[a, b] = max(self._cut[a, a], self._cut[b, b])

    def coeff(self, i: int, j: int) -> tuple[float, float, float]:
        """(epsilon, sigma, cutoff) for the (i, j) interaction."""
        return float(self._eps[i, j]), float(self._sig[i, j]), float(self._cut[i, j])

    def pair_energy(self, r: np.ndarray) -> np.ndarray:
        """U(r) for scalar/array distances (no cutoff applied)."""
        sr6 = (self.sigma / r) ** 6
        return 4.0 * self.epsilon * (sr6 * sr6 - sr6)

    def pair_force_over_r(self, r2: np.ndarray) -> np.ndarray:
        """fpair(r)/r such that f_i += fpair * (x_i - x_j)."""
        sr2 = (self.sigma * self.sigma) / r2
        sr6 = sr2 * sr2 * sr2
        return 24.0 * self.epsilon * sr6 * (2.0 * sr6 - 1.0) / r2

    def compute(
        self,
        atoms: Atoms,
        pair_i: np.ndarray,
        pair_j: np.ndarray,
        comm: GhostComm | None = None,
        half_list: bool = True,
    ) -> ForceResult:
        """Vectorized LJ force/energy/virial over the pair list."""
        x = atoms.x
        f = atoms.f
        if pair_i.size == 0:
            return ForceResult()

        d = [xa[pair_i] - xa[pair_j] for xa in x.T]
        r2 = d[0] * d[0]
        r2 += d[1] * d[1]
        r2 += d[2] * d[2]

        if self.n_types == 1:
            eps = self.epsilon
            sig2 = self.sigma * self.sigma
            cut2 = self.cutoff * self.cutoff
        else:
            ti = atoms.type[pair_i]
            tj = atoms.type[pair_j]
            eps = self._eps[ti, tj]
            sig = self._sig[ti, tj]
            sig2 = sig * sig
            cut = self._cut[ti, tj]
            cut2 = cut * cut

        near = np.flatnonzero(r2 < cut2)
        i = pair_i[near]
        j = pair_j[near]
        r2 = r2[near]
        if self.n_types != 1:
            eps = eps[near]
            sig2 = sig2[near]

        sr2 = sig2 / r2
        sr6 = sr2 * sr2 * sr2
        fpair = 24.0 * eps * sr6 * (2.0 * sr6 - 1.0) / r2
        for k in range(3):
            w = fpair * d[k][near]
            scatter_signed(f[:, k], i, w, 1)
            if half_list:
                scatter_signed(f[:, k], j, w, -1)

        e_pair = 4.0 * eps * (sr6 * sr6 - sr6)
        virial_pair = fpair * r2  # r . f per pair

        if half_list:
            energy = float(e_pair.sum())
            virial = float(virial_pair.sum())
        else:
            # Directed list visits each pair twice (once per endpoint).
            energy = 0.5 * float(e_pair.sum())
            virial = 0.5 * float(virial_pair.sum())
        return ForceResult(energy=energy, virial=virial)
