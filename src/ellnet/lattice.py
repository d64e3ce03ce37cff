"""Full-rank integer lattices in Hermite normal form.

The canonical basis is stored as rows: row i has its first nonzero entry
(the positive pivot) in column i, and every entry above a pivot is reduced
to [0, pivot).  Membership, coset decomposition and canonical coset
representatives all reduce to triangular back-substitution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import RankDeficientError

Vector = tuple[int, ...]


def _hnf(rows: list[list[int]], rank: int) -> list[list[int]]:
    basis: list[list[int]] = []
    pending = [row[:] for row in rows if any(row)]
    for col in range(rank):
        work = [row for row in pending if row[col] != 0]
        rest = [row for row in pending if row[col] == 0]
        if not work:
            raise RankDeficientError(f"generators have no pivot in column {col}")
        while len(work) > 1:
            work.sort(key=lambda row: abs(row[col]))
            piv = work[0]
            reduced = [piv]
            for row in work[1:]:
                q = row[col] // piv[col]
                row = [a - q * b for a, b in zip(row, piv)]
                if row[col] != 0:
                    reduced.append(row)
                elif any(row):
                    rest.append(row)
            work = reduced
        piv = work[0]
        if piv[col] < 0:
            piv = [-a for a in piv]
        basis.append(piv)
        pending = rest
    for j in range(1, rank):
        for i in range(j):
            q = basis[i][j] // basis[j][j]
            if q:
                basis[i] = [a - q * b for a, b in zip(basis[i], basis[j])]
    return basis


@dataclass(frozen=True)
class IntegerLattice:
    """A full-rank sublattice of Z^rank with a canonical (HNF) basis."""

    rank: int
    basis: tuple[Vector, ...]

    def index(self) -> int:
        """Order of Z^rank / lattice (product of the pivots)."""
        n = 1
        for i in range(self.rank):
            n *= self.basis[i][i]
        return n

    def decompose(self, v: Sequence[int]) -> tuple[Vector, Vector]:
        """Write v = sum(n_i * basis_i) + m with the canonical representative m."""
        if len(v) != self.rank:
            raise ValueError("vector length does not match lattice rank")
        rem = list(v)
        coeffs = []
        for i in range(self.rank):
            q, r = divmod(rem[i], self.basis[i][i])
            coeffs.append(q)
            rem = [a - q * b for a, b in zip(rem, self.basis[i])]
            assert rem[i] == r
        return tuple(coeffs), tuple(rem)

    def contains(self, v: Sequence[int]) -> bool:
        _, rem = self.decompose(v)
        return not any(rem)

    def representatives(self) -> Iterator[Vector]:
        """All canonical coset representatives in lexicographic order."""
        ranges = [range(self.basis[i][i]) for i in range(self.rank)]
        return iter(itertools.product(*ranges))


def lattice_from_generators(rank: int, generators: Iterable[Sequence[int]]) -> IntegerLattice:
    """Canonical lattice spanned by the generators; they must have full rank."""
    rows = []
    for g in generators:
        if len(g) != rank:
            raise ValueError(f"generator {tuple(g)} does not have length {rank}")
        rows.append([int(a) for a in g])
    basis = _hnf(rows, rank)
    return IntegerLattice(rank, tuple(tuple(row) for row in basis))
