import random

import pytest

from ellnet import lattice_from_generators
from ellnet.errors import RankDeficientError


def hnf_with_witness(gens, rank):
    """Independent row-style HNF tracking each basis row as an explicit
    integer combination of the generators."""
    rows = [(list(g), [1 if k == i else 0 for k in range(len(gens))])
            for i, g in enumerate(gens)]
    basis = []
    for col in range(rank):
        work = [rw for rw in rows if rw[0][col] != 0]
        rest = [rw for rw in rows if rw[0][col] == 0]
        assert work
        while len(work) > 1:
            work.sort(key=lambda rw: abs(rw[0][col]))
            pv, pw = work[0]
            reduced = [work[0]]
            for v, w in work[1:]:
                q = v[col] // pv[col]
                v = [a - q * b for a, b in zip(v, pv)]
                w = [a - q * b for a, b in zip(w, pw)]
                if v[col] != 0:
                    reduced.append((v, w))
                else:
                    rest.append((v, w))
            work = reduced
        v, w = work[0]
        if v[col] < 0:
            v, w = [-a for a in v], [-a for a in w]
        basis.append((v, w))
        rows = rest
    for j in range(1, rank):
        for i in range(j):
            q = basis[i][0][j] // basis[j][0][j]
            if q:
                basis[i] = (
                    [a - q * b for a, b in zip(basis[i][0], basis[j][0])],
                    [a - q * b for a, b in zip(basis[i][1], basis[j][1])],
                )
    return basis


def test_redundant_generator_removed():
    lat = lattice_from_generators(2, [(2, 0), (0, 3), (2, 3)])
    assert lat.basis == ((2, 0), (0, 3))


def test_paper_basis_is_canonical():
    lat = lattice_from_generators(2, [(1, 5), (0, 13)])
    assert lat.basis == ((1, 5), (0, 13))
    assert lat.index() == 13


def test_rank_one_gcd():
    lat = lattice_from_generators(1, [(6,), (10,)])
    assert lat.basis == ((2,),)


def test_rank_deficient_rejected():
    with pytest.raises(RankDeficientError):
        lattice_from_generators(2, [(1, 2), (2, 4)])


def test_membership_and_decomposition():
    lat = lattice_from_generators(2, [(9, 3), (0, 10)])
    assert lat.contains((9, 3))
    assert lat.contains((9, 13))
    assert not lat.contains((1, 0))
    coeffs, rep = lat.decompose((101, 100))
    assert coeffs == (11, 6) and rep == (2, 7)
    total = [101 - 11 * 9, 100 - 11 * 3 - 6 * 10]
    assert tuple(total) == (2, 7)
    reps = list(lat.representatives())
    assert len(reps) == lat.index() == 90
    assert reps[0] == (0, 0) and reps == sorted(reps)
    assert lat.decompose((-1, -1))[1] in reps
    coeffs, rep = lat.decompose((-1, -1))
    recon = [sum(c * b[k] for c, b in zip(coeffs, lat.basis)) + rep[k] for k in (0, 1)]
    assert tuple(recon) == (-1, -1)


def test_generators_against_witness_hnf():
    rng = random.Random(3)
    for _ in range(50):
        rank = rng.choice([1, 2, 3])
        while True:
            gens = [tuple(rng.randint(-9, 9) for _ in range(rank))
                    for _ in range(rank + rng.randint(0, 2))]
            try:
                lat = lattice_from_generators(rank, gens)
                break
            except RankDeficientError:
                continue
        witness = hnf_with_witness([list(g) for g in gens], rank)
        assert tuple(tuple(v) for v, _ in witness) == lat.basis
        for v, combo in witness:
            recon = [0] * rank
            for c, g in zip(combo, gens):
                recon = [a + c * b for a, b in zip(recon, g)]
            assert recon == v  # basis rows are integer combinations of the input
        for g in gens:
            assert lat.contains(g)
