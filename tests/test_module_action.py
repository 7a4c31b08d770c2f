"""Generator matrices on oriented-match bases and their module structure."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from collections import Counter

import numpy as np
import pytest

from fusionkit import diagrams
from fusionkit.bracketing import BracketTree, enumerate_trees
from fusionkit.diagrams import canonical_key
from fusionkit.module_action import (
    ActionMatrices,
    _commutator,
    _entries,
    action_matrices,
    build_basis,
    isotypic_census,
    verify_sl2,
)
from fusionkit.ring import fuse_many, weight_multiplicities
from fusionkit.verify import Bounds, _module_sweep


def dense(triples, size: int) -> np.ndarray:
    mat = np.zeros((size, size), dtype=np.int64)
    for r, c, v in triples:
        mat[r, c] += v
    return mat


def dense_sl2(mats: ActionMatrices) -> bool:
    """The commutation relations, checked on dense numpy matrices."""
    e, f, h = (dense(t, mats.size) for t in (mats.e, mats.f, mats.h))
    return (
        np.array_equal(e @ f - f @ e, h)
        and np.array_equal(h @ e - e @ h, 2 * e)
        and np.array_equal(h @ f - f @ h, -2 * f)
    )


@pytest.fixture(scope="module")
def default_sweep():
    """Every (ws, level, basis) of the ``verify`` module suite at default bounds."""
    return list(_module_sweep(Bounds()))


# The four boxes tuples the benchmark builds bases on, each at level 8.
SL2_BASES = ((4, 4, 4, 4), (1, 2, 3, 4, 4), (2, 2, 3, 3, 4), (3, 3, 3, 3, 3))


def walked_blocks(elements) -> list[tuple[int, int]]:
    """Oracle: the block ranges found by walking the oriented elements."""
    out = []
    start = 0
    while start < len(elements):
        stop = start + elements[start].base.mu + 1
        out.append((start, stop))
        start = stop
    return out


def test_build_basis_examples():
    assert build_basis((1, 1), 1).dim == 1
    assert build_basis((1, 1), 2).dim == 4
    for w in range(4):
        assert build_basis((w,), max(w, 1)).dim == w + 1


def test_build_basis_rejects_weights_above_level():
    with pytest.raises(ValueError, match="alcove"):
        build_basis((3,), 2)


def test_basis_order_groups_matches_with_ascending_downs():
    basis = build_basis((1, 1), 2)
    keys = [(canonical_key(o.base), o.downs) for o in basis.elements]
    assert keys == [("1,1|", 0), ("1,1|", 1), ("1,1|", 2), ("1,1|1-2", 0)]
    assert basis.blocks() == [(0, 3), (3, 4)]


def test_action_matrix_entries_on_a_weight_two_block():
    basis = build_basis((1, 1), 2)
    mats = action_matrices(basis)
    e, f, h = (dense(t, mats.size) for t in (mats.e, mats.f, mats.h))
    # block of the arcless match: a0, a1, a2 with H = diag(2, 0, -2)
    assert np.array_equal(np.diag(h)[:3], [2, 0, -2])
    assert f[1, 0] == 1 and f[2, 1] == 1
    assert e[0, 1] == 2 and e[1, 2] == 2
    # E a1 = 2 a0
    vec = np.zeros(4, dtype=np.int64)
    vec[1] = 1
    assert np.array_equal(e @ vec, np.array([2, 0, 0, 0]))
    # the single-arc block is the trivial module
    assert e[3, 3] == f[3, 3] == h[3, 3] == 0


def test_matrices_are_block_diagonal():
    basis = build_basis((2, 1, 1), 3)
    mats = action_matrices(basis)
    blocks = basis.blocks()
    mask = np.zeros((basis.dim, basis.dim), dtype=bool)
    for start, stop in blocks:
        mask[start:stop, start:stop] = True
    for triples in (mats.e, mats.f, mats.h):
        assert not np.any(dense(triples, mats.size)[~mask])


def test_highest_weight_vectors_have_block_weight():
    basis = build_basis((2, 2), 3)
    mats = action_matrices(basis)
    h = dense(mats.h, mats.size)
    for start, _ in basis.blocks():
        assert h[start, start] == basis.elements[start].base.mu
    for start, stop in basis.blocks():
        assert int(np.trace(h[start:stop, start:stop])) == 0


def test_verify_sl2_accepts_built_matrices():
    for ws, level in [((1, 1), 1), ((1, 1), 2), ((2, 2), 2), ((2, 1, 2), 3)]:
        assert verify_sl2(action_matrices(build_basis(ws, level)))


def test_verify_sl2_detects_corruption():
    mats = action_matrices(build_basis((1, 1), 2))
    e = tuple((r, c, v + 1) if (r, c) == (0, 1) else (r, c, v) for r, c, v in mats.e)
    assert verify_sl2(dataclasses.replace(mats, e=e)) is False


def test_verify_sl2_equals_dense_check_on_default_sweep(default_sweep):
    for ws, level, basis in default_sweep:
        mats = action_matrices(basis)
        assert verify_sl2(mats) is dense_sl2(mats) is True, (ws, level)


def test_verify_sl2_rejects_every_one_entry_perturbation():
    mats = action_matrices(build_basis((2, 1), 3))
    n = mats.size
    for name in ("e", "f", "h"):
        entries = {(r, c): v for r, c, v in getattr(mats, name)}
        for r, c, delta in itertools.product(range(n), range(n), (1, -1)):
            changed = dict(entries)
            changed[r, c] = changed.get((r, c), 0) + delta
            triples = tuple((i, j, v) for (i, j), v in sorted(changed.items()) if v)
            bad = dataclasses.replace(mats, **{name: triples})
            assert verify_sl2(bad) is dense_sl2(bad) is False, (name, r, c, delta)


def _sl2_by_commutators(mats: ActionMatrices) -> bool:
    """Oracle: all three relations as sparse commutator products, whatever H is."""
    e, f, h = mats.e, mats.f, mats.h
    return (
        _commutator(e, f) == _entries(h)
        and _commutator(h, e) == _entries(e, 2)
        and _commutator(h, f) == _entries(f, -2)
    )


def _with(mats: ActionMatrices, name: str, triples) -> ActionMatrices:
    return dataclasses.replace(mats, **{name: tuple(triples)})


def _perturbations(mats: ActionMatrices, basis, stride: int):
    """Matrices that differ from ``mats`` by one unit somewhere, plus edits that keep them.

    Each of E, F and H gets every ``stride``-th triple moved by ±1, a ±1
    triple added on, above and below the diagonal every ``stride`` rows
    (a duplicate where one is there already, an off-diagonal entry for H),
    and a 1 between the trivial blocks, which leaves [E,F] = H unchanged.
    Then come edits that leave each matrix as it is: a triple split into two
    duplicates, a pair of duplicates that cancel, and a zero-valued triple
    off the diagonal.
    """
    n = mats.size
    trivial = [start for start, stop in basis.blocks() if stop - start == 1]
    for name in ("e", "f", "h"):
        triples = getattr(mats, name)
        for i in range(0, len(triples), stride):
            r, c, v = triples[i]
            for delta in (1, -1):
                yield _with(mats, name, triples[:i] + ((r, c, v + delta),) + triples[i + 1 :])
        for r in range(0, n - 1, stride):
            for delta in (1, -1):
                for at in ((r, r), (r, r + 1), (r + 1, r)):
                    yield _with(mats, name, triples + (at + (delta,),))
        for i, j in zip(trivial, trivial[1:]):
            yield _with(mats, name, triples + ((i, i, 1),))
            yield _with(mats, name, triples + ((i, j, 1),))
        mid = len(triples) // 2
        r, c, v = triples[mid]
        yield _with(mats, name, triples + ((r, c, -1), (r, c, 1)))
        yield _with(mats, name, triples[:mid] + ((r, c, v - 1), (r, c, 1)) + triples[mid + 1 :])
        yield _with(mats, name, triples + ((0, n - 1, 1), (0, n - 1, -1)))
        yield _with(mats, name, triples + ((n - 1, 0, 0),))


def test_verify_sl2_equals_the_commutator_oracle_on_the_algebra_bases():
    verdicts = Counter()
    for ws in SL2_BASES:
        basis = build_basis(ws, 8)
        mats = action_matrices(basis)
        assert verify_sl2(mats) is _sl2_by_commutators(mats) is True, ws
        for changed in _perturbations(mats, basis, 43):
            verdict = verify_sl2(changed)
            assert verdict is _sl2_by_commutators(changed), ws
            verdicts[verdict] += 1
    # Both verdicts occur: every unit change fails and every kept matrix passes.
    assert verdicts[True] == 4 * 3 * 4, verdicts


def _conjugated(mats: ActionMatrices) -> ActionMatrices:
    """E, F and H conjugated by I + N, N the ones above the diagonal: H is no longer diagonal."""
    n = mats.size
    shift = np.eye(n, k=1, dtype=np.int64)
    p = np.eye(n, dtype=np.int64) + shift
    p_inv = sum(np.linalg.matrix_power(-shift, k) for k in range(n))
    assert np.array_equal(p @ p_inv, np.eye(n, dtype=np.int64))

    def conj(triples):
        mat = p @ dense(triples, n) @ p_inv
        return tuple((r, c, int(mat[r, c])) for r, c in zip(*np.nonzero(mat)))

    return dataclasses.replace(mats, e=conj(mats.e), f=conj(mats.f), h=conj(mats.h))


def test_verify_sl2_takes_the_commutators_for_an_h_that_is_not_diagonal():
    for ws, level in [((1, 1), 2), ((2, 1), 3), ((2, 2), 4)]:
        basis = build_basis(ws, level)
        mats = _conjugated(action_matrices(basis))
        assert any(r != c for r, c, _ in mats.h), ws
        assert verify_sl2(mats) is _sl2_by_commutators(mats) is dense_sl2(mats) is True, ws
        for changed in _perturbations(mats, basis, 1):
            assert verify_sl2(changed) is _sl2_by_commutators(changed), ws


def test_h_is_diagonal_and_carries_the_weight_census(default_sweep):
    for ws, level, basis in default_sweep:
        h = action_matrices(basis).h
        weights = [o.weight for o in basis.elements]
        assert all(r == c for r, c, _ in h), (ws, level)
        assert [(r, v) for r, _, v in h] == [(i, w) for i, w in enumerate(weights) if w], (
            ws,
            level,
        )


def test_isotypic_census_examples():
    assert isotypic_census(build_basis((1, 1), 1)) == {0: 1}
    assert isotypic_census(build_basis((1, 1), 2)) == {0: 1, 2: 1}
    assert isotypic_census(build_basis((1, 1, 1), 1)) == {1: 1}


def test_module_structure_matches_fusion_product():
    for r in range(1, 4):
        for ws in itertools.product(range(1, 4), repeat=r):
            for level in range(max(ws), 6):
                basis = build_basis(ws, level)
                fused = fuse_many(ws, level)
                assert isotypic_census(basis) == fused.coeffs, (ws, level)
                assert basis.dim == fused.total_dim(), (ws, level)

                census: dict[int, int] = {}
                for o in basis.elements:
                    census[o.weight] = census.get(o.weight, 0) + 1
                assert census == weight_multiplicities(fused), (ws, level)

                assert verify_sl2(action_matrices(basis)), (ws, level)


def test_action_matrices_json_roundtrip():
    mats = action_matrices(build_basis((2, 1), 3))
    assert ActionMatrices.from_json_dict(mats.to_json_dict()) == mats
    triples = mats.to_json_dict()["e"]
    assert triples == sorted(triples)


def _json_of_two_block():
    return action_matrices(build_basis((1, 1), 2)).to_json_dict()


def test_action_matrices_json_rejects_index_outside_size():
    obj = _json_of_two_block()
    obj["e"].append([-1, 0, 7])
    with pytest.raises(ValueError, match="outside"):
        ActionMatrices.from_json_dict(obj)


def test_action_matrices_json_rejects_repeated_entry():
    obj = _json_of_two_block()
    obj["f"].append(list(obj["f"][0]))
    with pytest.raises(ValueError, match="repeated"):
        ActionMatrices.from_json_dict(obj)


@pytest.mark.parametrize("size", [2, 9])
def test_action_matrices_json_rejects_size_other_than_basis_length(size):
    obj = _json_of_two_block()
    obj["size"] = size
    with pytest.raises(ValueError, match="basis labels"):
        ActionMatrices.from_json_dict(obj)


def test_action_matrices_json_sorts_triples_and_drops_zeros():
    mats = action_matrices(build_basis((1, 1), 2))
    obj = mats.to_json_dict()
    obj["e"] = list(reversed(obj["e"])) + [[3, 3, 0]]
    assert ActionMatrices.from_json_dict(obj) == mats


def test_build_basis_builds_no_oriented_match(monkeypatch):
    built = []
    original = diagrams.OrientedLowerMatch.__post_init__
    original_unchecked = diagrams.OrientedLowerMatch._unchecked

    def counting(self):
        built.append(self.downs)
        original(self)

    def counting_unchecked(base, downs):
        built.append(downs)
        return original_unchecked(base, downs)

    # Both constructors count: the checked one and the one the package uses
    # for down counts it takes from 0..mu itself.
    monkeypatch.setattr(diagrams.OrientedLowerMatch, "__post_init__", counting)
    monkeypatch.setattr(
        diagrams.OrientedLowerMatch, "_unchecked", staticmethod(counting_unchecked)
    )
    bases = [build_basis(ws, 8) for ws in SL2_BASES] + [build_basis((2, 1, 2), 3)]
    assert built == []
    # The count is live: the oriented elements are built on access, one per vector.
    assert len(bases[-1].elements) == len(built) == bases[-1].dim == 8


def _sl2_bases_every_tree():
    for ws in SL2_BASES:
        for tree in enumerate_trees(len(ws)):
            yield ws, 8, build_basis(ws, 8, tree)


def test_matches_derive_the_oriented_basis(default_sweep):
    for ws, level, basis in itertools.chain(default_sweep, _sl2_bases_every_tree()):
        elements = basis.elements
        blocks = basis.blocks()
        assert basis.dim == len(elements), (ws, level, basis.tree)
        assert blocks == walked_blocks(elements), (ws, level, basis.tree)
        census: dict[int, int] = {}
        for start, _ in blocks:
            mu = elements[start].base.mu
            census[mu] = census.get(mu, 0) + 1
        assert isotypic_census(basis) == dict(sorted(census.items())), (ws, level, basis.tree)
        labels = tuple((canonical_key(o.base), o.downs) for o in elements)
        assert action_matrices(basis).labels == labels, (ws, level, basis.tree)


@pytest.mark.parametrize(
    "ws, comb, digest",
    [
        ((4, 4, 4, 4), "left_comb", "734d4a52e13176db75eaf583793495636b772887ad989b0e389f15c6ffe55a3c"),
        ((4, 4, 4, 4), "right_comb", "da48148331cfe9e3b6f2879b82857bcc8cb75077d98d06b2760b916de0f67b5e"),
        ((3, 3, 3, 3, 3), "left_comb", "9e7935a27639cbe966032b1a93c1502534682dacc4ce6ce66492015469952924"),
        ((3, 3, 3, 3, 3), "right_comb", "a94e8a6277814d34b778a818928f0cca73c8990df6d01e1a9c57746e4e15d02c"),
    ],
)
def test_action_matrix_json_is_pinned(ws, comb, digest):
    tree = getattr(BracketTree, comb)(len(ws))
    mats = action_matrices(build_basis(ws, 8, tree))
    text = json.dumps(mats.to_json_dict(), separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
