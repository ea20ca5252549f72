"""Lattice boxes, site-set arithmetic, kernel sums, and regular deformation."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplab import (
    LatticeBox,
    box_around,
    extract_lower_bound,
    kernel_sum,
    quasi_metric_certify,
    quasi_metric_defects,
    regular_deformation,
)
from qplab.errors import PreconditionViolated, SizeOverflow, TailNotSmall
from qplab.lattice import (
    _Tiles,
    as_sites,
    canonical_sites,
    deformation_level,
    is_regular,
    pairwise_sup_dist,
    regularity_witness,
    set_contains,
    set_diameter,
    set_union,
    sets_intersect,
    site_index,
    sup_dist_sets,
    symmetric_about_origin,
)


# ---------------------------------------------------------------------------
# boxes


def test_box_integer_center():
    box = box_around(np.zeros(1), 3)
    assert box.n_sites == 7
    assert box.reach2 == 6
    assert box.diam == 6
    np.testing.assert_array_equal(box.sites.ravel(), np.arange(-3, 4))


def test_box_half_integer_center():
    # center 2.5, radius 2: sites 1..4, asymmetric around the rounded center
    box = LatticeBox((5,), 2.0)
    np.testing.assert_array_equal(box.sites.ravel(), [1, 2, 3, 4])


def test_box_2d_count_and_membership():
    box = box_around(np.zeros(2), 2)
    assert box.n_sites == 25
    sites = set(map(tuple, box.sites.tolist()))
    assert {(2, -2), (0, 0)} <= sites
    assert (3, 0) not in sites


@given(st.integers(-9, 9), st.booleans(),
       st.floats(min_value=0.5, max_value=6.0))
@settings(max_examples=60, deadline=None)
def test_box_matches_brute_force_membership(c_int, half, radius):
    center = c_int + (0.5 if half else 0.0)
    box = box_around(np.array([center]), radius)
    lo = int(math.floor(center - radius)) - 2
    hi = int(math.ceil(center + radius)) + 2
    brute = [k for k in range(lo, hi + 1)
             if 2 * abs(k - center) <= box.reach2]
    np.testing.assert_array_equal(box.sites.ravel(), brute)


def test_box_site_cap_overflow():
    with pytest.raises(SizeOverflow):
        box_around(np.zeros(3), 100, site_cap=10_000)


def test_box_negative_radius():
    with pytest.raises(ValueError):
        box_around(np.zeros(1), -1.0)


# ---------------------------------------------------------------------------
# site-set arithmetic


def test_as_sites_coercions():
    box = box_around(np.zeros(1), 1)
    np.testing.assert_array_equal(as_sites(box), [[-1], [0], [1]])
    np.testing.assert_array_equal(as_sites([3, 5]), [[3], [5]])
    with pytest.raises(ValueError):
        as_sites([0.25])


def test_canonical_sites_dedupes_and_orders():
    out = canonical_sites([[2, 0], [1, 1], [2, 0], [0, 0]])
    np.testing.assert_array_equal(out, [[0, 0], [1, 1], [2, 0]])


def test_sup_dist_sets_matches_brute_force():
    rng = np.random.default_rng(5)
    a = rng.integers(-20, 20, (7, 2))
    b = rng.integers(-20, 20, (9, 2))
    brute = min(np.max(np.abs(x - y)) for x in a for y in b)
    assert sup_dist_sets(a, b) == brute
    assert sup_dist_sets(a, np.empty((0, 2), dtype=np.int64)) == math.inf


def test_pairwise_sup_dist_half_integer_frame():
    frame = np.array([[-0.5], [0.5], [1.5]])
    d = pairwise_sup_dist(frame)
    np.testing.assert_allclose(d, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])


def test_set_predicates():
    a = [[0], [1], [2]]
    assert sets_intersect(a, [[2], [7]])
    assert not sets_intersect(a, [[5]])
    assert set_contains(a, [[0], [2]])
    assert not set_contains(a, [[3]])
    assert set_contains(a, np.empty((0, 1), dtype=np.int64))
    assert set_diameter(a) == 2
    assert symmetric_about_origin([[-1], [0], [1]])
    assert not symmetric_about_origin([[0], [1]])


def _site_sets(dim: int):
    """Small sets, possibly empty, each shifted by its own offset of 0 or
    +-1e4 per axis, so joint frames are as sparse as the block toys'."""
    rows = st.lists(st.tuples(*[st.integers(-5, 5)] * dim), max_size=10)
    shift = st.tuples(*[st.sampled_from((0, 0, -10 ** 4, 10 ** 4))] * dim)
    return st.tuples(rows, shift).map(
        lambda rs: np.asarray(rs[0], dtype=np.int64).reshape(-1, dim)
        + np.asarray(rs[1], dtype=np.int64))


def _oracle(sites) -> set:
    return {tuple(int(v) for v in row) for row in sites}


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_set_layer_matches_tuple_oracle(data):
    dim = data.draw(st.integers(1, 3))
    a, b = data.draw(_site_sets(dim)), data.draw(_site_sets(dim))
    ta, tb = _oracle(a), _oracle(b)
    assert sets_intersect(a, b) == bool(ta & tb)
    assert set_contains(a, b) == (tb <= ta)
    assert list(map(tuple, canonical_sites(a).tolist())) == sorted(ta)
    arg = canonical_sites(a)
    out = canonical_sites(arg)
    arg += 1
    assert list(map(tuple, out.tolist())) == sorted(ta)
    union = set_union(a, b)
    assert union.shape == (len(ta | tb), dim)
    assert list(map(tuple, union.tolist())) == sorted(ta | tb)
    mirrored = {tuple(-c for c in p) for p in ta}
    assert symmetric_about_origin(a) == (mirrored == ta)
    assert symmetric_about_origin(np.concatenate([a, -a]))
    inside = b[[tuple(r) in ta for r in b.tolist()]]
    assert a[site_index(a, inside)].tolist() == inside.tolist()
    missing = [tuple(r) for r in b.tolist() if tuple(r) not in ta]
    if missing:
        with pytest.raises(KeyError, match=re.escape(str(missing[0]))):
            site_index(a, b)

    n = data.draw(st.integers(0, 4))
    tiles = [data.draw(_site_sets(dim)) for _ in range(n)]
    triggers = [data.draw(_site_sets(dim)) for _ in range(n)]
    closed, taken, _ = _Tiles(tiles, triggers).absorb(a)
    want, took = set(ta), set()
    grew = True
    while grew:
        grew = False
        for i in range(n):
            if i not in took and _oracle(triggers[i]) & want:
                took.add(i)
                grew |= not _oracle(tiles[i]) <= want
                want |= _oracle(tiles[i])
    assert list(map(tuple, closed.tolist())) == sorted(want)
    assert set(taken) == took
    cut = [i for i, t in enumerate(tiles)
           if _oracle(t) & ta and not _oracle(t) <= ta]
    assert _Tiles(tiles).first_cut(a) == (cut[0] if cut else None)
    assert _Tiles([t for i, t in enumerate(tiles)
                   if i in took]).first_cut(closed) is None

    # permuting tiles and triggers together moves no site, take or cut
    perm = data.draw(st.permutations(range(n)))
    closed_p, taken_p, _ = _Tiles([tiles[i] for i in perm],
                                  [triggers[i] for i in perm]).absorb(a)
    assert closed_p.tolist() == closed.tolist()
    assert {perm[j] for j in taken_p} == took
    first_p = _Tiles([tiles[i] for i in perm]).first_cut(a)
    assert first_p == next((j for j, i in enumerate(perm) if i in cut), None)


def test_set_layer_survives_frames_past_int64():
    # the joint box of these rows has more than 2**63 cells, so the keys
    # fall back to per-axis coordinate ranks
    far = [[3_000_000] * 3]
    assert not sets_intersect([[0, 0, 0]], far)
    assert set_contains([[0, 0, 0]] + far, far)
    np.testing.assert_array_equal(set_union(far, [[0, 0, 0]]),
                                  [[0, 0, 0], [3_000_000] * 3])
    np.testing.assert_array_equal(site_index(far + [[0, 0, 0]], far), [0])
    tiles = [[[0, 0, 0]] + far, [[3_000_000, 0, 3_000_000]]]
    closed, taken, rounds = _Tiles(tiles).absorb([[5, 5, 5], [0, 0, 0]])
    np.testing.assert_array_equal(closed, [[0, 0, 0], [5, 5, 5]] + far)
    assert (taken, rounds) == ([0], 2)
    assert _Tiles(tiles).first_cut([[0, 0, 0], [5, 5, 5]]) == 0
    assert _Tiles(tiles).first_cut(closed) is None


# ---------------------------------------------------------------------------
# kernel sums


def test_kernel_sum_matches_brute_force_1d():
    ks = kernel_sum(1.0, 2.0, 1, 30)
    ks_far = kernel_sum(1.0, 2.0, 1, 3000)
    kk = np.arange(-30, 31)
    brute = float(np.sum(np.exp(-np.log1p(np.abs(kk)) ** 2)))
    assert ks.value == pytest.approx(brute, rel=1e-12)
    # partial sum underestimates, partial + tail dominates
    assert ks.value <= ks_far.value <= ks.value + ks.tail_bound


def test_kernel_sum_2d_tail_dominates_refinement():
    ks = kernel_sum(1.5, 2.0, 2, 40)
    ks_far = kernel_sum(1.5, 2.0, 2, 400)
    assert ks.value <= ks_far.value <= ks.value + ks.tail_bound


@pytest.mark.parametrize("eta, dim, cutoff", [(1.0, 1, 30), (1.5, 2, 40)])
def test_kernel_sum_tail_bounds_a_million_more_shells(eta, dim, cutoff):
    ks = kernel_sum(eta, 2.0, dim, cutoff)
    # the sites of ||k|| <= cutoff one by one, then 10^6 more shells, shell
    # m of Z^2 holding 8m sites
    axes = np.meshgrid(*[np.arange(-cutoff, cutoff + 1)] * dim)
    norm = np.max(np.abs(np.stack(axes)), axis=0).astype(float)
    inner = float(np.sum(np.exp(-eta * np.log1p(norm) ** 2)))
    m = np.arange(cutoff + 1, cutoff + 10**6 + 1, dtype=float)
    extra = float(np.sum((2.0 if dim == 1 else 8.0 * m)
                         * np.exp(-eta * np.log1p(m) ** 2)))
    assert ks.value == pytest.approx(inner, rel=1e-12)
    assert inner + extra <= ks.value + ks.tail_bound
    # and the closed form is not loose: it is below twice the tail it bounds
    assert ks.tail_bound <= 2.0 * extra


def test_kernel_sum_monotone_in_eta():
    lo = kernel_sum(0.8, 2.0, 1, 100)
    hi = kernel_sum(1.6, 2.0, 1, 100)
    assert hi.value + hi.tail_bound < lo.value


def test_kernel_sum_preconditions():
    with pytest.raises(PreconditionViolated):
        kernel_sum(0.0, 2.0, 1, 10)
    with pytest.raises(PreconditionViolated):
        kernel_sum(1.0, 1.0, 1, 10)
    with pytest.raises(PreconditionViolated):
        kernel_sum(1.0, 2.0, 1, 0)


def test_kernel_sum_rejects_cutoff_before_majorant_decreases():
    # kappa = eta rho log^(rho-1)(1 + cutoff) - d is -1.31 and -0.307
    with pytest.raises(TailNotSmall, match="kappa"):
        kernel_sum(0.5, 2.0, 2, 1)
    with pytest.raises(TailNotSmall, match="kappa"):
        kernel_sum(0.5, 2.0, 1, 1)
    # kappa = 0.109 > 0, but the tail bound exceeds the partial sum
    with pytest.raises(TailNotSmall, match="exceeds the partial sum"):
        kernel_sum(0.8, 2.0, 1, 1)


# ---------------------------------------------------------------------------
# quasi-metric certificate


def test_quasi_metric_certificate_is_deterministic():
    a = quasi_metric_certify(2.0, 100, budget=200_000, seed=3)
    b = quasi_metric_certify(2.0, 100, budget=200_000, seed=3)
    assert a == b
    assert a.c_hat > 0.0


def test_quasi_metric_certificate_dominates_fresh_samples():
    cert = quasi_metric_certify(2.0, 100, seed=11)
    rng = np.random.default_rng(909)
    for n in (2, 3, 7, 50, 100):
        x = np.exp(rng.uniform(math.log(1e-3), math.log(1e4), size=(4000, n)))
        assert float(quasi_metric_defects(x, 2.0).max()) <= cert.c_hat
        y = rng.uniform(0.05, 4.0, size=(4000, n))
        assert float(quasi_metric_defects(y, 2.0).max()) <= cert.c_hat


def test_quasi_metric_defect_closed_form():
    # n = 2, x = y = 3: (log^2 7 - 2 log^2 4) / log^2 2
    x = np.array([[3.0, 3.0]])
    expected = (math.log(7.0) ** 2 - 2.0 * math.log(4.0) ** 2) \
        / math.log(2.0) ** 2
    assert quasi_metric_defects(x, 2.0)[0] == pytest.approx(expected)


def test_quasi_metric_preconditions():
    with pytest.raises(PreconditionViolated):
        quasi_metric_certify(1.0, 10)
    with pytest.raises(PreconditionViolated):
        quasi_metric_certify(2.0, 1)
    with pytest.raises(PreconditionViolated):
        quasi_metric_defects(np.array([[1.0, -1.0]]), 2.0)
    with pytest.raises(PreconditionViolated):
        quasi_metric_defects(np.array([1.0, 2.0]), 2.0)


# ---------------------------------------------------------------------------
# extract inequality


def test_extract_lower_bound_frozen_value():
    got = extract_lower_bound(1000.0, 3.0, 2.0)
    l = math.log(1001.0)
    assert got == pytest.approx((1.0 - 12.0 / (1001.0 * l)) * l ** 2)
    assert got <= math.log(998.0) ** 2


@given(st.floats(min_value=0.5, max_value=1e6),
       st.floats(min_value=1e-6, max_value=0.999),
       st.floats(min_value=1.1, max_value=3.0))
@settings(max_examples=200, deadline=None)
def test_extract_lower_bound_is_a_lower_bound(x, frac, rho):
    y = frac * min(x, (1.0 + x) / 2.0) * 0.999
    if not (x > y > 0 and 1 + x > 2 * y):
        return
    bound = extract_lower_bound(x, y, rho)
    assert bound <= math.log1p(x - y) ** rho * (1 + 1e-12) + 1e-12


def test_extract_lower_bound_preconditions():
    with pytest.raises(PreconditionViolated):
        extract_lower_bound(2.0, 3.0, 2.0)
    with pytest.raises(PreconditionViolated):
        extract_lower_bound(2.0, 2.0, 2.0)
    with pytest.raises(PreconditionViolated):
        extract_lower_bound(3.0, 2.5, 2.0)
    with pytest.raises(PreconditionViolated):
        extract_lower_bound(3.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# regular deformation


def test_deformation_no_trigger_leaves_seed():
    level = deformation_level(1, {(5.0,): [[4], [5], [6]]}, 1.0)
    seed = [[0], [1], [2]]
    out, rep = regular_deformation(seed, [level])
    np.testing.assert_array_equal(out, as_sites(seed))
    assert rep.realized_pad == 0.0
    assert rep.absorbed == ()
    assert is_regular(out, [level])


def test_deformation_absorbs_touching_block():
    level = deformation_level(1, {(3.0,): [[2], [3], [4]],
                                  (6.0,): [[5], [6], [7]]}, 1.0)
    out, rep = regular_deformation([[0], [1], [2]], [level])
    np.testing.assert_array_equal(out.ravel(), [0, 1, 2, 3, 4])
    assert rep.absorbed == ((1, (6,)),)
    assert rep.realized_pad == 2.0
    assert rep.seed_size == 3 and rep.final_size == 5
    assert is_regular(out, [level])


def test_deformation_cascades_across_scales():
    # scale-1 growth re-exposes the scale-2 block on the second pass
    lev1 = deformation_level(1, {(1.5,): [[1], [2]]}, test_radius=2.0)
    lev2 = deformation_level(2, {(5.0,): [[4], [5], [6]]}, test_radius=3.0)
    out, rep = regular_deformation([[0]], [lev1, lev2])
    np.testing.assert_array_equal(out.ravel(), [0, 1, 2, 4, 5, 6])
    assert rep.passes >= 2
    assert {k[0] for k in rep.absorbed} == {1, 2}


def test_deformation_long_chain_closes():
    # each round takes only the next block of the chain, so the fixpoint
    # is reached on the 71st pass, past any fixed budget below that
    level = deformation_level(1, {(2 * k + 1.5,): [[2 * k + 1], [2 * k + 2]]
                                  for k in range(70)}, test_radius=1.5)
    out, rep = regular_deformation([[0]], [level])
    np.testing.assert_array_equal(out.ravel(), np.arange(141))
    assert len(rep.absorbed) == 70 and rep.passes == 71
    assert is_regular(out, [level])


def test_regularity_witness_names_the_cut_block():
    level = deformation_level(1, {(3.0,): [[2], [3], [4]]}, 1.0)
    assert regularity_witness([[0], [1], [2]], [level]) == (1, (6,))
    assert regularity_witness([[0], [1]], [level]) is None
    assert not is_regular([[2], [3]], [level])
