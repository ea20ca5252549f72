"""Lattice boxes, site-set arithmetic, kernel sums, and regularizing closures.

Boxes are sup-norm balls ``{k in Z^d : ||k - c|| <= L}`` whose centers may sit
on the half-integer lattice.  Centers are stored as doubled integers so that
membership is exact integer arithmetic; a site ``k`` belongs to the box iff
``max_i |2 k_i - c2_i| <= floor(2L)``.

A site set has one representation: the canonical ``(n, d)`` int64 array
returned by ``canonical_sites``, rows deduplicated and in lexicographic
order.  Every set operation lives here and works on that form.  A primitive
encodes its sets once per call, as row-major int64 keys on one joint
bounding box (``_Frame``), and tests membership by ``searchsorted`` on the
sorted side; a box too large for int64 keys each axis by the ranks of its
coordinates.  The block layer in ``qplab.msa`` keys once per block
construction or check instead, and works on sorted keys throughout.  The
helpers are unit-agnostic: they work equally on plain sites and on
doubled half-lattice coordinates, as long as both arguments use the same
convention.

One fixpoint, ``_Tiles.absorb``, adjoins tiles to a set, with two
triggers: block construction in ``qplab.msa`` absorbs a lower-scale
enlarged block when the block itself meets the set (intersection trigger),
and ``regular_deformation`` absorbs one when the box of its test radius
meets the set (neighbourhood trigger).  The closure checkers test the
intersection clause through a separate witness, ``_Tiles.first_cut``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import PreconditionViolated, SizeOverflow, TailNotSmall

DEFAULT_SITE_CAP = 2_000_000


def _center2_from(center) -> tuple[int, ...]:
    arr = np.atleast_1d(np.asarray(center, dtype=float))
    if arr.ndim != 1:
        raise ValueError("box center must be a scalar or a flat vector")
    return tuple(as_sites(2.0 * arr).ravel().tolist())


@dataclass(frozen=True)
class LatticeBox:
    """Integer sites within sup-distance ``radius`` of a half-lattice center."""

    center2: tuple[int, ...]
    radius: float

    @property
    def dim(self) -> int:
        return len(self.center2)

    @property
    def center(self) -> np.ndarray:
        return np.asarray(self.center2, dtype=float) / 2.0

    @property
    def reach2(self) -> int:
        """Doubled sup-distance actually admitted: floor(2 * radius)."""
        return math.floor(2.0 * self.radius)

    @cached_property
    def axis_ranges(self) -> tuple[tuple[int, int], ...]:
        m = self.reach2
        out = []
        for c2 in self.center2:
            lo = -((m - c2) // 2)
            hi = (c2 + m) // 2
            out.append((lo, hi))
        return tuple(out)

    @property
    def n_sites(self) -> int:
        n = 1
        for lo, hi in self.axis_ranges:
            if hi < lo:
                return 0
            n *= hi - lo + 1
        return n

    @cached_property
    def sites(self) -> np.ndarray:
        """All member sites, shape (n, d), lexicographically ordered."""
        if self.n_sites == 0:
            return np.empty((0, self.dim), dtype=np.int64)
        axes = [np.arange(lo, hi + 1, dtype=np.int64)
                for lo, hi in self.axis_ranges]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    @property
    def diam(self) -> int:
        if self.n_sites == 0:
            return 0
        return max(hi - lo for lo, hi in self.axis_ranges)


def box_around(center, radius, *, site_cap: int = DEFAULT_SITE_CAP) -> LatticeBox:
    """Construct the sup-norm box of the given radius around ``center``.

    Raises
    ------
    SizeOverflow
        If enumerating the box would exceed ``site_cap`` sites.
    """
    if radius < 0:
        raise ValueError("box radius must be nonnegative")
    box = LatticeBox(_center2_from(center), float(radius))
    if box.n_sites > site_cap:
        raise SizeOverflow(
            f"box would hold {box.n_sites} sites (cap {site_cap})")
    return box


# ---------------------------------------------------------------------------
# site-set arithmetic


def as_sites(obj, dim: int | None = None) -> np.ndarray:
    """Coerce a box, array, or iterable of vectors to an (n, d) int array; a
    flat sequence is a column of sites in d = 1.  With ``dim``, a width
    other than ``dim`` raises PreconditionViolated."""
    arr = obj.sites if isinstance(obj, LatticeBox) else np.asarray(obj)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.size and arr.dtype.kind not in "iu":
        out = np.rint(arr)
        if np.max(np.abs(arr - out)) > 1e-9:
            raise ValueError("site coordinates must be integers")
        arr = out
    if dim is not None and arr.shape[-1] != dim:
        raise PreconditionViolated(
            f"sites have width {arr.shape[-1]}, the model's dimension is "
            f"{dim}")
    return arr.reshape(-1, arr.shape[-1]).astype(np.int64, copy=False)


class _Frame:
    """Row-major int64 keys of sites on the bounding box of some rows.

    Keys order like the rows do lexicographically, so sorting keys sorts
    sites.  A box of 2**63 cells or more is compressed on each axis to the
    ranks of the coordinates the rows hold there, which keeps that order;
    on an uncompressed one (``axes`` None, ``size`` cells) keys are affine
    in the coordinates.
    """

    def __init__(self, rows: np.ndarray):
        self.lo = rows.min(axis=0)
        shape = [h - l + 1 for l, h in zip(self.lo.tolist(),
                                           rows.max(axis=0).tolist())]
        self.axes = None
        if math.prod(shape) >= 2 ** 63:
            self.axes = [np.unique(col) for col in rows.T]
            shape = [a.size for a in self.axes]
            if math.prod(shape) >= 2 ** 63:
                raise SizeOverflow("site set too wide and sparse to key")
        self.size = math.prod(shape)
        self.shape = np.asarray(shape)
        self.strides = np.asarray([math.prod(shape[i + 1:])
                                   for i in range(len(shape))])

    def _index(self, rows: np.ndarray) -> np.ndarray:
        if self.axes is None:
            return rows - self.lo
        return np.stack([np.searchsorted(a, col)
                         for a, col in zip(self.axes, rows.T)], axis=1)

    def _coords(self, idx: np.ndarray) -> np.ndarray:
        if self.axes is None:
            return idx + self.lo
        return np.stack([a[i] for a, i in zip(self.axes, idx.T)], axis=1)

    def keys(self, rows: np.ndarray) -> np.ndarray:
        """Keys of rows that lie in the frame."""
        return self._index(rows) @ self.strides

    def split(self, rows: np.ndarray):
        """(keys of the rows that lie in the frame, the other rows)."""
        idx = np.minimum(np.maximum(self._index(rows), 0), self.shape - 1)
        inside = (self._coords(idx) == rows).all(axis=1)
        return idx[inside] @ self.strides, rows[~inside]

    def sites(self, keys: np.ndarray) -> np.ndarray:
        return self._coords(keys[:, None] // self.strides % self.shape)

    def box_keys(self, box: LatticeBox) -> np.ndarray:
        """Sorted keys of the sites of ``box``, which the frame holds."""
        return functools.reduce(np.add.outer, [
            (np.arange(lo, hi + 1) - l) * st for (lo, hi), l, st in zip(
                box.axis_ranges, self.lo.tolist(), self.strides.tolist())
        ]).ravel()


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct keys (``np.unique`` costs ten times more here)."""
    keys = np.sort(keys)
    return np.concatenate([keys[:1], keys[1:][keys[1:] != keys[:-1]]])


def _member(keys: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Mask of the ``keys`` that the sorted ``table`` holds."""
    if table.size == 0:
        return np.zeros(keys.shape, dtype=bool)
    return table.take(np.searchsorted(table, keys), mode="clip") == keys


def canonical_sites(sites) -> np.ndarray:
    """Deduplicated sites in lexicographic order, never an alias of the
    argument; already canonical rows are copied without re-sorting."""
    arr = as_sites(sites)
    if arr.shape[0] == 0:
        return arr
    frame = _Frame(arr)
    keys = frame.keys(arr)
    if (keys[1:] > keys[:-1]).all():
        return arr.copy()
    return frame.sites(_distinct(keys))


def site_index(sites, rows) -> np.ndarray:
    """Positions in ``sites`` of each row of ``rows``.

    Raises KeyError naming the first row that ``sites`` does not hold.
    """
    sites, rows = as_sites(sites), as_sites(rows)
    if rows.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    if sites.shape[0] == 0:
        raise KeyError(f"site {tuple(rows[0].tolist())} is not in the set")
    frame = _Frame(np.concatenate([sites, rows]))
    keys, want = frame.keys(sites), frame.keys(rows)
    order = np.argsort(keys, kind="stable")
    pos = order.take(np.searchsorted(keys, want, sorter=order), mode="clip")
    miss = keys[pos] != want
    if miss.any():
        row = rows[int(np.argmax(miss))]
        raise KeyError(f"site {tuple(row.tolist())} is not in the set")
    return pos


def site_tuples(sites) -> set:
    """Hashable keys of the sites, for dictionaries keyed by site.

    Kept for the benchmark tracer, which wraps it; no qplab code calls it.
    """
    return {tuple(int(v) for v in row) for row in as_sites(sites)}


def sup_dist_sets(a, b) -> float:
    """min over pairs of the sup-norm distance; +inf when a side is empty."""
    a, b = as_sites(a), as_sites(b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return math.inf
    # the pair nearest the other side's bounding box bounds the minimum; a
    # site farther than that from the other box is in no closest pair
    ga = np.maximum(b.min(axis=0) - a, a - b.max(axis=0)).max(axis=1)
    gb = np.maximum(a.min(axis=0) - b, b - a.max(axis=0)).max(axis=1)
    bound = np.abs(a[ga.argmin()] - b[gb.argmin()]).max()
    a, b = a[ga <= bound], b[gb <= bound]
    best = math.inf
    chunk = max(1, int(4_000_000 // max(1, b.shape[0])))
    for start in range(0, a.shape[0], chunk):
        block = a[start:start + chunk]
        d = np.abs(block[:, None, :] - b[None, :, :]).max(axis=2)
        best = min(best, float(d.min()))
        if best == 0:
            return 0.0
    return best


def pairwise_sup_dist(a, b=None) -> np.ndarray:
    """(n, m) matrix of sup-norm distances; accepts half-integer frames."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = a if b is None else np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((a.shape[0], b.shape[0]))
    return np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)


def sup_distance_classes(sites) -> tuple:
    """``(order, starts, radii)``: ``order`` lists the flat pair indices of
    ``sites`` by sup-distance, class ``k`` at distance ``radii[k]`` starts
    at ``starts[k]``."""
    dist = pairwise_sup_dist(sites).astype(np.int64).ravel()
    # int32 indices: the dense cap keeps n^2 below 2^31
    order = np.argsort(dist, kind="stable").astype(np.int32)
    dist = dist[order]
    starts = np.flatnonzero(np.r_[True, dist[1:] != dist[:-1]])
    return order, starts, dist[starts]


def sets_intersect(a, b) -> bool:
    """Whether the site sets share a site.

    Kept for the benchmark tracer, which wraps it; no qplab code calls it.
    """
    a, b = as_sites(a), as_sites(b)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return False
    frame = _Frame(np.concatenate([a, b]))
    return bool(_member(frame.keys(a), np.sort(frame.keys(b))).any())


def set_contains(outer, inner) -> bool:
    """True iff every site of ``inner`` belongs to ``outer``."""
    inner, outer = as_sites(inner), as_sites(outer)
    if inner.shape[0] == 0:
        return True
    if outer.shape[0] == 0:
        return False
    frame = _Frame(np.concatenate([inner, outer]))
    return bool(_member(frame.keys(inner), np.sort(frame.keys(outer))).all())


def set_union(*sets) -> np.ndarray:
    """Canonical union of site sets of one dimension."""
    return canonical_sites(np.concatenate([as_sites(a) for a in sets]))


def set_diameter(sites) -> int:
    arr = as_sites(sites)
    if arr.shape[0] == 0:
        return 0
    return int((arr.max(axis=0) - arr.min(axis=0)).max())


def symmetric_about_origin(sites) -> bool:
    """True iff the set is invariant under coordinate negation."""
    arr = canonical_sites(sites)
    return bool(np.array_equal(arr, canonical_sites(-arr)))


# ---------------------------------------------------------------------------
# kernel sum D(eta)


@dataclass(frozen=True)
class KernelSum:
    """The sum ``D(eta)`` of ``exp(-eta * log^rho(1 + ||k||))`` over ``Z^d``.

    ``value`` sums the shells ``||k|| <= cutoff`` and so underestimates
    ``D(eta)``; ``value + tail_bound`` dominates it.  With ``u0 = log(1 +
    cutoff)`` and ``kappa = eta rho u0^(rho-1) - d > 0``, ``tail_bound =
    2d 2^(d-1) exp(d u0 - eta u0^rho) / kappa`` in closed form.
    """

    eta: float
    rho: float
    dim: int
    cutoff: int
    value: float
    tail_bound: float


def kernel_sum(eta: float, rho: float, dim: int, cutoff: int) -> KernelSum:
    if eta <= 0:
        raise PreconditionViolated("eta must be positive")
    if rho <= 1:
        raise PreconditionViolated("rho must exceed 1")
    if cutoff < 1:
        raise PreconditionViolated("cutoff must be at least 1")

    m = np.arange(1, cutoff + 1, dtype=np.float64)
    counts = (2 * m + 1) ** dim - (2 * m - 1) ** dim
    value = 1.0 + float(np.sum(counts * np.exp(-eta * np.log1p(m) ** rho)))

    # Shell m > cutoff holds (2m+1)^d - (2m-1)^d <= 2d 2^(d-1) (1+m)^(d-1)
    # sites.  In u = log(1+m) that majorant times dm is 2d 2^(d-1) e^phi(u) du
    # with phi(u) = d u - eta u^rho concave, so phi(u) <= phi(u0) - kappa
    # (u - u0).  kappa > 0 also makes the majorant decreasing past the
    # cutoff, so the shells sum to at most its integral.
    u0 = math.log1p(cutoff)
    kappa = eta * rho * u0 ** (rho - 1) - dim
    if kappa <= 0.0:
        raise TailNotSmall(
            f"cutoff too small: kappa = {kappa:.3g} is not positive")
    tail_bound = (2 * dim * 2 ** (dim - 1)
                  * math.exp(dim * u0 - eta * u0 ** rho) / kappa)
    if tail_bound > value:
        raise TailNotSmall(
            f"tail bound {tail_bound:.3e} exceeds the partial sum {value:.3e}")
    return KernelSum(float(eta), float(rho), int(dim), int(cutoff),
                     value, tail_bound)


# ---------------------------------------------------------------------------
# quasi-metric certificate


@dataclass(frozen=True)
class QuasiMetricCert:
    """Empirical constant for log^rho(1+sum x) <= sum log^rho(1+x) + C log^rho n."""

    rho: float
    n_max: int
    budget: int
    seed: int
    c_hat: float
    worst_n: int
    worst_config: tuple[float, ...]


def _qm_defect(x: np.ndarray, rho: float) -> np.ndarray:
    n = x.shape[1]
    lhs = np.log1p(x.sum(axis=1)) ** rho
    rhs = (np.log1p(x) ** rho).sum(axis=1)
    return (lhs - rhs) / math.log(n) ** rho


def quasi_metric_certify(rho: float, n_max: int, budget: int = 10 ** 6,
                         seed: int = 0) -> QuasiMetricCert:
    """Search for the worst quasi-metric defect over random and structured tuples.

    The sample plan mixes log-uniform clouds, near-unit clouds (where the
    maximizer for rho=2 lives), equal tuples, one-dominant tuples, and
    geometric ladders, then polishes the incumbent with multiplicative
    jitter.  The certificate is empirical by design; exhausting the budget is
    the only stopping rule.
    """
    if rho <= 1:
        raise PreconditionViolated("rho must exceed 1")
    if n_max < 2:
        raise PreconditionViolated("n_max must be at least 2")

    rng = np.random.default_rng(seed)
    sizes = sorted(set(range(2, min(n_max, 16) + 1))
                   | {n_max}
                   | {int(v) for v in np.geomspace(2, n_max, 8)})
    spent = 0
    best = -math.inf
    best_x = None
    best_n = 2
    per_size = max(64, budget // (len(sizes) * 6))

    for n in sizes:
        batches = []
        b = per_size
        batches.append(np.exp(rng.uniform(math.log(1e-3), math.log(1e4),
                                          size=(b, n))))
        batches.append(rng.uniform(0.05, 4.0, size=(b, n)))
        t = np.geomspace(1e-3, 1e4, b)
        batches.append(np.repeat(t[:, None], n, axis=1))
        dom = rng.uniform(0.05, 4.0, size=(b, n))
        dom[:, 0] = np.geomspace(1.0, 1e4, b)
        batches.append(dom)
        ratios = rng.uniform(1.05, 3.0, size=b)
        base = rng.uniform(0.05, 2.0, size=b)
        batches.append(base[:, None] * ratios[:, None]
                       ** np.arange(n)[None, :])
        for x in batches:
            d = _qm_defect(x, rho)
            spent += x.shape[0]
            i = int(np.argmax(d))
            if d[i] > best:
                best, best_x, best_n = float(d[i]), x[i].copy(), n

    # polish the incumbent with what is left of the budget
    while spent < budget and best_x is not None:
        b = min(4096, budget - spent)
        jitter = best_x[None, :] * np.exp(
            rng.normal(0.0, 0.05, size=(b, best_n)))
        d = _qm_defect(jitter, rho)
        spent += b
        i = int(np.argmax(d))
        if d[i] > best:
            best, best_x = float(d[i]), jitter[i].copy()

    c_hat = max(0.0, best)
    worst = tuple(float(v) for v in best_x) if best_x is not None else ()
    return QuasiMetricCert(float(rho), int(n_max), int(spent), int(seed),
                           c_hat, int(best_n), worst)


def quasi_metric_defects(samples: np.ndarray, rho: float) -> np.ndarray:
    """Defect of each row of an (m, n) positive array; used by the suites."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[1] < 2:
        raise PreconditionViolated("need an (m, n) array with n >= 2")
    if np.any(samples <= 0):
        raise PreconditionViolated("tuple entries must be positive")
    return _qm_defect(samples, rho)


# ---------------------------------------------------------------------------
# extract inequality


def extract_lower_bound(x, y, rho):
    """Certified lower bound for ``log^rho(1 + x - y)``, elementwise.

    Returns ``(1 - 2 rho y / ((1+x) log(1+x))) * log^rho(1+x)`` under the
    admissibility conditions ``x > y > 0`` and ``1 + x > 2y``, which every
    element must meet.
    """
    x, y, rho = (np.asarray(v, dtype=float) for v in (x, y, rho))
    if not np.all(rho > 1):
        raise PreconditionViolated("rho must exceed 1")
    if not np.all((x > y) & (y > 0)):
        raise PreconditionViolated("need x > y > 0")
    if not np.all(1 + x > 2 * y):
        raise PreconditionViolated("need 1 + x > 2y")
    log1px = np.log1p(x)
    return (1.0 - 2.0 * rho * y / ((1.0 + x) * log1px)) * log1px ** rho


# ---------------------------------------------------------------------------
# regularizing deformation


@dataclass(frozen=True)
class DeformationLevel:
    """One scale of enlarged blocks available for absorption.

    ``blocks`` maps half-lattice centers (doubled integers) to integer site
    arrays.  ``test_reach2`` is the doubled radius of the neighborhood whose
    intersection with the working set triggers absorption.
    """

    scale: int
    blocks: tuple
    test_reach2: int


def deformation_level(scale: int, blocks: Mapping | Iterable,
                      test_radius: float) -> DeformationLevel:
    """A level from ``{center: sites}`` or ``(center, sites)`` pairs.

    Centers are the blocks' true half-lattice centers (not doubled keys);
    the level stores them doubled.
    """
    items = blocks.items() if isinstance(blocks, Mapping) else blocks
    packed = []
    for center, sites in items:
        packed.append((_center2_from(center), canonical_sites(sites)))
    packed.sort(key=lambda kv: kv[0])
    return DeformationLevel(int(scale), tuple(packed),
                            int(math.floor(2.0 * float(test_radius))))


@dataclass(frozen=True)
class DeformationReport:
    passes: int
    absorbed: tuple
    realized_pad: float
    seed_size: int
    final_size: int


class _Tiles:
    """Tiles, and the triggers that adjoin them, keyed once on one frame.

    The frame spans the tile and trigger rows only: a site outside it meets
    none of them, so a set splits into the keys of its rows inside and the
    rows outside, which no step touches.  Key ``j`` belongs to tile
    ``owner[j]``; without triggers every tile is its own trigger.

    The two closure callers use different triggers.  ``construct_blocks``
    passes none (intersection trigger: a lower-scale enlarged block that
    meets a block is swallowed).  ``regular_deformation`` passes the box of
    each block's test radius around its center (neighbourhood trigger).
    When the test radius reaches the block's realized radius, as it does in
    the levels ``deformation_levels`` builds, that box covers the block:
    the neighbourhood closure then also satisfies the intersection clause,
    and may absorb blocks that only come near the set.  Both checkers test
    the intersection clause alone, through ``first_cut``.  Whether the
    paper means the two rules to differ is open: ``PAPER.md`` holds only
    the abstract, which does not state the absorption rules.
    """

    def __init__(self, tiles: Sequence, triggers: Sequence | None = None,
                 frame: _Frame | None = None, lanes=(0,)):
        # a given frame holds every tile and trigger row.  lanes[i] shifts
        # the keys of copy i of the tiles, whose tile j is tile
        # i * len(tiles) + j, so that ``close`` and ``first_cut_keys`` treat
        # sets side by side in those key lanes at once
        tiles = [as_sites(t) for t in tiles]
        trigs = tiles if triggers is None else [as_sites(t) for t in triggers]
        self.sizes = np.asarray([t.shape[0] for t in tiles] * len(lanes))
        rows = [t for t in tiles + trigs if t.shape[0]]
        if frame is None and rows:
            frame = _Frame(np.concatenate(rows))
        self.frame, lanes = frame, np.asarray(lanes)
        self.keys, self.owner = self._stack(tiles, lanes)
        self.trig_keys, self.trig_owner = ((self.keys, self.owner)
                                           if triggers is None
                                           else self._stack(trigs, lanes))

    def _stack(self, arrays: list, lanes: np.ndarray):
        sizes = [a.shape[0] for a in arrays]
        keys = (self.frame.keys(np.concatenate(arrays)) if sum(sizes)
                else np.empty(0, dtype=np.int64))
        owner = np.repeat(np.arange(len(arrays)), sizes)
        return ((keys + lanes[:, None]).ravel(),
                (owner + len(arrays) * np.arange(lanes.size)[:, None]).ravel())

    def absorb(self, sites):
        """Least superset of ``sites`` that holds every tile whose trigger
        meets it: ``close`` on the keys of the rows inside the frame, while
        the rows outside, which meet no trigger, pass through.  Returns the
        closed canonical set and what ``close`` returns besides."""
        seed = as_sites(sites)
        if self.trig_keys.size == 0 or seed.shape[0] == 0:
            return canonical_sites(seed), [], 1
        current, outside = self.frame.split(seed)
        current, taken, rounds = self.close(_distinct(current))
        closed = self.frame.sites(current)
        return (canonical_sites(np.concatenate([closed, outside]))
                if outside.shape[0] else closed), taken, rounds

    def close(self, current: np.ndarray, free: np.ndarray | None = None):
        """The fixpoint of ``absorb`` on sorted distinct keys; ``free``
        masks the tiles to test and is updated in place, so a caller whose
        set only grows may pass it again to skip the tiles already taken.

        A round tests every tile not yet taken against the set as it stood
        when the round began, so the closure does not depend on the order of
        the tiles; that order only orders the taken indices within a round.
        Every round but the last takes a tile, so the fixpoint is reached
        within ``len(tiles) + 1`` rounds.

        Returns the closed keys, the indices of the taken tiles in the order
        taken, and the number of rounds including the last, which adds no
        site.
        """
        taken = []
        if self.trig_keys.size == 0:
            return current, taken, 1
        if free is None:
            free = np.ones(self.sizes.size, dtype=bool)
        for rounds in range(1, self.sizes.size + 2):
            hit = free & (np.bincount(self.trig_owner[_member(
                self.trig_keys, current)], minlength=free.size) > 0)
            if not hit.any():
                break
            free &= ~hit
            taken += np.flatnonzero(hit).tolist()
            grown = _distinct(np.concatenate([current,
                                              self.keys[hit[self.owner]]]))
            if grown.size == current.size:
                break
            current = grown
        return current, taken, rounds

    def first_cut(self, sites) -> int | None:
        """Index of the first tile that meets ``sites`` without lying inside
        it, or None: the closure witness, which shares the keys of
        ``absorb`` but not its fixpoint loop."""
        arr = as_sites(sites)
        if self.keys.size == 0 or arr.shape[0] == 0:
            return None
        return self.first_cut_keys(np.sort(self.frame.split(arr)[0]))

    def first_cut_keys(self, table: np.ndarray) -> int | None:
        """``first_cut`` of the set of the sorted keys ``table``.  One
        membership pass counts the rows of each tile in the set: the tile
        meets the set when its count is positive and lies inside when the
        count is its row count."""
        if self.keys.size == 0:
            return None
        held = np.bincount(self.owner[_member(self.keys, table)],
                           minlength=self.sizes.size)
        cut = np.flatnonzero((held > 0) & (held < self.sizes))
        return int(cut[0]) if cut.size else None


def _by_scale(levels: Sequence[DeformationLevel]) -> list:
    """(level, center2, sites) for every block, highest scale first."""
    return [(level, center2, sites)
            for level in sorted(levels, key=lambda lev: -lev.scale)
            for center2, sites in level.blocks]


def regular_deformation(seed, levels: Sequence[DeformationLevel]):
    """Close a site set under enlarged-block absorption across all scales.

    Starting from the seed set, a block is adjoined whenever the box of its
    test radius meets the current set.  Rounds repeat over all scales until
    a global fixpoint, so late lower-scale growth cannot silently re-expose
    a higher scale; ``passes`` counts those rounds.

    Returns the closed set (canonical site array) and a report carrying the
    realized pad ``max_{x in B*} dist(x, B)``.
    """
    seed_arr = canonical_sites(seed)
    blocks = _by_scale(levels)
    triggers = [LatticeBox(c2, lev.test_reach2 / 2.0)
                for lev, c2, _ in blocks]
    out, taken, passes = _Tiles([b[2] for b in blocks],
                                triggers).absorb(seed_arr)
    if out.shape[0] and seed_arr.shape[0]:
        chunk = np.abs(out[:, None, :] - seed_arr[None, :, :]).max(axis=2)
        pad = float(chunk.min(axis=1).max())
    else:
        pad = 0.0
    absorbed = tuple((blocks[i][0].scale, blocks[i][1]) for i in taken)
    report = DeformationReport(passes, absorbed, pad,
                               int(seed_arr.shape[0]), int(out.shape[0]))
    return out, report


def regularity_witness(sites, levels: Sequence[DeformationLevel]):
    """Independent closure predicate: the first block that meets the set
    without being contained, or None when the set is regular."""
    blocks = _by_scale(levels)
    i = _Tiles([sites_b for _, _, sites_b in blocks]).first_cut(sites)
    return None if i is None else (blocks[i][0].scale, blocks[i][1])


def is_regular(sites, levels: Sequence[DeformationLevel]) -> bool:
    return regularity_witness(sites, levels) is None
