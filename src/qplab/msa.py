"""Multi-scale induction: schedules, resonances, blocks, and root tracking.

The induction walks a ladder of scales ``N_s`` with tolerances ``delta_s``.
At each scale the near-resonant centers ``P_s`` live on a shifted
half-integer lattice; around them sit nested blocks (resonant, doubled,
enlarged) absorbing all lower-scale structure.  A characteristic root
``theta_s`` of a small Schur determinant steers the resonance windows, and
the exported estimates bound inverse restrictions on "good" sets that avoid
the current resonances.

Two schedule modes exist.  The faithful mode uses the published exponents
(``N^{10}``-sized enlargements, ``10^{5 rho'}`` tolerance jumps); past the
second scale these exceed any computable volume, so a desk mode with gentle
exponents drives everything actually executed, while the faithful mode
remains available for schedule arithmetic itself.
"""

from __future__ import annotations

import cmath
import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping, MutableMapping, Sequence

import numpy as np
# lu_factor is not called here; perfbench/tracer.py patches msa.lu_factor
from scipy.linalg import get_lapack_funcs, lu_factor  # noqa: F401

from .errors import (
    ASingular,
    AsymmetricBox,
    NoRootInWindow,
    PreconditionViolated,
    ScheduleOverflow,
    SeparationViolated,
    SizeOverflow,
    WindingMismatch,
    WindowTooSmall,
)
from .greens import DecayFit, decay_scan, green_solve
from .lattice import (
    LatticeBox,
    _distinct,
    _Frame,
    _member,
    _Tiles,
    as_sites,
    canonical_sites,
    deformation_level,
    set_contains,
    set_diameter,
    set_union,
    site_index,
    sup_dist_sets,
    sup_distance_classes,
    symmetric_about_origin,
)
from .model import (
    ModelSpec,
    assemble_t_matrix,
    eval_potential,
    eval_potential_derivative,
    solve_phase_for_energy,
    toeplitz_block,
)
from .torus import (
    canonical_root,
    log_torus_norm,
    torus_norm,
    wrap_to_symmetric,
    wrap_to_unit,
)

MAX_EXP = 700.0


# ---------------------------------------------------------------------------
# schedule


@dataclass(frozen=True)
class ScaleSchedule:
    """Length scales, tolerances, and decay rates, all delta in log form.

    ``log_delta[s]`` is ``log delta_s``; ``n_seq[s]`` is ``N_s`` as an int
    when it is representable and None when only ``log_n[s]`` is (the
    faithful mode overflows machine integers from scale 2 on).  ``q_exp``
    widens resonance windows (``delta^q_exp``), ``z_exp`` sizes the root
    windows.  ``alpha_prime[s]`` is the transitional rate usually written
    with a prime and one index down; it is aligned here with the scale whose
    ``N`` enters its formula.
    """

    mode: str
    alpha: float
    rho: float
    rho_prime: float
    log_delta: tuple
    n_seq: tuple
    log_n: tuple
    alpha_seq: tuple
    alpha_prime: tuple
    q_exp: float
    z_exp: float

    @property
    def s_max(self) -> int:
        return len(self.log_delta) - 1

    def delta(self, s: int) -> float:
        return math.exp(max(self.log_delta[s], -MAX_EXP))

    def q_threshold(self, s: int) -> float:
        return math.exp(max(self.q_exp * self.log_delta[s], -MAX_EXP))

    def sep_threshold(self, s: int) -> float:
        """Spatial separation deciding the case split at scale s -> s+1."""
        n_next = self.n_seq[s + 1]
        if n_next is None:
            raise ScheduleOverflow(
                f"N_{s + 1} is not machine representable; the faithful mode "
                "cannot classify cases at this depth")
        if self.mode == "paper":
            return 100.0 * float(n_next) ** 10
        return 2.0 * float(n_next)

    def radii(self, s: int, case: int) -> tuple:
        """(resonant, doubled, enlarged) block radii at scale s."""
        n = self.n_seq[s]
        if n is None:
            raise ScheduleOverflow(
                f"N_{s} is not machine representable; blocks at this scale "
                "cannot be constructed")
        n = int(n)
        if self.mode == "paper":
            if case == 1:
                return (n, 2 * n, n ** 10)
            return (100 * n ** 10, 200 * n ** 10, n ** 100)
        if case == 1:
            return (n, 2 * n, 4 * n)
        return (2 * n, 4 * n, 8 * n)

    def pad_budget(self, s: int) -> int:
        """Allowed excess of realized blocks over their nominal radius."""
        if s <= 1:
            return 0
        if self.mode == "paper":
            n_prev = self.n_seq[s - 1]
            if n_prev is None:
                raise ScheduleOverflow(f"N_{s - 1} exceeds machine range")
            return 50 * int(n_prev) ** 100
        return 50 * self.radii(s - 1, 2)[2]


def build_schedule(mode: str, *, alpha: float, rho: float, rho_prime: float,
                   s_max: int, eps0: float | None = None,
                   delta0: float | None = None, n0: int | None = None,
                   g_delta: float = 2.0, g_n: float = 2.0) -> ScaleSchedule:
    """Construct the scale ladder.

    Faithful mode seeds ``delta_0 = eps0^(1/10)`` and runs the published
    recursions ``N_{s+1} = floor(exp(|log delta_s|^(1/rho')))``,
    ``log delta_{s+1} = 10^(5 rho') log delta_s``.  Desk mode takes an
    explicit ``delta0`` and ``N_0``, seeds ``N_1`` by the same exponential
    formula, then grows geometrically: ``N_{s+1} = ceil(N_s^g_n)``,
    ``log delta_{s+1} = g_delta log delta_s``.
    """
    if not (1.0 < rho_prime < rho < rho_prime + 1.0):
        raise ValueError("need 1 < rho' < rho < rho' + 1")
    if alpha <= 0:
        raise ValueError("decay rate alpha must be positive")
    if s_max < 1:
        raise ValueError("the ladder needs at least one scale")

    if mode == "paper":
        if eps0 is None or not (0.0 < eps0 < 1.0):
            raise ValueError("faithful mode needs eps0 in (0, 1)")
        log_d0 = math.log(eps0) / 10.0
        jump = 10.0 ** (5.0 * rho_prime)
        log_delta = [log_d0]
        for _ in range(s_max):
            log_delta.append(log_delta[-1] * jump)
        if s_max >= 2:
            warnings.warn(
                "faithful-mode boxes beyond scale 2 exceed any computable "
                "volume; only schedule arithmetic is meaningful there",
                stacklevel=2)
        n_seq: list = [None]
        log_n: list = [float("nan")]
        for s in range(s_max):
            ln = abs(log_delta[s]) ** (1.0 / rho_prime)
            log_n.append(ln)
            n_seq.append(int(math.exp(ln)) if ln < 43.0 else None)
    elif mode == "desk":
        if delta0 is None or not (0.0 < delta0 < 1.0):
            raise ValueError("desk mode needs delta0 in (0, 1)")
        if n0 is None or n0 < 1:
            raise ValueError("desk mode needs a base length N_0 >= 1")
        if not (1.0 < g_n <= 3.0):
            raise ValueError("desk length growth g_n must lie in (1, 3]")
        if not (2.0 <= g_delta <= 50.0):
            raise ValueError("desk tolerance growth g_delta must lie in "
                             "[2, 50]")
        log_d0 = math.log(delta0)
        log_delta = [log_d0 * g_delta ** s for s in range(s_max + 1)]
        n_seq = [int(n0)]
        n1 = int(math.exp(abs(log_d0) ** (1.0 / rho_prime)))
        n_seq.append(max(2, n1))
        while len(n_seq) <= s_max:
            n_seq.append(int(math.ceil(n_seq[-1] ** g_n)))
        log_n = [math.log(n) for n in n_seq]
    else:
        raise ValueError(f"unknown schedule mode {mode!r}")

    if mode == "paper":
        dec, dec_prime = 50.0 * 10.0 ** (5.0 * rho_prime), \
            20.0 * 10.0 ** (5.0 * rho_prime)
    else:
        dec, dec_prime = 0.05, 0.02
    alpha_seq = [0.75 * alpha]
    alpha_prime = [float("nan")]
    for s in range(1, s_max + 1):
        ln_s = log_n[s]
        denom = alpha * ln_s ** (rho - rho_prime)
        factor = 1.0 - dec / denom
        factor_p = 1.0 - dec_prime / denom
        if factor <= 0.0 or factor_p <= 0.0:
            raise ScheduleOverflow(
                f"decay schedule collapses at scale {s}: decrement factor "
                f"{factor:.4f} is not positive")
        alpha_prime.append(alpha_seq[-1] * factor_p)
        alpha_seq.append(alpha_seq[-1] * factor)
        if alpha_seq[-1] < alpha / 2.0:
            raise ScheduleOverflow(
                f"decay rate at scale {s} fell below alpha/2; enlarge N_1 "
                "or reduce the ladder depth")

    return ScaleSchedule(mode, alpha, rho, rho_prime, tuple(log_delta),
                         tuple(n_seq), tuple(log_n), tuple(alpha_seq),
                         tuple(alpha_prime), 0.01 if mode == "paper" else
                         0.25, 1e-4 if mode == "paper" else 0.25)


# ---------------------------------------------------------------------------
# resonances

# Half-integer centers are stored doubled (exact integers), so "2k" is the
# working representation of a center k throughout this module.


@dataclass(frozen=True)
class ResonanceStructure:
    s: int
    theta_s: complex
    offset2: tuple
    p2: np.ndarray
    q_plus2: np.ndarray
    q_minus2: np.ndarray
    q_tilde_plus2: np.ndarray
    q_tilde_minus2: np.ndarray
    delta: float
    q_tilde_delta: float

    @property
    def q2(self) -> np.ndarray:
        return set_union(self.q_plus2, self.q_minus2)

    @property
    def q_tilde2(self) -> np.ndarray:
        return set_union(self.q_tilde_plus2, self.q_tilde_minus2)


def detect_resonances(model: ModelSpec, theta: complex, s: int,
                      theta_s: complex, schedule: ScaleSchedule,
                      candidates2: np.ndarray, offset2) -> ResonanceStructure:
    """Split candidate centers into resonance shells around ``±theta_s``.

    ``candidates2`` are doubled centers (scale 0: all window sites, doubled;
    later scales: the advanced ``P_s``).  A center is + resonant when the
    phase ``theta + k . omega`` lands within ``delta_s`` of ``-theta_s``,
    mirroring the sign convention of the window definitions.
    """
    cand2 = np.atleast_2d(np.asarray(candidates2, dtype=np.int64))
    omega = model.frequency.array()
    delta = schedule.delta(s)
    d_tilde = schedule.q_threshold(s)
    cand2 = canonical_sites(cand2)
    phase = complex(theta) + (cand2 / 2.0) @ omega
    rp = torus_norm(phase + complex(theta_s))
    rm = torus_norm(phase - complex(theta_s))
    return ResonanceStructure(
        s, complex(theta_s), tuple(int(v) for v in offset2), cand2,
        cand2[rp < delta], cand2[rm < delta],
        cand2[rp < d_tilde], cand2[rm < d_tilde], delta, d_tilde)


@dataclass(frozen=True)
class CaseData:
    case: int
    l: tuple | None
    witness_i2: tuple | None
    witness_j2: tuple | None
    dist: float


def classify_case(res: ResonanceStructure, threshold: float) -> CaseData:
    """Case split: far-separated resonance shells (1) or a merge pair (2).

    In case 2 the witnesses are the closest (+, ~-) pair, ties broken
    lexicographically, and ``l`` is their integer difference.
    """
    plus = res.q_plus2
    tminus = res.q_tilde_minus2
    if plus.shape[0] == 0 or tminus.shape[0] == 0:
        return CaseData(1, None, None, None, float("inf"))
    diff = np.abs(plus[:, None, :] - tminus[None, :, :]).max(axis=2) / 2.0
    dist = float(diff.min())
    if dist > threshold:
        return CaseData(1, None, None, None, dist)
    ii, jj = np.nonzero(diff <= threshold)
    pairs = sorted(
        zip(diff[ii, jj], map(tuple, plus[ii].tolist()),
            map(tuple, tminus[jj].tolist())))
    _, i2, j2 = pairs[0]
    l2 = tuple(a - b for a, b in zip(i2, j2))
    if any(c % 2 for c in l2):
        raise PreconditionViolated(
            "merge witnesses do not differ by an integer vector")
    return CaseData(2, tuple(c // 2 for c in l2), i2, j2, dist)


def advance_resonances(res: ResonanceStructure, case: CaseData,
                       cores: Mapping | None) -> tuple:
    """Produce ``(P_{s+1} doubled, offset2, cores_{s+1})`` from scale s.

    ``cores`` maps doubled centers to doubled core-site arrays; None means
    the implicit scale-0 cores (every center is its own core).  Case 1
    keeps the centers ``Q_s`` and their cores; case 2 merges each offset
    pair across ``l`` into a midpoint center whose core is the union.
    """

    def core_of(c2) -> np.ndarray:
        if cores is None:
            return np.asarray([c2], dtype=np.int64)
        key = tuple(int(v) for v in c2)
        if key not in cores:
            raise PreconditionViolated(
                f"merge partner {key} has no tracked core; the resonance "
                "window was too narrow for this merge")
        return np.asarray(cores[key], dtype=np.int64)

    if case.case == 1:
        p_next = res.q2
        new_cores = {tuple(int(v) for v in c2): core_of(tuple(c2))
                     for c2 in p_next}
        return p_next, res.offset2, new_cores

    l = np.asarray(case.l, dtype=np.int64)
    origins = set_union(res.q_minus2, res.q_plus2 - 2 * l)
    new_cores = {tuple(int(v) for v in o2 + l):
                 set_union(core_of(o2), core_of(o2 + 2 * l))
                 for o2 in origins}
    p_next = origins + l
    offset2 = tuple(int(a + b) for a, b in zip(res.offset2, case.l))
    return p_next, offset2, new_cores


# ---------------------------------------------------------------------------
# blocks


@dataclass(frozen=True)
class BlockFamily:
    """The three nested block levels around every center of one scale."""

    s: int
    centers2: np.ndarray
    resonant: dict
    doubled: dict
    enlarged: dict
    cores: dict
    radii: tuple
    declared_pad: int
    realized_pad: int
    zeta_tilde: int
    template2: np.ndarray

    def center_keys(self) -> list:
        return [tuple(int(v) for v in row) for row in self.centers2]


def _block_frame(parts: list, centers2: np.ndarray, lanes: int) -> tuple:
    """``(frame, step, shifts, flip)``: ``step`` moves the first center to
    each center, ``shifts`` on keys, and key ``k`` mirrors about the first
    center to ``flip - k``; these maps are exact on the ``parts``, which the
    frame holds with their images, and ``lanes`` copies of it fit int64."""
    rows = np.concatenate(parts)
    lo, hi, c0 = rows.min(axis=0), rows.max(axis=0), centers2[0]
    step = (centers2 - c0) // 2
    frame = _Frame(np.concatenate([lo - step, hi - step, c0 - hi + step,
                                   c0 - lo + step]))
    if frame.axes is not None or lanes * frame.size >= 2 ** 63:
        raise SizeOverflow("block sites span too wide a box to key")
    return (frame, step, step @ frame.strides,
            int((c0 - 2 * frame.lo) @ frame.strides))


def construct_blocks(p2: np.ndarray, cores: Mapping, s: int, case: int,
                     offset2, schedule: ScaleSchedule,
                     lower: Sequence["BlockFamily"], window: LatticeBox
                     ) -> BlockFamily:
    """Build resonant/doubled/enlarged blocks with absorption and symmetry.

    Each level starts as a sup-norm ball, absorbs every lower-scale enlarged
    block it touches, and is then forced to a center-independent,
    origin-symmetric template (in the frame translated by its center).
    Absorption and templating loop to a joint fixed point.  Separation of
    enlarged blocks by ten diameters is a hard requirement.  ``offset2`` is
    not read; it stays in the signature for positional callers
    (``perfbench/workloads.py``).

    The centers share their parity, so every block is the first center's
    translated.  The sites are keyed once (``_block_frame``); key lane c
    closes the block under the lower tiles as seen from center c, and only
    the arrays that ``BlockFamily`` stores are decoded.
    """
    p2 = np.atleast_2d(np.asarray(p2, dtype=np.int64))
    if p2.shape[0] == 0:
        raise PreconditionViolated("cannot build blocks for an empty P_s")
    if ((p2 - p2[0]) % 2).any():
        raise PreconditionViolated("centers of one scale differ in parity")
    radii = schedule.radii(s, case)
    keys, c0 = [tuple(row) for row in p2.tolist()], p2[0]
    win, reach = np.asarray(window.axis_ranges).T, math.floor(2 * radii[2])
    tiles = [as_sites(fam.enlarged[key]) for fam in lower
             for key in fam.center_keys()]
    frame, step, shifts, flip = _block_frame(
        [win, -((reach - p2) // 2), (p2 + reach) // 2, *tiles], p2, len(p2))
    lane = np.arange(len(p2))[:, None] * frame.size
    lower_tiles = _Tiles(tiles, frame=frame, lanes=lane.ravel() - shifts)

    levels = []
    for radius in radii:
        block = frame.box_keys(LatticeBox(keys[0], float(radius)))
        free = np.ones(lower_tiles.sizes.size, dtype=bool)
        # a round only grows the block, and the window bounds it
        for rounds in itertools.count():
            closed = lower_tiles.close((block + lane).ravel(), free)[0]
            grew = closed.size > block.size * len(p2)
            if grew:
                closed %= frame.size
                block = _distinct(np.concatenate([closed, flip - closed]))
            elif rounds:
                break
            sites = frame.sites(block)
            lo, hi = sites.min(axis=0), sites.max(axis=0)
            out = ((lo + step < win[0]) | (hi + step > win[1])).any(axis=1)
            if out.any():
                raise WindowTooSmall(
                    f"block around {tuple(c / 2 for c in keys[out.argmax()])}"
                    " escapes the working window; enlarge it")
            if not grew:
                break
        # the template 2 x - c0 of the block reaches this far from 0
        levels.append((block, sites, int(np.maximum(2 * hi - c0,
                                                    c0 - 2 * lo).max())))

    realized_pad = max(-(-extent // 2) - r
                       for (_, _, extent), r in zip(levels, radii))
    budget = schedule.pad_budget(s)
    (res_k, res_s, _), (dbl_k, dbl_s, _), (enl_k, enl_s, _) = levels
    if not (_member(res_k, dbl_k).all() and _member(dbl_k, enl_k).all()):
        raise PreconditionViolated(
            "block nesting failed; the pad outgrew the radius gaps")

    def placed(sites0: np.ndarray) -> dict:
        return {key: sites0 + d for key, d in zip(keys, step)}

    diam, enl_b = set_diameter(enl_s), placed(enl_s)
    for (ka, da), (kb, db) in itertools.combinations(zip(keys, step), 2):
        # translates by v of a set of diameter diam are >= |v| - diam apart
        if np.abs(da - db).max() - diam > 10.0 * diam:
            continue
        gap = sup_dist_sets(enl_b[ka], enl_b[kb])
        if gap <= 10.0 * diam:
            raise SeparationViolated(
                f"enlarged blocks at {ka} and {kb} are only "
                f"{gap:.0f} apart (diameter {diam})")

    core = None
    for key, sh in zip(keys, shifts):
        if key not in cores:
            raise PreconditionViolated(f"center {key} has no core")
        a2 = as_sites(cores[key])
        n = len(a2) if len(a2) <= 2 ** s else len(canonical_sites(a2))
        if n > 2 ** s:
            raise PreconditionViolated(
                f"core at {key} has {n} sites, limit {2 ** s}")
        if (a2 % 2).any():
            raise PreconditionViolated("core sites must be integer sites")
        inside, outside = frame.split(a2 // 2)
        inside = _distinct(inside)
        if outside.size or not _member(inside, res_k + sh).all():
            raise PreconditionViolated(
                f"core at {key} leaks outside its resonant block")
        if core is None:
            core = inside
        elif not np.array_equal(inside - sh, core):
            raise PreconditionViolated(
                "core layout varies across centers of one scale")
    if not np.array_equal(flip - core[::-1], core):
        raise PreconditionViolated("core template is not origin-symmetric")

    return BlockFamily(s, p2, placed(res_s), placed(dbl_s), enl_b,
                       placed(frame.sites(core)), radii, budget,
                       max(realized_pad, 0), diam, 2 * enl_s - c0)


@dataclass(frozen=True)
class BlockCheckReport:
    absorption_ok: bool
    separation_ok: bool
    translation_ok: bool
    symmetry_ok: bool
    covering_ok: bool
    cores_ok: bool
    pad_ok: bool
    realized_pad: int
    declared_pad: int

    @property
    def all_ok(self) -> bool:
        return (self.absorption_ok and self.separation_ok
                and self.translation_ok and self.symmetry_ok
                and self.covering_ok and self.cores_ok and self.pad_ok)


def verify_block_family(family: BlockFamily,
                        lower: Sequence[BlockFamily],
                        prev_res: ResonanceStructure | None
                        ) -> BlockCheckReport:
    """Re-check every constructed-block property from scratch.

    Absorption (touching lower enlarged blocks are swallowed at all three
    levels), ten-diameter separation, center-independent symmetric
    templates for blocks and cores, the covering of the previous resonances,
    and the pad budget, all from the family's stored arrays.  They are keyed
    once (``_block_frame``), each set in its own key lane.
    """
    keys, c2 = family.center_keys(), family.centers2
    n = len(keys)
    # each previous resonance is covered by its tile, or by its site if it
    # has no tile and sits on the integer lattice
    covering, cover = True, []
    prev_tiles = lower[-1].enlarged if lower else {}
    for kp2 in ([] if prev_res is None else
                np.concatenate([prev_res.q_plus2, prev_res.q_minus2])):
        kp = tuple(int(v) for v in kp2)
        if kp in prev_tiles:
            cover.append(prev_tiles[kp])
        elif np.any(kp2 % 2):
            covering = False
        else:
            cover.append(kp2[None, :] // 2)
    sets = [level[key] for level in (family.resonant, family.doubled,
                                     family.enlarged, family.cores)
            for key in keys] + cover
    tiles = [fam.enlarged[key] for fam in lower for key in fam.center_keys()]
    frame, _, shifts, flip = _block_frame(sets + tiles, c2, len(sets))
    lane = np.arange(len(sets)) * frame.size
    laned = _distinct(frame.keys(np.concatenate(sets))
                      + np.repeat(lane, [len(a) for a in sets]))
    ends = np.searchsorted(laned, lane + frame.size).tolist()
    coded = [laned[a:b] - off
             for a, b, off in zip([0] + ends, ends, lane.tolist())]
    res_k, enl_k, core_k = coded[:n], coded[2 * n:3 * n], coded[3 * n:4 * n]

    absorption = _Tiles(tiles, frame=frame, lanes=lane[:3 * n]) \
        .first_cut_keys(laned[:ends[3 * n - 1]]) is None
    # sets are at least as far apart as their bounding boxes
    far, box = 10.0 * family.zeta_tilde, [
        (a.min(axis=0), a.max(axis=0)) if len(a) else None
        for a in sets[2 * n:3 * n]]
    separation = all(
        (p is not None and q is not None
         and np.maximum(q[0] - p[1], p[0] - q[1]).max() > far)
        or sup_dist_sets(sets[2 * n + i], sets[2 * n + j]) > far
        for (i, p), (j, q) in itertools.combinations(enumerate(box), 2))
    one_parity = not np.any((c2 - c2[0]) % 2)

    def same_symmetric(coded_sets: list) -> tuple:
        """(all are the first translated, the first is symmetric)."""
        first = coded_sets[0]
        return (one_parity and all(np.array_equal(k - sh, first)
                                   for k, sh in zip(coded_sets, shifts)),
                np.array_equal(flip - first[::-1], first))

    translation, symmetry = same_symmetric(enl_k)
    covering = covering and all(any(_member(t, r).all() for r in res_k)
                                for t in coded[4 * n:])
    cores_ok = all(len(family.cores[key]) <= 2 ** family.s
                   and _member(k, r).all()
                   for key, k, r in zip(keys, core_k, res_k)) \
        and all(same_symmetric(core_k))
    pad_ok = family.realized_pad <= family.declared_pad
    return BlockCheckReport(absorption, separation, translation, symmetry,
                            covering, cores_ok, pad_ok, family.realized_pad,
                            family.declared_pad)


# ---------------------------------------------------------------------------
# induction state


@dataclass
class ScaleData:
    s: int
    res: ResonanceStructure
    family: BlockFamily | None
    case_to_next: CaseData | None = None
    theta_step: "ThetaStep | None" = None
    edge_dropped: int = 0


@dataclass
class MsaRun:
    model: ModelSpec
    schedule: ScaleSchedule
    theta: complex
    energy: complex
    window: LatticeBox
    scales: list = field(default_factory=list)

    def res(self, s: int) -> ResonanceStructure:
        return self.scales[s].res

    def family(self, s: int) -> BlockFamily:
        fam = self.scales[s].family
        if fam is None:
            raise ValueError(f"scale {s} has no block family")
        return fam

    @property
    def depth(self) -> int:
        return len(self.scales) - 1


# ---------------------------------------------------------------------------
# root tracking


@dataclass(frozen=True)
class ThetaStep:
    """A tracked root.  ``window_radius`` is the radius of the ring that
    holds ``theta``; ``det_violations`` counts that ring's samples below the
    lower bound's floor."""

    s: int
    case: int
    l: tuple | None
    theta: complex
    expected: complex
    deviation: float
    deviation_bound: float
    deviation_ok: bool
    roots: tuple
    winding_total: int
    window_radius: float
    det_violations: int
    newton_iters: int


# relative tolerance of ``_SchurDet``'s evenness check on a user potential
EVEN_RTOL = 1e-12


class _SchurDet:
    """Evaluator of the even function f(z) = det S(z), for the Schur
    complement S onto the core of a fixed translated frame.

    The z-independent blocks of ``eps W`` are sliced once.  Each evaluation
    adds the potential diagonal to the rest-rest block, which is
    complex-symmetric, and factors it once by Bunch-Kaufman LDL^T
    (``sytrf``; ``ASingular`` on an exactly zero pivot).  One solve gives
    X = A_rr^-1 W_rc, so S = W_cc + D_c - W_rc^T X, and Jacobi's formula
    gives f'/f = tr(S^-1 S') with S' = D'_c + X^T D'_r X.

    f(-z) = f(z) because A(-z) = P A(z) P under the reflection P: x -> -x,
    which holds when P maps the frame and its core onto themselves, eps W
    is symmetric (phi(n) = phi(-n)) and v is even.  The constructor checks
    the first two and raises ``AsymmetricBox``.  The cosine is even bit for
    bit; any other potential must satisfy |v(-p) - v(p)| <= ``EVEN_RTOL``
    max |v(p)| at the phases p of every evaluation, else
    ``PreconditionViolated`` is raised.

    ``real_axis`` says f is real on the real axis, so f(conj z) = conj f(z)
    (Schwarz reflection): E is real, eps W has no imaginary part and v is
    the cosine, which meets it bit for bit as it meets evenness: cos and sin
    of conj(z) + n.omega are the conjugates, and ``sytrf``, which pivots on
    |Re| + |Im|, and all that follows see only imaginary signs flipped.
    """

    def __init__(self, model: ModelSpec, frame_sites: np.ndarray,
                 core_mask: np.ndarray, energy: complex):
        if not (symmetric_about_origin(as_sites(2.0 * frame_sites))
                and symmetric_about_origin(
                    as_sites(2.0 * frame_sites[core_mask]))):
            raise AsymmetricBox(
                "tracking frame or its core is not symmetric about the "
                "origin")
        self.pot = model.potential
        self.energy = complex(energy)
        core = np.flatnonzero(core_mask)
        rest = np.flatnonzero(~core_mask)
        self.n_rest = rest.size
        # phase slopes ordered rest first, then core
        self.slope = frame_sites[np.concatenate([rest, core])] \
            @ model.frequency.array()
        w = model.eps * toeplitz_block(model.hopping, frame_sites)
        if not np.array_equal(w, w.T):
            raise AsymmetricBox(
                "eps W is not symmetric on the tracking frame: the hopping "
                "amplitude is not even")
        self.w_rr = np.asfortranarray(w[np.ix_(rest, rest)], dtype=complex)
        self.w_rc = np.asfortranarray(w[np.ix_(rest, core)], dtype=complex)
        self.w_cc = w[np.ix_(core, core)].astype(complex)
        self.rr_diag = np.diag_indices(rest.size)
        self.sytrf, self.sytrs, lwork = get_lapack_funcs(
            ("sytrf", "sytrs", "sytrf_lwork"), (self.w_rr,))
        self.lwork = int(lwork(rest.size)[0].real)
        self.real_axis = bool(self.energy.imag == 0 and not np.any(w.imag)
                              and self.pot.kind == "cosine")

    def det_logderiv(self, z: complex) -> tuple:
        """(det S(z), f'/f at z); f'/f is NaN where det S is exactly 0."""
        phases = complex(z) + self.slope
        v = np.asarray(eval_potential(self.pot, phases), dtype=complex)
        if self.pot.kind != "cosine":
            odd = float(np.max(np.abs(eval_potential(self.pot, -phases) - v)))
            if odd > EVEN_RTOL * float(np.max(np.abs(v))):
                raise PreconditionViolated(
                    f"potential is not even: |v(-p) - v(p)| = {odd:.3e} at "
                    f"the phases of z = {complex(z):.6g}")
        d = v - self.energy
        nr = self.n_rest
        a = self.w_rr.copy(order="F")
        a[self.rr_diag] += d[:nr]
        ldl, piv, info = self.sytrf(a, lwork=self.lwork, overwrite_a=True)
        if info > 0:
            raise ASingular(f"Schur rest block singular at z = {z:.6g}")
        x = self.sytrs(ldl, piv, self.w_rc)[0]
        s = self.w_cc + np.diag(d[nr:]) - self.w_rc.T @ x
        f = complex(np.linalg.det(s))
        if f == 0:
            return f, complex(math.nan)
        dv = eval_potential_derivative(self.pot, phases)
        ds = np.diag(dv[nr:]) + x.T @ (dv[:nr, None] * x)
        return f, complex(np.trace(np.linalg.solve(s, ds)))


# contour sampling: rings start at RING_SAMPLES points (multiplicity rings at
# MULT_SAMPLES) and double until every step in arg f is at most pi/4
RING_SAMPLES = 64
MULT_SAMPLES = 16
MAX_RING_SAMPLES = 4096
MAX_ARG_STEP = math.pi / 4.0
# Newton steps per start before ``track_theta`` abandons that start
NEWTON_BUDGET = 60
# a +- pair closer to a band edge than this fraction of the edge's window
# radius is searched in that one window
EDGE_SNAP = 0.25


def _sample_ring(ev: _SchurDet, c: complex, r: float, n: int):
    """Samples ``(z, f, f'/f)`` on the circle ``|z - c| = r``.

    Starts from ``n`` uniform points and doubles (reusing the old points)
    until every step in arg f is at most ``MAX_ARG_STEP``; raises
    ``WindingMismatch`` past ``MAX_RING_SAMPLES``.  Returns None when |f|
    dips below 1e-14 of its median, i.e. the circle runs through a zero.

    When ``c`` is real and ``ev.real_axis`` holds, only the samples k with
    2k <= m of an m-point ring are evaluated; sample m - k takes the
    conjugated point, f and f'/f of sample k, so the set is exactly
    conjugate-symmetric.  Doubling pairs odd indices with odd ones.
    """
    mirror = ev.real_axis and complex(c).imag == 0

    def sample(k: np.ndarray, m: int):
        own = k[2 * k <= m] if mirror else k
        z = c + r * np.exp(2j * np.pi * own / m)
        fg = np.asarray([ev.det_logderiv(zz) for zz in z])
        out = [z, fg[:, 0], fg[:, 1]]
        if mirror:
            mate = np.searchsorted(own, m - k[own.size:])
            out = [np.concatenate([a, a[mate].conj()]) for a in out]
        return out

    z, f, g = sample(np.arange(n), n)
    while True:
        if float(np.min(np.abs(f))) <= 1e-14 * float(np.median(np.abs(f))):
            return None
        steps = np.abs(np.angle(np.roll(f, -1) / f))
        if float(np.max(steps)) <= MAX_ARG_STEP:
            return z, f, g
        if 2 * n > MAX_RING_SAMPLES:
            raise WindingMismatch(
                f"arg det S still steps by {float(np.max(steps)):.3f} "
                f"on {n} samples of the circle |z - {c:.6g}| = {r:.3e}")
        zm, fm, gm = sample(2 * np.arange(n) + 1, 2 * n)
        z, f, g = (np.stack([a, b], axis=1).ravel()
                   for a, b in ((z, zm), (f, fm), (g, gm)))
        n *= 2


def _count_zeros(z: np.ndarray, f: np.ndarray, g: np.ndarray,
                 c: complex) -> tuple:
    """Winding of f on a sampled circle around ``c``, cross-checked.

    The integer winding of the samples and the trapezoid moment
    ``s0 = mean((z - c) f'/f)`` are two independent zero counts; they must
    agree.  Also returns ``s0`` and ``s1c = mean((z - c)^2 f'/f)``, the
    first Delves-Lyness moment about ``c``.
    """
    w = int(round(float(np.sum(np.angle(np.roll(f, -1) / f))) / (2 * np.pi)))
    s0 = complex(np.mean((z - c) * g))
    if not abs(s0 - w) < 0.25:
        raise WindingMismatch(
            f"contour around {c:.6g} winds {w} times but its "
            f"log-derivative moment gives {s0:.4g}")
    return w, s0, complex(np.mean((z - c) ** 2 * g))


def _floor_violations(window: tuple, y: complex, rho: float,
                      log_delta: float) -> int:
    """Failures of |f(z)| >= delta ||z - y|| ||z + y|| on |z - y| <= rho.

    ``window`` = ``(c, r, (zs, fs, gs), found)`` samples f on |z - c| = r,
    inside which f has exactly the zeros ``found`` = [(r_j, m_j)], y among
    them.  q = f / prod (z - r_j)^m_j has none, so |f| >= min_k |q(z_k)|
    prod |z - r_j|^m_j inside (minimum modulus).  The floor is at most
    delta |z - y| (||2y|| + rho), or delta |z - y| |z - y2| when the ring
    also holds y's mirror y2; the factors of y (and y2) cancel, and every
    other zero is at least |y - r_j| - rho away.  Counts the samples below
    the resulting floor on |q| (all of them if y is multiple or another
    zero lies within rho of y).  The disk must lie inside the ring
    (rho < r - |y - c|), as ``track_theta``'s rho does by construction.  The
    arcs between samples are read only through them, as for the winding,
    and f and the roots are taken as computed, with no rounding allowance.
    """
    c, r_win, (zs, fs, _), found = window
    # f is even: a ring that is its own mirror also holds a zero at y2 = -y
    # mod 1, and the zero found nearest y2 takes the floor's ||z + y||
    y2 = round(2.0 * y.real) - y
    r2 = (min(found, key=lambda p: abs(p[0] - y2))[0]
          if abs(y2 - c) < r_win else None)
    log_floor = log_delta + (0.0 if r2 is not None
                             else math.log(torus_norm(2.0 * y) + rho))
    for r, m in found:
        gap = abs(y - r) - rho
        e = m - (r == y) - (r == r2)
        if e > 0:
            log_floor = log_floor - e * math.log(gap) if gap > 0 else math.inf
    log_q = np.log(np.abs(fs)) - sum(m * np.log(np.abs(zs - r))
                                     for r, m in found)
    return int(np.count_nonzero(log_q < log_floor))


def _tracking_frame(family: BlockFamily) -> tuple:
    """``(frame, core_mask)``: the first enlarged block of ``family``
    translated to the origin, and the mask of its core.  This is all that
    root tracking reads of a family."""
    key = family.center_keys()[0]
    c2 = np.asarray(key, dtype=np.int64)
    frame = (2 * family.enlarged[key] - c2) / 2.0
    core_mask = np.zeros(frame.shape[0], dtype=bool)
    core_mask[site_index(family.enlarged[key], family.cores[key])] = True
    return frame, core_mask


def track_theta(model: ModelSpec, family: BlockFamily, theta_prev: complex,
                case: CaseData, schedule: ScaleSchedule, s_next: int,
                energy: complex) -> ThetaStep:
    """Locate the characteristic root ``theta_{s_next}`` by Newton + winding.

    Works on the translated frame of one representative enlarged block.  The
    determinant f = det S of the Schur complement onto the core is analytic
    inside windows that stay clear of the poles contributed by the
    eliminated block, so an argument-principle count certifies that Newton
    found every root.  Case 1 expects the root near ``theta_prev``; case 2
    near ``(l/2) . omega + theta_prev``.

    Each candidate ring is sampled by ``_sample_ring`` and counted by
    ``_count_zeros``; if |f| dips on it, the radius is bumped by 2% up to
    three times.  Newton steps ``z <- z - 1 / (f'/f)`` (one determinant
    each) run from the centre first, so that eps = 0 is exact, then from
    four points at 0.3 of the radius and from the Delves-Lyness point s1/s0
    (the mean of the enclosed roots).  Each new root's multiplicity is the
    winding on a small circle around it (``MULT_SAMPLES`` samples), taken as
    soon as the root is accepted; in a window that is its own mirror, the
    root's mirror is accepted with it.  No further start is launched once
    the multiplicities add up to the winding, and they must add up to it.

    The candidates come in +- pairs, and f is even (``_SchurDet`` checks
    the symmetry of the frame, of eps W and of the potential), so only the
    first member of a pair is searched: its mirror adds the same winding
    and the negated roots.  A candidate that is its own mirror (c = -c
    mod 1) is searched and counted once, and so is a pair near a band edge
    b = 0 or 1/2 (within ``EDGE_SNAP`` times the radius of b's window): the
    coupling can carry its roots past the pair's own windows, so both are
    searched in the one window around b.  When f is real on the real axis
    (``_SchurDet.real_axis``), a ring with a real centre evaluates only its
    upper half (``_sample_ring``).

    The lower bound |f| >= delta_{s_next-1} ||z - theta|| ||z + theta|| is
    certified on |z - y| <= 0.99 min(r - |y - c|, delta_{s_next}^z_exp),
    y = +-theta mod 1 the root found in the ring of centre c and radius r,
    from that ring's samples (``_floor_violations``).
    """
    ev = _SchurDet(model, *_tracking_frame(family), energy)

    omega = model.frequency.array()
    tp = complex(theta_prev)
    # The first tracked root moves by at most |eps| (case 1) or sqrt|eps|
    # (case 2, where the paired roots collide head on); past scale 1 the
    # perturbation is controlled by the previous tolerance instead.
    if case.case == 1:
        cands = [tp, -tp]
        expected = canonical_root(tp)
        dev_bound = (max(abs(model.eps), 1e-12) if s_next == 1
                     else schedule.delta(s_next - 1) ** 8)
    else:
        shift = complex(float(np.asarray(case.l, dtype=float) @ omega) / 2.0)
        cands = [shift + tp, shift - tp, -shift + tp, -shift - tp]
        expected = canonical_root(shift + tp)
        dev_bound = (max(math.sqrt(abs(model.eps)), 1e-12) if s_next == 1
                     else schedule.delta(s_next - 1) ** 4)

    rest_slope = ev.slope[:ev.n_rest]
    pole_z = np.concatenate([tp - rest_slope, -tp - rest_slope])
    delta_prev = schedule.delta(s_next - 1)

    def radius(c: complex, others: list) -> float:
        gap = (float(np.min(torus_norm(pole_z - c)))
               if pole_z.size else float("inf"))
        sep = min((torus_norm(c - o) for o in others), default=float("inf"))
        return min(math.sqrt(delta_prev), gap / 3.0, 0.45 * sep)

    # a +- pair near a band edge b (its own mirror) merges into b's window;
    # a pair that the 1e-9 dedupe below already merges keeps its centre
    wrapped = [complex(wrap_to_symmetric(c.real), c.imag) for c in cands]

    def snap(c: complex) -> complex:
        b = complex(wrap_to_symmetric(round(2.0 * c.real) / 2.0))
        others = [o for o in wrapped
                  if min(torus_norm(o - c), torus_norm(o + c)) > 1e-9]
        if (torus_norm(2.0 * c) > 1e-9
                and torus_norm(c - b) <= EDGE_SNAP * radius(b, others)):
            return b
        return c

    # f is even, so the window around -c holds the negated roots of the
    # window around c: search the first member of each +- pair only
    uniq: list = []
    copies: dict = {}
    for c in map(snap, wrapped):
        if all(torus_norm(c - o) > 1e-9 for o in uniq):
            uniq.append(c)
            first = next((o for o in copies if torus_norm(c + o) <= 1e-9), c)
            copies[first] = 1 if first is c else 2

    windows: list = []
    winding_total = 0
    iters_used = 0

    for c, n_copies in copies.items():
        r_win = radius(c, [o for o in uniq if o is not c])
        if r_win < 1e-13:
            raise WindowTooSmall(
                f"root window around {c:.6g} collapsed to {r_win:.3e}")

        for bump in range(4):
            r_try = r_win * (1.0 + 0.02 * bump)
            ring = _sample_ring(ev, c, r_try, RING_SAMPLES)
            if ring is not None:
                r_win = r_try
                break
        else:
            raise WindingMismatch(
                "determinant vanishes on every tested contour; the window "
                "straddles a root")
        w, s0, s1c = _count_zeros(*ring, c)
        tol_det = 1e-12 * float(np.median(np.abs(ring[1])))
        winding_total += n_copies * w

        starts = [c + frac * r_win for frac in (0.0, 0.3, 0.3j, -0.3, -0.3j)]
        if w:
            starts.append(c + s1c / s0)
        found: list = []
        mult = 0
        for z in starts:
            if mult >= w:
                break
            f, g = ev.det_logderiv(z)
            for _ in range(NEWTON_BUDGET):
                iters_used += 1
                if abs(f) < tol_det or not (cmath.isfinite(g) and g != 0):
                    break
                step = 1.0 / g
                z = z - step
                if abs(z - c) > 1.5 * r_win:
                    z = None
                    break
                f, g = ev.det_logderiv(z)
                if abs(step) < 1e-14 * max(1.0, abs(z)):
                    break
            if z is None or abs(z - c) >= r_win or abs(f) > 10.0 * tol_det:
                continue
            if any(abs(z - r) <= 1e-9 for r, _ in found):
                continue
            ring_z = _sample_ring(ev, z, max(1e-3 * r_win, 1e-10),
                                  MULT_SAMPLES)
            if ring_z is None:
                raise WindingMismatch(
                    f"determinant vanishes on the multiplicity circle "
                    f"around {z:.6g}")
            m = abs(_count_zeros(*ring_z, z)[0])
            y2 = round(2.0 * z.real) - z  # also a root if c = -c mod 1
            mirrored = (torus_norm(2.0 * c) <= 1e-9 and abs(y2 - z) > 1e-9
                        and abs(y2 - c) < r_win)
            mult += m * (1 + mirrored)
            found += [(z, m), (y2, m)][:1 + mirrored]
        if mult != w:
            raise WindingMismatch(
                f"contour around {c:.6g} winds {w} times but Newton found "
                f"multiplicity {mult}")
        windows.append((c, r_win, ring, found))

    if winding_total == 0:
        raise NoRootInWindow(
            "no characteristic root inside any candidate window")

    canon: dict = {}
    for win in windows:
        for r, _ in win[3]:
            cr = canonical_root(r)
            if all(torus_norm(cr - o) > 1e-8 for o in canon):
                canon[cr] = (r, win)
    theta_next = min(canon, key=lambda r: torus_norm(r - expected))
    deviation = float(torus_norm(theta_next - expected))

    # theta_next is +-y mod 1: f's evenness and period carry y's bound to it
    y, win = canon[theta_next]
    rho = 0.99 * min(win[1] - abs(y - win[0]), math.exp(max(
        schedule.z_exp * schedule.log_delta[s_next], -MAX_EXP)))
    bad = _floor_violations(win, y, rho, schedule.log_delta[s_next - 1])

    return ThetaStep(s_next, case.case, case.l, theta_next, expected,
                     deviation, dev_bound, deviation <= dev_bound,
                     tuple(canon), winding_total, win[1], bad, iters_used)


# ---------------------------------------------------------------------------
# driver


def _root_key(model: ModelSpec, schedule: ScaleSchedule, family: BlockFamily,
              theta_prev: complex, case: CaseData, s_next: int,
              energy: complex) -> tuple:
    """Everything ``track_theta`` reads, hashable: the model with its
    callables by identity (``ModelSpec``'s equality leaves them out), the
    schedule, the next scale, the case and ``l``, the exact bits of the
    previous root and of E, and the translated frame and core mask."""
    frame, core_mask = _tracking_frame(family)
    return (model, model.potential.fn, model.hopping.fn, schedule, s_next,
            case.case, case.l, np.complex128(theta_prev).tobytes(),
            np.complex128(energy).tobytes(), frame.shape, frame.tobytes(),
            core_mask.tobytes())


def run_induction(model: ModelSpec, theta, energy, window: LatticeBox,
                  schedule: ScaleSchedule, s_target: int, *,
                  roots: MutableMapping | None = None) -> MsaRun:
    """Run the ladder from scale 0 up to ``s_target`` inside one window.

    Stops early (with fewer recorded scales) when the resonance set empties
    out, which simply means the window holds no deeper structure.

    ``roots`` maps a tracking key to its ``ThetaStep``.  The key is all
    that ``track_theta`` reads (``_root_key``), which leaves out the phase,
    so runs that share one mapping and build the same translated block at
    one E track its root once.  A miss tracks and stores with
    ``setdefault``; a call that raises stores nothing.  The mapping needs
    only ``get`` and ``setdefault`` (the CLI's run memo locks each one but
    not the tracking); without one, each call uses a fresh dict.
    """
    if s_target > schedule.s_max:
        raise ValueError("schedule is too short for the requested depth")
    roots = {} if roots is None else roots
    theta, e_val = complex(theta), complex(energy)
    theta0 = solve_phase_for_energy(model.potential, e_val)

    run = MsaRun(model, schedule, theta, e_val, window)
    cand2 = 2 * window.sites
    res0 = detect_resonances(model, theta, 0, theta0, schedule, cand2,
                             (0,) * window.dim)
    run.scales.append(ScaleData(0, res0, None))

    cores: Mapping | None = None
    for s in range(s_target):
        cur = run.scales[s]
        case = classify_case(cur.res, schedule.sep_threshold(s))
        cur.case_to_next = case
        p_next2, offset2, cores = advance_resonances(cur.res, case, cores)
        if p_next2.shape[0] == 0:
            break
        # Blocks that cannot fit inside the window belong to sets the
        # goodness predicate never inspects (it only quantifies over blocks
        # contained in the region), so edge centers leave the tracked
        # family rather than aborting the ladder.
        margin2 = 2 * (schedule.radii(s + 1, case.case)[2]
                       + schedule.pad_budget(s + 1))
        wc2 = np.asarray(window.center2, dtype=np.int64)
        fits = (np.max(np.abs(p_next2 - wc2), axis=1) + margin2
                <= window.reach2)
        dropped = int(np.count_nonzero(~fits))
        if dropped:
            p_next2 = p_next2[fits]
            kept = {tuple(int(v) for v in row) for row in p_next2}
            cores = {k: v for k, v in cores.items() if k in kept}
        if p_next2.shape[0] == 0:
            break
        lower = [sd.family for sd in run.scales[1:]]
        family = construct_blocks(p_next2, cores, s + 1, case.case, offset2,
                                  schedule, lower, window)
        key = _root_key(model, schedule, family, cur.res.theta_s, case,
                        s + 1, e_val)
        step = roots.get(key)
        if step is None:
            step = roots.setdefault(key, track_theta(
                model, family, cur.res.theta_s, case, schedule, s + 1, e_val))
        res = detect_resonances(model, theta, s + 1, step.theta, schedule,
                                p_next2, offset2)
        run.scales.append(ScaleData(s + 1, res, family, theta_step=step,
                                    edge_dropped=dropped))
    return run


# ---------------------------------------------------------------------------
# goodness and estimates


@dataclass(frozen=True)
class GoodSetReport:
    good: bool
    s: int
    failures: tuple


def check_good(run: MsaRun, sites, s: int) -> GoodSetReport:
    """The two-clause goodness predicate for a finite set at scale s.

    Clause one (all scales below s): a resonant enlarged block inside the
    set, covered by a next-scale resonant block, forces that next block's
    enlargement to be inside too.  Clause two: no current-scale resonance
    has its enlarged block inside the set.  At scale 0 both collapse to
    "the set avoids Q_0".
    """
    if s > run.depth:
        raise ValueError(f"run only reaches scale {run.depth}")
    lam = as_sites(sites, run.model.dim)
    failures = []

    def enlarged_tile(scale: int, key: tuple) -> np.ndarray:
        if scale == 0:
            return np.asarray([key], dtype=np.int64) // 2
        return run.family(scale).enlarged[key]

    for sp in range(s):
        fam_next = run.family(sp + 1)
        for kp in map(tuple, run.res(sp).q2.tolist()):
            tile = enlarged_tile(sp, kp)
            if not set_contains(lam, tile):
                continue
            for key in fam_next.center_keys():
                if (set_contains(fam_next.resonant[key], tile)
                        and not set_contains(lam, fam_next.enlarged[key])):
                    failures.append(("carry", sp, kp, key))

    for kq in map(tuple, run.res(s).q2.tolist()):
        if set_contains(lam, enlarged_tile(s, kq)):
            failures.append(("resonant", s, kq, None))
    return GoodSetReport(not failures, s, tuple(failures))


@dataclass(frozen=True)
class EstimateReport:
    norm: float
    log_bound: float
    log_bound_coarse: float
    norm_ok: bool
    decay: DecayFit | None
    passed: bool


def _log_phase_factor(run: MsaRun, s: int, lam: np.ndarray) -> float:
    """log of the sup over contained enlarged blocks of the inverse
    distance product to the pair of tracked roots."""
    res = run.res(s)
    theta_s = res.theta_s
    best = 0.0
    omega = run.model.frequency.array()
    for key in map(tuple, res.p2.tolist() if s > 0 else []):
        if not set_contains(lam, run.family(s).enlarged[key]):
            continue
        phase = run.theta + float(np.asarray(key, dtype=float) @ omega) / 2.0
        val = -(log_torus_norm(phase - theta_s)
                + log_torus_norm(phase + theta_s))
        best = max(best, float(val))
    return best


def scale0_bounds(model: ModelSpec, schedule: ScaleSchedule) -> tuple:
    """``(norm bound, decay)`` of the estimate on 0-good sets: the Morse
    floor ``||G|| <= 2 kappa1^-1 delta_0^-2`` and ``decay = (alpha_0, 0)``,
    rate ``alpha_0 = (3/4) alpha`` at every distance past 0.  The norm
    bound is ``inf`` where ``kappa1 delta_0^2`` underflows to 0."""
    floor = model.potential.kappa1 * schedule.delta(0) ** 2
    return (2.0 / floor if floor > 0.0 else math.inf,
            (schedule.alpha_seq[0], 0.0))


def _estimate(model: ModelSpec, sites: np.ndarray, theta, energy,
              bounds: tuple, decay: tuple | None,
              classes: tuple | None = None) -> EstimateReport:
    """Invert T on ``sites`` (Re theta reduced into [0, 1)) and gate its log
    norm at the tighter of the two log ``bounds``; ``decay = (alpha,
    threshold)`` also gates each sup-distance class of ``classes`` (default
    ``sup_distance_classes(sites)``) past ``threshold`` at rate alpha.  The
    green sweep and ``verify_good_set``/``verify_block`` share this."""
    g = green_solve(assemble_t_matrix(
        model, sites, complex(wrap_to_unit(theta)), complex(energy)))
    norm_ok = math.log(g.op_norm) <= min(bounds) + 1e-9
    fit = None
    if decay is not None:
        if classes is None:
            classes = sup_distance_classes(sites)
        fit = decay_scan(g.matrix, classes, decay[0], model.hopping.rho,
                         threshold=decay[1])
    return EstimateReport(g.op_norm, *bounds, norm_ok, fit,
                          norm_ok and (fit is None or fit.holds))


def verify_good_set(run: MsaRun, sites, s: int) -> EstimateReport:
    """Inverse-norm and decay estimate on an s-good set.

    Scale 0 uses ``scale0_bounds``, as the green sweep does; later scales
    use ``2 delta_{s-1}^-3`` times the worst inverse distance product over
    the contained enlarged blocks (coarsely ``delta_s^-3``), with decay
    ``alpha_s`` past ten enlarged diameters.  Both solve and gate in
    ``_estimate``, the green sweep's routine.  These are the paper's Green's
    function estimates on s-good sets, the conclusion of the induction.
    """
    report = check_good(run, sites, s)
    if not report.good:
        raise PreconditionViolated(
            f"set is not {s}-good: first failure {report.failures[0]}")
    sites_arr = as_sites(sites, run.model.dim)
    sched = run.schedule
    if s == 0:
        norm_bound, decay = scale0_bounds(run.model, sched)
        bounds = (math.log(norm_bound),) * 2
    else:
        bounds = (math.log(2.0) - 3.0 * sched.log_delta[s - 1]
                  + _log_phase_factor(run, s, sites_arr),
                  -3.0 * sched.log_delta[s])
        decay = (sched.alpha_seq[s], 10.0 * run.family(s).zeta_tilde)
    return _estimate(run.model, sites_arr, run.theta, run.energy, bounds,
                     decay)


def verify_block(run: MsaRun, s: int, center2, mode: str = "offdiag"
                 ) -> EstimateReport:
    """Estimates on one enlarged block ``T`` restriction at scale s.

    ``offdiag`` is for centers outside the current resonance set: norm at
    most ``delta_{s-1}^-2 delta_s^-2`` and transitional decay past a tenth
    of the enlarged diameter.  ``resonant`` is the distance-product bound
    ``delta_{s-1}^-2 / (||.-theta_s|| ||.+theta_s||)`` valid for every
    center of the scale.  These are the paper's resolvent estimates on the
    resonant blocks, which the induction's next scale consumes.
    """
    if s < 1:
        raise ValueError("block estimates start at scale 1")
    fam = run.family(s)
    key = tuple(int(v) for v in np.asarray(center2, dtype=np.int64))
    if key not in fam.enlarged:
        raise KeyError(f"{key} is not a center at scale {s}")
    res = run.res(s)
    sched = run.schedule
    if mode == "offdiag":
        if any(np.array_equal(np.asarray(key), row) for row in res.q2):
            raise PreconditionViolated(
                f"center {key} is resonant at scale {s}; the off-diagonal "
                "estimate does not apply")
        return _estimate(
            run.model, fam.enlarged[key], run.theta, run.energy,
            (-2.0 * sched.log_delta[s - 1] - 2.0 * sched.log_delta[s],
             -3.0 * sched.log_delta[s]),
            (sched.alpha_prime[s], fam.zeta_tilde / 10.0))
    if mode != "resonant":
        raise ValueError(f"unknown block estimate mode {mode!r}")
    omega = run.model.frequency.array()
    phase = run.theta + float(np.asarray(key, dtype=float) @ omega) / 2.0
    log_bound = (-2.0 * sched.log_delta[s - 1]
                 - float(log_torus_norm(phase - res.theta_s))
                 - float(log_torus_norm(phase + res.theta_s)))
    return _estimate(run.model, fam.enlarged[key], run.theta, run.energy,
                     (log_bound, math.inf), None)


def deformation_levels(run: MsaRun, s: int):
    """Deformation levels (descending scale) from the tracked block stack."""
    levels = []
    for sp in range(min(s, run.depth), 0, -1):
        fam = run.family(sp)
        blocks = [(np.asarray(key) / 2.0, fam.enlarged[key])
                  for key in fam.center_keys()]
        test_r = fam.radii[2] + fam.realized_pad
        levels.append(deformation_level(sp, blocks, test_radius=test_r))
    return levels
