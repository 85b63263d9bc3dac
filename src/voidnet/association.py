"""Random cell association and void-cell Monte Carlo.

Every user is assigned to the base station maximizing
W_iu * H_iu * d(u, B_i)^(-alpha), where the weight W_iu and the gain
H_iu are both i.i.d. per user-station link.  The nearest law sets
W = 1/H link-wise, collapsing the criterion to pure path loss.  Per-link
weighting is the model the closed forms describe (they depend on the law
of W * H only), and the one under which large weighting drives the void
probability down to its floor exp(-lambda_u / lambda_b).  Base stations
whose resulting cell is empty are "void"; their statistics are pooled
across stations and replications.

Under the unit and log-normal laws the association is exact in law
without drawing every link.  W * H = Y * G / m, with
ln Y ~ N(mu + mu_w, sigma2 + sigma2_w) and G ~ StandardGamma(m) (the
transformed-process view of weighted association; Dhillon & Andrews,
IEEE WCL 2014).  The stations are binned on a torus cell grid.  Each
user draws W and H exactly on every link to the stations of its near
block, the (2s+1)^2 cells around its own; call the best criterion there
B.  Ring k of cells around the user's cell lies at least (k - 1 + e) * l
away, with l the cell side and e * l the user's distance to the nearest
edge of its own cell, so one of its stations can come within
``NEAR_TIE_RTOL`` of B only if W * H > c = (1 - NEAR_TIE_RTOL) * B *
((k - 1 + e) l)^alpha.  The dominating event
D = {Y > y*} U {G > m c / y*} contains that event for any y*, and its
probability P(D) is closed form, so the ring's stations in D are drawn
by thinning (Devroye, *Non-Uniform Random Variate Generation*, 1986,
ch. VI): Binomial(n_k, P(D)) distinct stations picked uniformly, their
(Y, G) drawn conditioned on D and tested exactly.  A station outside D
can neither win nor tie, so the winner and ``near_tie`` are those of the
dense criterion.  The y* that minimises P(D) is tabulated once per
(channel, law) on a log-spaced grid of c, and each (user, ring)
threshold is rounded down to that grid, which keeps D dominating.  A
winner from a ring has its Y split into weight and shadowing by their
normal law given Y, so ``serving_gain`` keeps its law.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import gammaincc, gammainccinv, ndtr, ndtri

from .analytics import EstimateWithCI, pooled_fraction
from .channel import LOGNORMAL, NEAREST, ChannelParams, WeightLaw, sample_gain
from .geometry import SimulationWindow, _shortest_way
from .pointprocess import PointPattern, run_reps, sample_ppp

# Best-to-second-best criterion gap below which a user's association is
# considered ambiguous; a high fraction flags an undersized window.
NEAR_TIE_RTOL = 0.01

# Mean base stations per cell of the association grid, which has
# floor(sqrt(n_b / GRID_CELL_STATIONS)) cells per side (at least one).
GRID_CELL_STATIONS = 2.0

# Chebyshev radius s, in cells, of the near block whose links are all drawn.
NEAR_BLOCK_RADIUS = 2

# Users whose near-block links form one chunk of geometry at a time.
_NEAR_CHUNK_USERS = 512

# Log-spaced thresholds in each (channel, law)'s table of optimised
# dominating events; a (user, ring) threshold is rounded down to it.
THRESHOLD_TABLE_SIZE = 512


@dataclass(frozen=True)
class AssociationOutcome:
    """Result of one association round.

    ``assignments[u]`` is the serving base-station index of user u, and
    ``serving_distance[u]`` / ``serving_gain[u]`` are the length and the
    gain H of that serving link; ``cell_counts[i]`` is the number of users
    station i serves, so its zero entries are the void stations.
    ``near_tie[u]`` flags a runner-up criterion within ``NEAR_TIE_RTOL``
    of user u's best, an exact tie included.
    """

    assignments: np.ndarray
    serving_distance: np.ndarray
    serving_gain: np.ndarray
    cell_counts: np.ndarray
    near_tie: np.ndarray

    @property
    def near_tie_fraction(self) -> float:
        """Share of users whose association is ambiguous (window-adequacy diagnostic)."""
        return float(np.mean(self.near_tie)) if len(self.near_tie) else 0.0


def associate(
    bs: PointPattern,
    users: PointPattern,
    cp: ChannelParams,
    law: WeightLaw,
    rng: np.random.Generator,
) -> AssociationOutcome:
    """Assign every user to its criterion-maximizing base station.

    Ties break toward the lowest station index, except under the nearest
    law.  Its gains cancel out: the assignment is a periodic nearest-station
    query, which sends an exact tie (probability zero in PPP draws) to any
    tied station, and the only draws are the serving-link gains.
    Under the unit and log-normal laws the near-block links are drawn
    exactly and the far rings thinned (see the module docstring), in a fixed
    draw order for reproducibility: the near-block weights (log-normal law
    only), the near-block gains, the Binomial count of every (user, ring),
    the uniform picks of the counted stations, the conditional (Y, G) draws
    of those candidates, and last the split of Y into weight and shadowing
    for each user won by a far candidate (log-normal law only; the
    conditional law of the shadowing given Y is normal).
    """
    n_b = len(bs)
    if n_b == 0:
        raise ValueError("association requires at least one base station")

    if law.kind == NEAREST:
        # Gains cancel out of the nearest criterion, so assignment is a
        # plain (periodic) nearest-neighbour query.  Without a second
        # station its distance reads inf, so no user is a near tie; a user
        # on two coincident stations (ratio 0/0) is an exact tie.
        dd, ii = cKDTree(bs.points, boxsize=bs.window.side).query(users.points, k=2)
        assignments, serving_distance = ii[:, 0], dd[:, 0]
        serving_gain = sample_gain(cp, rng, size=len(users))
        ratio = np.divide(serving_distance, dd[:, 1], out=np.ones_like(serving_distance),
                          where=dd[:, 1] > 0)
        near_tie = ratio ** cp.alpha > 1.0 - NEAR_TIE_RTOL
    else:
        assignments, serving_distance, serving_gain, near_tie = _thinned_association(
            bs, users, cp, law, rng)

    cell_counts = np.bincount(assignments, minlength=n_b)
    return AssociationOutcome(
        assignments=assignments,
        serving_distance=serving_distance,
        serving_gain=serving_gain,
        cell_counts=cell_counts,
        near_tie=near_tie,
    )


def _dominating_probabilities(log_y, log_c, m: float, mu: float, sigma: float):
    """(P(Y > y*), P(G > m c / y*)) for ln y* = ``log_y`` and ln c = ``log_c``.

    The dominating event D = {Y > y*} U {G > m c / y*} contains
    {Y * G / m > c}, and P(D) = P_Y + P_G - P_Y * P_G, since Y and G are
    independent.  A degenerate Y (sigma = 0) is exceeded with probability
    0 or 1.
    """
    with np.errstate(over="ignore"):
        p_g = gammaincc(m, m * np.exp(log_c - log_y))
    if sigma > 0:
        p_y = ndtr((mu - log_y) / sigma)
    else:
        p_y = np.where(mu > log_y, 1.0, 0.0)
    return p_y, p_g


@functools.lru_cache(maxsize=64)
def _threshold_table(m: float, mu: float, sigma: float):
    """Optimised dominating events on a log-spaced threshold grid.

    Returns read-only arrays ``(log_c, log_y, p_y, p_g)``: entry 0 is
    c = 0, where D is every station (P(D) = 1), and the other
    ``THRESHOLD_TABLE_SIZE`` thresholds run from where P(D) is about 1 to
    where it is about 1e-15.  Each entry's y* minimises P(D) by a
    golden-section search in ln y*; 1 - P(D) is a product of two
    log-concave functions of ln y*, so P(D) is unimodal there.  Any y* is
    valid, so the search only has to be good.
    """
    floor = math.log(gammainccinv(m, 1.0 - 1e-6) / m)
    ceiling = math.log(gammainccinv(m, 1e-15) / m)
    log_c = np.linspace(mu - 8.0 * sigma + floor, mu + 8.0 * sigma + ceiling,
                        THRESHOLD_TABLE_SIZE)
    if sigma > 0:

        def p_dominating(log_y):
            p_y, p_g = _dominating_probabilities(log_y, log_c, m, mu, sigma)
            return p_y + p_g - p_y * p_g

        lo = np.full_like(log_c, mu - 10.0 * sigma)
        hi = np.maximum(log_c, mu) + 10.0 * sigma
        shrink = (math.sqrt(5.0) - 1.0) / 2.0
        for _ in range(60):
            left = hi - shrink * (hi - lo)
            right = lo + shrink * (hi - lo)
            go_right = p_dominating(left) > p_dominating(right)
            lo = np.where(go_right, left, lo)
            hi = np.where(go_right, hi, right)
        log_y = (lo + hi) / 2.0
    else:
        log_y = np.full_like(log_c, mu)
    log_c = np.concatenate(([-np.inf], log_c))
    log_y = np.concatenate(([mu], log_y))
    p_y, p_g = _dominating_probabilities(log_y, log_c, m, mu, sigma)
    table = (log_c, log_y, p_y, p_g)
    for column in table:
        column.flags.writeable = False
    return table


def _draw_dominating(log_y, p_y, p_g, m: float, mu: float, sigma: float, uniforms):
    """(ln Y, G) conditioned on D = {Y > y*} U {G > g*}, one row of ``uniforms`` each.

    ``p_y`` = P(Y > y*) and ``p_g`` = P(G > g*) as returned by
    :func:`_dominating_probabilities`.  Column 0 picks the branch: {Y > y*}
    with probability P_Y / P(D), else {Y <= y*, G > g*}, which together
    partition D.  Column 1 draws ln Y from its normal law truncated to the
    branch (``ndtri``), column 2 draws G by inverting its upper tail
    (``gammainccinv``): unconditioned on the first branch, above g* on the
    second.  A candidate needs P(D) > 0.
    """
    above = uniforms[:, 0] * (p_y + p_g - p_y * p_g) < p_y
    v = 1.0 - uniforms[:, 1:]  # in (0, 1], so no quantile is infinite
    if sigma > 0:
        z = np.where(above, -ndtri(v[:, 0] * p_y), ndtri(v[:, 0] * ndtr((log_y - mu) / sigma)))
        ln_y = mu + sigma * z
    else:
        ln_y = np.full(len(uniforms), mu)
    g = gammainccinv(m, v[:, 1] * np.where(above, 1.0, p_g))
    return ln_y, g


def _ranges(starts, lengths) -> np.ndarray:
    """The concatenated integer ranges [starts[i], starts[i] + lengths[i])."""
    lengths = np.asarray(lengths, dtype=np.intp)
    shift = np.asarray(starts, dtype=np.intp) - (np.cumsum(lengths) - lengths)
    return np.arange(int(lengths.sum()), dtype=np.intp) + np.repeat(shift, lengths)


def _top_two(values, station, lengths, n_b: int):
    """Per consecutive segment of ``values``: best, its station, its index, second best.

    Segment i holds ``lengths[i]`` entries.  The best goes to the lowest
    station index on ties; the second best is the best of the rest.  An
    empty segment reads (-inf, ``n_b``, -1, -inf).
    """
    n = len(lengths)
    best, second = np.full(n, -np.inf), np.full(n, -np.inf)
    top_station, top = np.full(n, n_b, dtype=np.intp), np.full(n, -1, dtype=np.intp)
    filled = lengths > 0
    if len(values):
        owner = np.repeat(np.arange(n), lengths)
        starts = (np.cumsum(lengths) - lengths)[filled]
        best[filled] = np.maximum.reduceat(values, starts)
        tied = values == best[owner]
        top_station[filled] = np.minimum.reduceat(np.where(tied, station, n_b), starts)
        top[filled] = np.flatnonzero(tied & (station == top_station[owner]))
        rest = values.copy()
        rest[top[filled]] = -np.inf
        second[filled] = np.maximum.reduceat(rest, starts)
    return best, top_station, top, second


class _CellGrid:
    """Base stations binned on a g x g torus cell grid, with cell offsets grouped by ring.

    Ring k around a cell holds the cells at Chebyshev cell distance k on
    the torus, each cell once, so the rings around any cell partition the
    grid; a point in ring k lies at least (k - 1) * ``cell_side`` from any
    point of the centre cell.  Entries ``ring_first[k]`` to
    ``ring_first[k + 1] - 1`` of the offset arrays ``di`` and ``dj`` are
    ring k's cell offsets; the near block is rings 0 to s.
    """

    def __init__(self, bs: PointPattern):
        self.n_b = len(bs)
        self.g = g = max(1, int(math.sqrt(self.n_b / GRID_CELL_STATIONS)))
        self.cell_side = bs.window.side / g
        xy = self.xy_of(bs.points)
        cells = xy[:, 0] * g + xy[:, 1]
        self.by_cell = np.argsort(cells, kind="stable")
        self.counts = np.bincount(cells, minlength=g * g)
        self.first = np.cumsum(self.counts) - self.counts
        fold = np.minimum(np.arange(g), g - np.arange(g))
        ring_of = np.maximum.outer(fold, fold).ravel()
        by_ring = np.argsort(ring_of, kind="stable")
        self.ring_first = np.searchsorted(ring_of[by_ring], np.arange(g // 2 + 2))
        self.di, self.dj = np.divmod(by_ring, g)

    def xy_of(self, points) -> np.ndarray:
        return np.minimum((points / self.cell_side).astype(np.intp), self.g - 1)

    def cells_at(self, centre_xy, offsets) -> np.ndarray:
        """Flat index of the cell at offset ``offsets[i]`` from cell ``centre_xy[i]``."""
        g = self.g
        x = (centre_xy[:, 0] + self.di[offsets]) % g
        return x * g + (centre_xy[:, 1] + self.dj[offsets]) % g

    def stations_of(self, cells) -> np.ndarray:
        """The stations of every cell in ``cells``, cell by cell."""
        return self.by_cell[_ranges(self.first[cells], self.counts[cells])]

    def near_blocks(self):
        """Stations of every cell's near block, cell after cell, and their counts per cell."""
        g = self.g
        n_near = int(self.ring_first[min(NEAR_BLOCK_RADIUS + 1, len(self.ring_first) - 1)])
        centre_xy = np.stack(np.divmod(np.arange(g * g), g), axis=1)
        block = self.cells_at(np.repeat(centre_xy, n_near, axis=0),
                              np.tile(np.arange(n_near), g * g))
        return self.stations_of(block), self.counts[block].reshape(g * g, n_near).sum(axis=1)

    def ring_reach(self, points, rings) -> np.ndarray:
        """(len(points), len(rings)) lower bounds on the distance from each
        point to ring k around its cell: (k - 1 + e) * ``cell_side``, with
        e * ``cell_side`` the point's distance to the nearest edge of its cell."""
        inside = points / self.cell_side - self.xy_of(points)
        edge = np.minimum(inside, 1.0 - inside).min(axis=1).clip(0.0)
        return (rings - 1 + edge[:, None]) * self.cell_side

    def ring_counts(self, centres, rings) -> np.ndarray:
        """(len(centres), len(rings)) station counts of each ring around each centre cell."""
        g = self.g
        prefix = np.zeros((3 * g + 1, 3 * g + 1), dtype=self.counts.dtype)
        prefix[1:, 1:] = np.tile(self.counts.reshape(g, g), (3, 3)).cumsum(axis=0).cumsum(axis=1)
        line = np.arange(g)

        def box(k):  # stations within Chebyshev cell distance k, each cell once
            if 2 * k + 1 >= g:
                return np.full(g * g, self.n_b)
            lo, hi = line + g - k, line + g + k + 1
            return (prefix[np.ix_(hi, hi)] - prefix[np.ix_(lo, hi)]
                    - prefix[np.ix_(hi, lo)] + prefix[np.ix_(lo, lo)]).ravel()

        boxes = np.array([box(k)[centres] for k in range(rings[0] - 1, rings[-1] + 1)]
                         if len(rings) else np.zeros((1, len(centres)), dtype=np.intp))
        return np.diff(boxes, axis=0).T

    def pick(self, rng, centre_xy, ring, n, drawn):
        """``drawn[i]`` distinct stations picked uniformly from ring ``ring[i]``
        around cell ``centre_xy[i]``, which holds ``n[i]`` stations.

        Returns (i, station) per pick, grouped by i.  The ring's stations are
        numbered 0 .. n[i] - 1 cell by cell; each pick draws a number
        uniformly and a repeated one is drawn again, which is invariant
        under renumbering, so uniform over subsets for any drawn[i] <= n[i].
        """
        start = self.ring_first[ring]
        size = self.ring_first[ring + 1] - start
        cells = self.cells_at(np.repeat(centre_xy, size, axis=0), _ranges(start, size))
        held = self.counts[cells]
        ends = np.cumsum(held)
        base = np.cumsum(n) - n
        picker = np.repeat(np.arange(len(n)), drawn)
        at = np.full(len(picker), -1)
        pending = np.arange(len(picker))
        while len(pending):
            i = picker[pending]
            at[pending] = base[i] + (rng.random(len(pending)) * n[i]).astype(np.intp)
            by_at = np.argsort(at, kind="stable")
            repeat = by_at[1:][at[by_at[1:]] == at[by_at[:-1]]]
            at[repeat] = -1
            pending = np.sort(repeat)
        cell = np.searchsorted(ends, at, side="right")
        return picker, self.by_cell[self.first[cells[cell]] + at - (ends[cell] - held[cell])]


def _thinned_association(bs, users, cp, law, rng):
    """The unit and log-normal laws' association (see :func:`associate`).

    Returns (assignments, serving distance, serving gain, near tie), one
    entry per user.
    """
    n_b, n_u = len(bs), len(users)
    grid = _CellGrid(bs)
    user_xy = grid.xy_of(users.points)
    side, half_alpha = bs.window.side, cp.alpha / 2.0
    user_x, user_y = (np.ascontiguousarray(c) for c in users.points.T)
    bs_x, bs_y = (np.ascontiguousarray(c) for c in bs.points.T)

    def deltas(x, y, station):
        """Torus displacements from each station to (x, y), bit for bit as
        ``wrapped_deltas`` forms them for (x, y) about the station."""
        return _shortest_way(x - bs_x[station], side), _shortest_way(y - bs_y[station], side)

    # Near block: every link drawn, as one flat (user, station) list.  All
    # its weights and gains are drawn first; its geometry is formed
    # ``_NEAR_CHUNK_USERS`` users at a time, which bounds a draw's memory.
    block_stations, block_len = grid.near_blocks()
    block_first = np.cumsum(block_len) - block_len
    user_cell = user_xy[:, 0] * grid.g + user_xy[:, 1]
    near_len = block_len[user_cell]
    near_first, n_links = np.cumsum(near_len) - near_len, int(near_len.sum())
    weights = law.sample_weights(n_links, rng)
    gains = sample_gain(cp, rng, size=n_links)
    best, second = np.empty(n_u), np.empty(n_u)
    best_station, best_link = np.empty(n_u, dtype=np.intp), np.empty(n_u, dtype=np.intp)
    for lo in range(0, n_u, _NEAR_CHUNK_USERS):
        chunk = slice(lo, lo + _NEAR_CHUNK_USERS)
        chunk_len = near_len[chunk]
        links = slice(near_first[lo], near_first[lo] + int(chunk_len.sum()))
        station = block_stations[_ranges(block_first[user_cell[chunk]], chunk_len)]
        dx, dy = deltas(np.repeat(user_x[chunk], chunk_len), np.repeat(user_y[chunk], chunk_len),
                        station)
        with np.errstate(divide="ignore", invalid="ignore"):
            criterion = weights[links] * gains[links] / (dx * dx + dy * dy) ** half_alpha
        best[chunk], best_station[chunk], top, second[chunk] = _top_two(
            criterion, station, chunk_len, n_b)
        best_link[chunk] = top + links.start

    # Far rings k > s, thinned by the dominating event of their threshold.
    # W * H = Y * G / m, with ln Y ~ N(mu, sigma^2) and G ~ StandardGamma(m).
    m, mu, sigma = cp.m, cp.mu + law.mu_w, math.sqrt(cp.sigma2 + law.sigma2_w)
    log_c_table, log_y_table, p_y_table, p_g_table = _threshold_table(m, mu, sigma)
    rings = np.arange(NEAR_BLOCK_RADIUS + 1, grid.g // 2 + 1)
    ring_n = grid.ring_counts(user_cell, rings)
    with np.errstate(divide="ignore"):
        log_c = (math.log1p(-NEAR_TIE_RTOL) + np.log(np.maximum(best, 0.0))[:, None]
                 + cp.alpha * np.log(grid.ring_reach(users.points, rings)))
    entry = np.searchsorted(log_c_table, log_c, side="right") - 1
    p_y, p_g = p_y_table[entry], p_g_table[entry]
    drawn = rng.binomial(ring_n, p_y + p_g - p_y * p_g)

    pairs = np.flatnonzero(drawn)
    pair_user, pair_ring = np.divmod(pairs, len(rings))
    cand_pair, cand_station = grid.pick(rng, user_xy[pair_user], rings[pair_ring],
                                        ring_n.ravel()[pairs], drawn.ravel()[pairs])
    cand_entry = entry.ravel()[pairs[cand_pair]]
    ln_y, gamma = _draw_dominating(log_y_table[cand_entry], p_y_table[cand_entry],
                                   p_g_table[cand_entry], m, mu, sigma,
                                   rng.random((len(cand_pair), 3)))
    cand_user = pair_user[cand_pair]
    cand_dx, cand_dy = deltas(user_x[cand_user], user_y[cand_user], cand_station)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cand_criterion = (np.exp(ln_y) * gamma / m
                          / (cand_dx * cand_dx + cand_dy * cand_dy) ** half_alpha)
    cand_best, cand_best_station, cand_top, cand_second = _top_two(
        cand_criterion, cand_station, np.bincount(cand_user, minlength=n_u), n_b)

    far = (cand_best > best) | ((cand_best == best) & (cand_best_station < best_station))
    near = ~far
    top = np.where(far, cand_best, best)
    runner_up = np.where(far, np.maximum(best, cand_second), np.maximum(second, cand_best))
    assignments = np.where(far, cand_best_station, best_station)

    serving_distance, serving_gain = np.empty(n_u), np.empty(n_u)
    serving_distance[near] = np.hypot(*deltas(user_x[near], user_y[near], best_station[near]))
    serving_gain[near] = gains[best_link[near]]
    won = cand_top[far]
    ln_x = ln_y[won]
    if law.kind == LOGNORMAL and sigma > 0:
        # ln X | ln Y is normal: the regression of ln X on ln Y, with
        # residual variance sigma2 * sigma2_w / (sigma2 + sigma2_w).
        ln_x = (cp.mu + cp.sigma2 / sigma**2 * (ln_x - mu)
                + math.sqrt(cp.sigma2 * law.sigma2_w) / sigma * rng.standard_normal(len(won)))
    elif law.kind == LOGNORMAL:
        ln_x = np.full(len(won), cp.mu)
    serving_distance[far] = np.hypot(cand_dx[won], cand_dy[won])
    serving_gain[far] = np.exp(ln_x) * gamma[won] / m
    # A user on one station reads x / inf: 0 (no tie) or, on two coincident
    # stations, nan, which the equality counts as the exact tie it is.
    with np.errstate(invalid="ignore"):
        near_tie = (runner_up / top > 1.0 - NEAR_TIE_RTOL) | (runner_up == top)
    return assignments, serving_distance, serving_gain, near_tie


def _station_counts(bs, users, cp, law, rng) -> np.ndarray:
    """``associate(...).cell_counts``; under the nearest law, one periodic
    nearest-station query that draws nothing from ``rng``."""
    if law.kind != NEAREST or not len(bs):
        return associate(bs, users, cp, law, rng).cell_counts
    _, nearest = cKDTree(bs.points, boxsize=bs.window.side).query(users.points, k=1)
    return np.bincount(nearest, minlength=len(bs))


def associated_pattern(cell_counts: np.ndarray, bs: PointPattern) -> PointPattern:
    """Sub-pattern of base stations that serve at least one user.

    ``cell_counts`` as :func:`associate` reports them.
    """
    return PointPattern(points=bs.points[cell_counts > 0], window=bs.window)


def _replication_cells(
    lambda_b: float,
    lambda_u: float,
    cp: ChannelParams,
    law: WeightLaw,
    window: SimulationWindow,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-station user counts for one fresh replication.

    A draw with no station contributes no cells; a window that
    ``harness.validate`` accepts makes one vanishingly unlikely.
    """
    bs = sample_ppp(lambda_b, window, rng)
    if len(bs) == 0:
        return np.zeros(0, dtype=int)
    return _station_counts(bs, sample_ppp(lambda_u, window, rng), cp, law, rng)


def _padded(hists: list[np.ndarray]) -> np.ndarray:
    """Per-replication histograms as one (reps, width) matrix, zero-padded to the widest."""
    width = max(len(h) for h in hists)
    return np.array([np.pad(h, (0, width - len(h))) for h in hists])


def _pooled_columns(counts: np.ndarray, weights: np.ndarray) -> list[EstimateWithCI]:
    """One pooled estimate per column of the (width, columns) ``weights``.

    ``counts`` is the (reps, width) matrix of :func:`_padded`; in column j
    a cell holding k users weighs ``weights[k, j]``, in [0, 1].  The sums
    of squared weights set the interval's per-cell variance floor (see
    :func:`voidnet.analytics.pooled_fraction`); 0/1 weights are their own
    squares, so an indicator column keeps the cell-count floor bit for bit.
    """
    sums = counts @ weights
    squares = counts @ weights**2
    cells = counts.sum(axis=1)
    return [
        EstimateWithCI(*pooled_fraction(column, cells, column_squares), reps=len(counts))
        for column, column_squares in zip(sums.T, squares.T)
    ]


def _void_estimates(hists: list[np.ndarray], retain) -> list[EstimateWithCI]:
    """Pooled void fraction at each user retention probability ``p`` in ``retain``.

    Thinning the users of a cell that holds K of them independently with
    keep probability p leaves it void with probability exactly (1 - p)^K,
    so a replication's expected void count at p is sum_k h[k] (1 - p)^k
    (conditional Monte Carlo).  At p = 1 that is h[0], the plain count.
    These are the weight columns of :func:`_pooled_columns`, so the
    interval's per-cell variance floor is that of the weights pooled; at
    p = 1 the weights are 0/1, whose floor is the cell count.
    """
    counts = _padded(hists)
    void_weights = (1.0 - np.asarray(retain, dtype=float)) ** np.arange(counts.shape[1])[:, None]
    return _pooled_columns(counts, void_weights)


def _cell_histograms(
    lambda_b: float,
    lambda_u: float,
    cp: ChannelParams,
    law: WeightLaw,
    reps: int,
    window: SimulationWindow,
    seed: int,
    half_width: float | None,
    retain=(1.0,),
) -> list[np.ndarray]:
    """Per-replication histograms ``h``, ``h[n]`` = stations serving n users.

    The one draw and stopping path of :func:`void_probability_sweep`,
    :func:`void_probability_mc` and :func:`cell_count_pmf_mc`; a
    ``half_width`` target applies to the pooled void fraction at every
    retention probability in ``retain`` (bin 0 over the sum at p = 1).
    """
    if lambda_b <= 0:
        raise ValueError("lambda_b must be > 0")
    if half_width is not None and not half_width > 0:
        raise ValueError(f"half_width must be > 0, got {half_width}")

    def draw(rng: np.random.Generator) -> np.ndarray:
        return np.bincount(_replication_cells(lambda_b, lambda_u, cp, law, window, rng), minlength=1)

    def done(hists: list[np.ndarray]) -> bool:
        return all(e.half_width <= half_width for e in _void_estimates(hists, retain))

    return run_reps(draw, seed, reps, None if half_width is None else done)


def grid_ratios(ratio_grid) -> list[float]:
    """A user/station ratio grid as floats; ValueError unless non-empty, finite and > 0."""
    ratios = [float(r) for r in ratio_grid]
    if not ratios or not all(math.isfinite(r) and r > 0 for r in ratios):
        raise ValueError(f"ratio grid entries must be finite and > 0, got {ratios}")
    return ratios


def void_probability_sweep(
    ratio_grid,
    lambda_u: float,
    cp: ChannelParams,
    law: WeightLaw,
    reps: int,
    window: SimulationWindow,
    seed: int,
    half_width: float | None = None,
) -> list[EstimateWithCI]:
    """Void probability at every user/station ratio of a grid, from one draw per replication.

    Each replication draws stations at lambda_u / r_top and users at
    lambda_u on ``window``, with r_top = max(ratio_grid).  Users at ratio
    r are an independent r / r_top thinning of those, and the void
    probability depends on the intensities only through their ratio
    (scaling every distance leaves the association argmax unchanged), so
    every ratio is estimated on the same draw by the exact conditional
    void probability (1 - r/r_top)^K of a cell holding K users.  The
    estimate at ratio r is that of a window of side
    ``window.side * sqrt(r / r_top)`` at lambda_b = lambda_u / r, which
    holds the same expected station count.  The interval at r < r_top
    takes its per-cell variance floor from those weights and their
    squares, which spread less than 0/1 void indicators, so it may be
    narrower than a binomial one over the cells.

    With ``half_width`` set, batches of ``reps`` are added until every
    ratio's 95% half-width is at most ``half_width``; each estimate's
    ``reps`` is the realized, shared count.  A one-ratio grid is exactly
    :func:`void_probability_mc` at lambda_b = lambda_u / ratio.
    """
    ratios = grid_ratios(ratio_grid)
    r_top = max(ratios)
    retain = [r / r_top for r in ratios]
    hists = _cell_histograms(lambda_u / r_top, lambda_u, cp, law, reps, window, seed, half_width,
                             retain)
    return _void_estimates(hists, retain)


def void_probability_mc(
    lambda_b: float,
    lambda_u: float,
    cp: ChannelParams,
    law: WeightLaw,
    reps: int,
    window: SimulationWindow,
    seed: int,
    half_width: float | None = None,
) -> EstimateWithCI:
    """Monte-Carlo void probability, pooled over stations and replications.

    All cells are exchangeable on the torus, so pooling is unbiased; the
    interval accounts for within-replication correlation by treating each
    replication as a cluster (see :func:`voidnet.analytics.pooled_fraction`).

    With ``half_width`` set, batches of ``reps`` replications are added
    until the 95% half-width is at most ``half_width`` (the sequential
    rule of :func:`voidnet.pointprocess.run_reps`); the result's ``reps``
    is the realized count.  This is the one-ratio case of
    :func:`void_probability_sweep` (retention probability 1), which also
    allows ``lambda_u = 0``.
    """
    hists = _cell_histograms(lambda_b, lambda_u, cp, law, reps, window, seed, half_width)
    return _void_estimates(hists, (1.0,))[0]


def cell_count_pmf_mc(
    lambda_b: float,
    lambda_u: float,
    cp: ChannelParams,
    law: WeightLaw,
    reps: int,
    window: SimulationWindow,
    seed: int,
    half_width: float | None = None,
) -> tuple[list[EstimateWithCI], float]:
    """Empirical pmf of the number of users in a cell, and its mean.

    Returns ``(bins, mean_users_per_cell)``: ``bins[n]``, the pooled share
    of cells holding n users, is identity column n of
    :func:`_pooled_columns`.  Shares the replication streams and the
    sequential ``half_width`` rule of :func:`void_probability_mc` (the
    target applies to the n = 0 bin), so ``bins[0]`` is its estimate.
    """
    counts = _padded(_cell_histograms(lambda_b, lambda_u, cp, law, reps, window, seed, half_width))
    width = counts.shape[1]
    mean = float((counts @ np.arange(width)).sum() / counts.sum())
    return _pooled_columns(counts, np.eye(width)), mean
