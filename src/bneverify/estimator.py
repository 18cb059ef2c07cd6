"""Grid-search estimators of the empirical utility loss.

  * estimate_ex_interim: double-grid sweep over (valuation, deviation bid)
    pairs for private-value data; each candidate's allocation counts and
    payment sum are computed once, so each grid pair is a lookup.
  * estimate_ex_ante: one constant best-response search per partition cell
    plus a direct estimate of the current strategy's expected utility.

Both run on market views of the records, built by _market, the only
function here that reads the rule, from the records the call reads: all of
them ex interim, one partition cell's ex ante. A market gives the
per-record utility of the recorded bids and, per candidate bid, allocation
counts, payment sum and (ex ante) utility sum, all decided by one
per-record table that _market builds (the critical bids of a slots market,
the opponents' best totals W of a bundles market); nothing is cached. Every
record falls in one cell, so each record's table is still computed once
per agent. Ex ante, each cell gathers its rows of the bids and the agent's
values, and adds its recorded bids' utilities to an exact running sum
(_ExactSum), so no array over all records is held while the cells are
worked through. Ex interim, one outcomes call per agent serves the
candidates and the current strategy's bids, stacked.

  * Slots (first price, discriminatory, uniform price): against a record's
    competing bids, the agent's slot mu wins exactly when its bid reaches
    the record's critical bid for that slot (Lehmann, O'Callaghan and
    Shoham 2002). First price is the one-slot pay-as-bid auction in which
    every opponent counts as senior, so exact ties lose.
  * Bundles (combinatorial): one solve over the records without the agent
    gives, per record, the opponents' best total W[S] once the agent takes
    bundle S. A bid then takes the argmax of declining (W[0]) and taking S
    (its bid for S plus W[S]), one option at a time: all recorded bids at
    once, candidates over blocks of about _PAIR_BLOCK (candidate, record)
    pairs. Profiles whose top two options lie within rounding go to
    winner_determination, so every choice is the solver's (see _Bundles).

Determinism contract: every mean over records is fixed by the multiset of
records alone, never by their order, the numpy version or the platform.
Allocation means are exact counts over N; slot win counts come from
searchsorted over each slot's sorted critical bids. Each slot sorts its
records once by critical bid, and only runs of equal critical bids are
ordered further: by own marginal value ex ante, by the raw competing bid
for uniform-price payments. Ex ante, the value won in a slot is a
sequential prefix sum over that order, and the slots' sums are added in
slot order. Every other sum over records is exact and rounded once, so
it equals math.fsum over its terms. Where math.fsum does not run itself,
the exact sum is a Python int in units of 2**-1074 (_SUBNORMAL, of which
every finite float is an integer multiple):
  * every payment sum. Pay as bid, it is the sum over j of n_j * P_j (n_j
    records win exactly j units, P_j is the float sum of the first j
    bids); first price is its one-term case. Uniform price, it adds exact
    prefix sums of the competing bids. A combinatorial winner pays the
    candidate's own bid for its bundle, so the sum is over bundles b of
    n_b * bid_b.
  * the current strategy's utility sum from the recorded bids, ex ante
    over the cells and ex interim for a bids-only dataset: _ExactSum, the
    one exact accumulator of float arrays.
A combinatorial cell's utility sums are math.fsum per candidate row, which
on rows that short is about five times faster than _ExactSum per row (121
rows of 150 records: 0.5 against 2.6 ms on one x86 core). A slot record's
utility under the recorded bids sums the value won over its won slots,
left to right (pay as bid, its bids the same way), and subtracts the
payment once. Argmax ties break toward the lexicographically smallest grid
point.
"""
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels_py as kernels
from .model import Dataset, GameConfig, Grid, Partition, split_by_partition
from .mechanisms import best_total_tables, winner_determination

__all__ = [
    "ExInterimEstimate",
    "ExAnteEstimate",
    "estimate_ex_interim",
    "estimate_ex_ante",
    "valid_actions",
    "search_cost",
    "profile_point_utilities",
    "FLAG_DEGRADED",
    "FLAG_UNOBSERVED",
]

FLAG_DEGRADED = ("degraded: current-strategy term evaluated at stored bids; "
                 "mapped-width dispersion term inapplicable")
FLAG_UNOBSERVED = "unobserved cell"

# gain-table elements per block of valuation rows in estimate_ex_interim
_GAIN_BLOCK = 1 << 18
# (candidate, record) pairs per block of _Bundles.outcomes
_PAIR_BLOCK = 1 << 15


def valid_actions(config: GameConfig, points: np.ndarray) -> np.ndarray:
    """Filter lattice points down to the mechanism's feasible action set.

    Bid vectors that hold several units' bids must be non-increasing; the
    other mechanisms accept the whole cube.
    """
    points = np.asarray(points, dtype=np.float64)
    if config.mechanism.sorted_bids:
        keep = np.all(np.diff(points, axis=1) <= 0.0, axis=1)
        return points[keep]
    return points


# a payment sum's cost in gain-table entries: on a 2-vCPU x86 host it takes
# about 1.1 us and 330 bytes per bid coordinate, a gain-table entry about
# 25 ns and a bundle option about 18 ns
_PAYMENT_SUM_WORK = 45


def search_cost(config: GameConfig, grid: Grid, profile=None,
                partitions=None, records: int = 0) -> tuple:
    """(candidates, markets, work, coords) of one grid width's search,
    without building the lattice: the points valid_actions keeps, the
    markets, the work in gain-table entries and the bid coordinates per
    market. Ex interim (partitions None) each agent has one market, whose
    outcomes call stacks the profile's current bids, if any, after the
    candidates, and each candidate fills a gain-table row; ex ante each
    agent has one per cell of partitions[agent]. Each market makes every
    bid's payment sum exactly; a bundles market also scores every bundle
    option of each (candidate, record) pair, over records records (0 while
    unknown)."""
    mech = config.mechanism
    per_axis, dim = grid.points_per_axis, grid.dim
    # sorted bids keep the non-increasing points: multisets of dim values
    k = (math.comb(per_axis + dim - 1, dim) if mech.sorted_bids
         else per_axis ** dim)
    interim = partitions is None
    markets = (config.n_agents if interim
               else sum(map(len, partitions.values())))
    bids = 2 if interim and profile is not None else 1
    work = markets * k * (bids * _PAYMENT_SUM_WORK + interim * k)
    if mech.kind == "first_price_combinatorial":
        work += config.n_agents * bids * k * records * mech.bid_dim
    return k, markets, work, bids * k * dim


def _candidates(ds: Dataset, grid: Grid, config: GameConfig) -> np.ndarray:
    """Check ds and grid against config; return the grid's feasible bids."""
    ds.validate(config)
    if grid.dim != config.mechanism.bid_dim:
        raise ValueError(
            f"grid dimension {grid.dim} does not match the action dimension "
            f"{config.mechanism.bid_dim}")
    return valid_actions(config, grid.points())


# values per _bucket_total call; more could carry a bucket sum past 2**53
_EXACT_SUM_MAX = 1 << 26
# values per pass of _bucket_total; its temporaries (64 KB each) stay small
# beside the arrays of one ex ante cell
_EXACT_SUM_CHUNK = 1 << 13
# np.frexp exponents of nonzero finite floats lie in [-1073, 1024]
_FREXP_LOW, _FREXP_BUCKETS = -1073, 2098
# every finite float is an integer multiple of 2**-1074, the smallest
# subnormal; sums of such integers are exact, and int / _SUBNORMAL rounds once
_SUBNORMAL = 1 << 1074


def _bucket_total(values: np.ndarray) -> int:
    """The exact sum of at most _EXACT_SUM_MAX finite values, as a Python
    int in units of 2**-1074.

    Each value is frac * 2**e (np.frexp), and frac * 2**27 splits into an
    integer high part, |high| <= 2**27, and a low part in [0, 1), a multiple
    of 2**-26. Both are summed per exponent with np.bincount: with at most
    2**26 values every partial sum is at most 2**53 of its unit (1 or
    2**-26), so the bucket sums are exact. They are combined as Python ints
    in units of 2**(_FREXP_LOW - 53) = 2**-1126, in which every finite
    float, and so the total, is a multiple of 2**52.
    """
    high_sums = np.zeros(_FREXP_BUCKETS)
    low_sums = np.zeros(_FREXP_BUCKETS)
    for lo in range(0, len(values), _EXACT_SUM_CHUNK):
        frac, exp = np.frexp(values[lo:lo + _EXACT_SUM_CHUNK])
        np.ldexp(frac, 27, out=frac)
        high = np.floor(frac)
        frac -= high
        bucket = exp.astype(np.intp)
        bucket -= _FREXP_LOW
        high_sums += np.bincount(bucket, high, _FREXP_BUCKETS)
        low_sums += np.bincount(bucket, frac, _FREXP_BUCKETS)
    low_sums *= 2.0 ** 26
    used = np.flatnonzero((high_sums != 0) | (low_sums != 0))[::-1].tolist()
    # the sum is total * 2**(bucket + _FREXP_LOW - 53), Horner from the top
    total, bucket = 0, used[0] if used else 0
    for b in used:
        total = ((total << (bucket - b)) + (int(high_sums[b]) << 26)
                 + int(low_sums[b]))
        bucket = b
    return (total << bucket) >> 52   # exact, into units of 2**-1074


class _ExactSum:
    """The estimator's one exact sum of float arrays, added one at a time
    and rounded once by value() (half to even; an exact zero is +0.0):
    math.fsum over the arrays joined, whatever the order of the values and
    however they are grouped.

    The finite values' exact sum is kept as an int in units of 2**-1074,
    _bucket_total's over _EXACT_SUM_MAX values at a time, so it stays exact
    past 2**26 values. The non-finite values are summed apart, as math.fsum
    sums them: a NaN gives NaN, else an infinity that infinity, and
    infinities of both signs raise ValueError. The one difference from
    math.fsum: where its running partial sums overflow, which depends on
    the order of the values, it raises OverflowError; value() returns the
    exact sum rounded, raising OverflowError only when that lies past the
    float range.
    """

    def __init__(self):
        self._total = 0        # finite values, units of 2**-1074
        self._special = 0.0    # the sum of the non-finite values
        self._infinite = 0.0   # the sum of the infinite values

    def add(self, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64).ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            if not math.isfinite(values.sum()):
                finite = np.isfinite(values)
                rest = values[~finite]
                self._special += float(rest.sum())
                self._infinite += float(rest[np.isinf(rest)].sum())
                values = values[finite]
        for lo in range(0, len(values), _EXACT_SUM_MAX):
            self._total += _bucket_total(values[lo:lo + _EXACT_SUM_MAX])

    def value(self) -> float:
        if self._special != 0.0:   # NaN or an infinity was added
            if math.isnan(self._infinite):
                raise ValueError("-inf + inf in fsum")
            return self._special
        return self._total / _SUBNORMAL


def _sort_ties(keys: np.ndarray, tie: np.ndarray):
    """Order sorting keys ascending, each run of equal keys ordered by tie;
    returns the order and the keys in it.

    The order is np.lexsort((tie, keys)) up to swaps of records equal in
    both, but only the records in tied runs are sorted a second time.
    """
    order = np.argsort(keys)
    ranked = keys.take(order)
    start = np.empty(len(ranked), dtype=bool)
    start[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=start[1:])
    if start.all():
        return order, ranked
    # positions in runs of two or more; a run's id is its start's rank
    pos = np.flatnonzero(~(start & np.append(start[1:], True)))
    run = np.cumsum(start)[pos]
    order[pos] = order[pos][np.lexsort((tie[order[pos]], run))]
    return order, ranked   # a tied run holds equal keys in any order


def _exact_ints(values: np.ndarray):
    """Non-negative floats as exact Python ints n (an object array) and one
    shift s in [0, 1074], each value being n * 2**(s - 1074). s is as large
    as the smallest nonzero value allows, which keeps the ints short."""
    bits = (np.asarray(values, dtype=np.float64) + 0.0).view(np.int64)
    exp = bits >> 52   # +0.0 above turned -0.0 into +0.0: no sign bit
    mant = (bits & ((1 << 52) - 1)) | ((exp > 0).astype(np.int64) << 52)
    unit = np.maximum(exp, 1) - 1   # value = mant * 2**(unit - 1074)
    nonzero = mant > 0
    shift = int(unit[nonzero].min(initial=1074))
    ints = mant.astype(object)
    # in place, so each unshifted int is freed as its shifted one is made
    np.left_shift(ints, np.where(nonzero, unit - shift, 0).astype(object),
                  out=ints)
    return ints, shift


def _count_weighted_ints(counts: np.ndarray, values: np.ndarray):
    """Exact sum over j of counts[k, j] * values[k, j] per k, for
    non-negative float values, as ints in units of 2**-1074."""
    ints, shift = _exact_ints(values)
    return (counts.astype(object) * ints).sum(axis=1) << shift


def _rounded(total) -> np.ndarray:
    """Exact ints in units of 2**-1074 (an object array), each rounded once
    to the nearest float."""
    return (total / _SUBNORMAL).astype(np.float64)


def _count_weighted_sums(counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Correctly rounded sum over j of counts[k, j] * values[k, j], per k:
    the float math.fsum gives over counts[k, j] copies of each values[k, j]."""
    return _rounded(_count_weighted_ints(counts, values))


def _exact_prefix_sums(values: np.ndarray):
    """Prefix sums of non-negative floats (len + 1 of them, from 0) as exact
    ints, with their shift (see _exact_ints). Each int is made once, from an
    iterator, and the per-value ints are freed on return."""
    ints, shift = _exact_ints(values)
    return np.fromiter(itertools.accumulate(ints, initial=0), dtype=object,
                       count=len(ints) + 1), shift


def _slot_sums(rows, wins):
    """Per record r, the sum of rows[r, :max(wins[r], 1)], added left to
    right in place: slot mu's entries are added where wins > mu (for one
    slot, a view of rows). Where wins > 0 these are the floats of
    kernels.won_sums(rows, wins); where wins == 0 the caller zeroes them.
    """
    total = rows[:, 0] if rows.shape[1] == 1 else rows[:, 0].copy()
    for mu in range(1, rows.shape[1]):
        np.add(total, rows[:, mu], out=total, where=wins > mu)
    return total


def _zero_unless(values: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """np.where(keep, values, 0.0) bit for bit, in place: a bitwise and of
    each float with all ones or all zeros, with no branch per element."""
    bits = values.view(np.int64)
    np.bitwise_and(bits, -keep.view(np.int8), out=bits)
    return values


class _Slots:
    """Agent's m slots against every record's competing bids.

    Slot mu wins a record exactly when the mu-th bid reaches the record's
    critical bid for it; critical bids rise with mu, so a non-increasing bid
    vector wins its first slots, and the records a bid b wins in slot mu are
    those with a critical bid <= b[mu]. Winners pay as bid, or the uniform
    price read off comp, the competing bids sorted per record (None for pay
    as bid). Outcomes of constant bids are lookups into the records sorted
    once per slot. own, the recorded bids, is read by utilities alone.
    """

    def __init__(self, own, crit, comp, scale):
        self.own = own
        self.crit = crit
        self.comp = comp
        self.units = crit.shape[1]
        self.scale = scale

    def utilities(self, vals):
        """Per-record normalized utility of the recorded bids: the value won,
        summed slot by slot, minus the payment (pay as bid, the bids summed
        the same way), subtracted once."""
        wins = kernels.multiunit_wins_rows(self.own, self.crit)
        won = _slot_sums(vals, wins)
        if self.comp is None:
            paid = _slot_sums(self.own, wins)
        else:
            paid = kernels.multiunit_pay_unif_rows(self.own, self.comp, wins,
                                                   self.units)
        util = _zero_unless(won - paid, wins > 0)
        util /= self.scale
        return util

    def outcomes(self, cands, vals=None):
        """Allocation counts (K, m) and payment sums (K,) of constant bids,
        and given the records' values (N, m) their summed normalized
        utilities (K,), else None.

        Each slot's critical bids (and values) are read as one contiguous
        column. Given values, a slot's winners are a prefix of the records
        sorted by critical bid, tied runs ordered by own marginal value, and
        the value they win is read off one array of prefix sums, reused
        slot by slot.
        """
        crit = np.ascontiguousarray(self.crit.T)
        counts = np.empty(cands.shape, dtype=np.intp)
        if vals is not None:
            vals = np.ascontiguousarray(vals.T)
            prefix = np.empty(len(self.crit) + 1)
            prefix[0] = 0.0
        for mu in range(self.units):
            if vals is None:
                ranked = np.sort(crit[mu])
            else:
                order, ranked = _sort_ties(crit[mu], vals[mu])
            counts[:, mu] = np.searchsorted(ranked, cands[:, mu],
                                            side="right")
            del ranked   # before the prefix sums are made
            if vals is not None:
                np.cumsum(vals[mu].take(order), out=prefix[1:])
                slot_won = prefix.take(counts[:, mu])
                won = slot_won if mu == 0 else won + slot_won  # slot by slot
        # exactly j units are won by exact[:, j-1] records
        exact = counts.copy()
        exact[:, :-1] -= counts[:, 1:]
        if self.comp is None:
            # each paying the float sum of the first j bids
            pays = _count_weighted_sums(exact, np.cumsum(cands, axis=1))
        else:
            pays = self._uniform_pay_sums(cands, counts, exact)
        if vals is None:
            return counts, pays, None
        return counts, pays, (won - pays) / self.scale

    def _uniform_pay_sums(self, cands, counts, exact):
        """Exact uniform-price payment sums, rounded once.

        A record winning exactly j units pays fl(j*max(b[j], x)), with b[m]
        taken as 0 and x its competing bid comp[r, m-j]. The critical bid c
        for slot j-1 is x or the next float above it (a senior bid is raised
        by one float), so in the order of (c, x) both rise. The records
        paying fl(j*x) have x > b[j], which already loses slot j, and
        c <= b[j-1]: one contiguous range, a difference of prefix sums.
        Every other record winning j units pays fl(j*b[j]).
        """
        below = np.zeros_like(cands)   # b[j], b[m] = 0
        below[:, :-1] = cands[:, 1:]
        rest = exact.copy()   # records paying fl(j*b[j]), per j
        total = 0   # units of 2**-1074
        for j in range(1, self.units + 1):
            x = self.comp[:, self.units - j]
            x = x.take(_sort_ties(self.crit[:, j - 1], x)[0])
            prefix, shift = _exact_prefix_sums(j * x)
            hi = counts[:, j - 1]
            lo = np.minimum(np.searchsorted(x, below[:, j - 1], side="right"),
                            hi)
            rest[:, j - 1] -= hi - lo
            total += (prefix[hi] - prefix[lo]) << shift
        units = np.arange(1, self.units + 1)
        return _rounded(total + _count_weighted_ints(rest, units * below))


class _Bundles:
    """Agent's bundle bids in the combinatorial auction.

    Fix the opponents' bids of one record and let W[S] be their best total
    once the agent takes bundle S, W[0] also when it declines (totals, one
    best_total_tables solve over the records without the agent). A bid c,
    recorded or constant, takes the argmax of the 2**items + 1 options:
    decline, scoring W[0], or take S, scoring c[S] + W[S] (the critical
    values of Lehmann, O'Callaghan and Shoham 2002). Where the top option
    beats the runner-up by no more than 8(n+1) * 2**-52 * max(1, top), the
    profile goes to winner_determination itself, so every choice is the
    solver's.

    Why the band suffices: every total is a recursive float sum of at most
    n bids in [0, 1], the solver's from the last agent backwards, so within
    a relative gamma = (n-1) * 2**-53 / (1 - (n-1) * 2**-53) of the exact
    total of its assignment. Since fl(b + max(x, y)) = max(fl(b + x),
    fl(b + y)), W[S] is the largest such sum over the opponents'
    assignments that leave S free, and c[S] + W[S] the largest sum over the
    full assignments in which the agent takes S, with the agent's bid added
    last; the solver's assignment has the largest sum in its own order. If
    the solver's option were not the top one, the exact totals would chain
    its score to at least top * (1 - 4 * gamma), well inside the band, so
    outside it the top option is the solver's choice.

    A bid of exactly 0 on S never wins S: best totals only fall as items
    are taken, so S scores W[S] <= W[0], and the solver takes an option
    only when it is strictly greater than the ones before it, declining
    first. Such options score -inf, so they neither win nor pull a profile
    into the band; the argument above then runs over the other options,
    among which the solver's choice lies.
    """

    def __init__(self, bids, totals, agent, items, scale):
        self.bids = bids
        self.totals = totals   # W, (2**items, N)
        self.agent = agent
        self.items = items
        self.scale = scale

    def _utilities(self, choice, paid, vals):
        """Normalized utilities of the agent's bundle choices (-1 for none),
        paying paid, given the records' values (N, 2**items)."""
        won = choice >= 0
        worth = vals[np.arange(len(vals)), np.where(won, choice, 0)]
        return np.where(won, (worth - paid) / self.scale, 0.0)

    def utilities(self, vals):
        """Per-record normalized utility of the recorded bids."""
        own = self.bids[:, self.agent]
        choice = self._choices(own.T[None])[0]
        paid = own[np.arange(len(own)), np.maximum(choice, 0)]
        return self._utilities(choice, paid, vals)

    def _choices(self, block):
        """The agent's bundle in every record (-1 for none), (K, N), from
        the options above, under the bids of block: (K, 2**items, 1) for K
        constant bids, or (1, 2**items, N) for one bid per record. Profiles
        in the band go to winner_determination in one call."""
        totals = self.totals
        n_bundles, n_rec = totals.shape
        shape = (len(block), n_rec)
        top = np.repeat(totals[:1], len(block), axis=0)   # decline
        runner_up = np.full(shape, -np.inf)
        # the smallest signed type that holds -1 and every bundle index
        choice = np.full(shape, -1, dtype=np.min_scalar_type(-n_bundles))
        take, lower = np.empty(shape), np.empty(shape)
        better = np.empty(shape, dtype=bool)
        for bundle in range(n_bundles):
            bid = block[:, bundle]
            np.add(bid, totals[bundle], out=take)
            np.copyto(take, -np.inf, where=bid == 0.0)
            np.minimum(top, take, out=lower)
            np.maximum(runner_up, lower, out=runner_up)
            np.greater(take, top, out=better)
            np.copyto(choice, bundle, where=better)
            np.maximum(top, take, out=top)
        # the band, relative to max(1, top)
        np.maximum(top, 1.0, out=lower)
        lower *= 8 * (self.bids.shape[1] + 1) * 2.0 ** -52
        np.subtract(top, runner_up, out=take)
        near = np.flatnonzero(take <= lower)
        if len(near):
            k, r = np.divmod(near, n_rec)
            profiles = self.bids[r]
            profiles[:, self.agent] = np.broadcast_to(
                block, (len(block), n_bundles, n_rec))[k, :, r]
            choice.flat[near] = winner_determination(
                profiles, self.items)[:, self.agent]
        return choice

    def outcomes(self, cands, vals=None):
        """Allocation counts (K, 2**items) and payment sums (K,) of constant
        bids, and given the records' values their summed normalized
        utilities (K,), else None.

        A record that wins bundle b pays the candidate's own bid for b, so
        each payment sum is the count-weighted sum of the candidate's bids.
        Candidates are taken a block at a time, so memory stays O(block).
        """
        counts = np.zeros(cands.shape, dtype=np.intp)
        sums = None if vals is None else np.empty(len(cands), dtype=np.float64)
        step = max(1, _PAIR_BLOCK // len(self.bids))
        for lo in range(0, len(cands), step):
            block = cands[lo:lo + step]
            choice = self._choices(block[:, :, None])
            for bundle in range(cands.shape[1]):
                counts[lo:lo + len(block), bundle] = np.count_nonzero(
                    choice == bundle, axis=1)
            if sums is not None:
                paid = np.take_along_axis(block, np.maximum(choice, 0), axis=1)
                utils = self._utilities(choice, paid, vals)
                sums[lo:lo + len(block)] = [math.fsum(row)
                                            for row in utils.tolist()]
        return counts, _count_weighted_sums(counts, cands), sums


def _market(config: GameConfig, bids: np.ndarray, agent: int):
    """The records' bids (N, n, dim) as agent's market: bundles for the
    combinatorial rule, slots for the others. First price is the one-slot
    pay-as-bid auction in which every opponent counts as senior, so exact
    ties lose; multi-unit ties go to the lower agent index. The market
    holds the records given and no others: all of them ex interim, one
    partition cell's ex ante."""
    kind = config.mechanism.kind
    scale = config.utility_scale
    if kind == "first_price_combinatorial":
        items = config.mechanism.items
        totals = best_total_tables(np.delete(bids, agent, axis=1), items)[0]
        return _Bundles(bids, totals, agent, items, scale)
    multiunit = kind in ("discriminatory", "uniform_price")
    n = bids.shape[1]
    senior = [j < agent or not multiunit for j in range(n) if j != agent]
    units = config.mechanism.bid_dim
    # the opponents' bids: a view unless the agent sits between two of them
    opp = (bids[:, 1:] if agent == 0 else bids[:, :-1] if agent == n - 1
           else np.delete(bids, agent, axis=1))
    return _Slots(bids[:, agent],
                  kernels.multiunit_critical_bids(opp, senior, units),
                  kernels.multiunit_competing_desc(opp)
                  if kind == "uniform_price" else None,
                  scale)


def profile_point_utilities(config: GameConfig, ds: Dataset, agent: int) -> np.ndarray:
    """Per-record normalized utility of the stored (valuation, bid) pairs."""
    return _market(config, ds.bids, agent).utilities(ds.vals[:, agent])


@dataclass(frozen=True)
class ExInterimEstimate:
    """Sup over grid pairs (valuation, deviation bid) of the mean gain."""
    agent: int
    value: float
    argmax_pair: tuple          # (valuation point, deviation bid point)
    per_point_gains: np.ndarray  # best gain per valuation grid point
    theta_points: np.ndarray
    n_records: int
    flags: tuple = ()


def estimate_ex_interim(ds: Dataset, profile, grid: Grid, config: GameConfig,
                        agent: int) -> ExInterimEstimate:
    """Empirical ex interim utility-loss estimate for one agent.

    profile may be None (bids-only datasets): the current-strategy term then
    falls back to the dataset's stored pairs, which is flagged because the
    mapped-width dispersion term no longer applies.
    """
    candidates = _candidates(ds, grid, config)
    if not np.array_equal(ds.obs, ds.vals):
        raise ValueError(
            "ex interim estimation requires private values "
            "(observations identical to valuations)")
    H = config.utility_scale
    flags = []
    theta_pts = candidates  # private values share the action space
    n_rec = len(ds)

    market = _market(config, ds.bids, agent)
    bids = candidates
    if profile is not None:   # the current bids follow the candidates
        bids = np.concatenate([candidates, np.column_stack(
            [np.asarray(profile[agent].apply(theta_pts[:, d]), dtype=np.float64)
             for d in range(theta_pts.shape[1])])])
    counts, pay_sums, _ = market.outcomes(bids)
    n_cand = len(candidates)
    mean_alloc = counts[:n_cand] / n_rec
    mean_pay = pay_sums[:n_cand] / n_rec

    if profile is not None:
        cur = np.zeros(theta_pts.shape[0], dtype=np.float64)
        for d in range(theta_pts.shape[1]):
            cur += theta_pts[:, d] * (counts[n_cand:, d] / n_rec)
        cur = (cur - pay_sums[n_cand:] / n_rec) / H
    else:
        flags.append(FLAG_DEGRADED)
        current = _ExactSum()
        current.add(market.utilities(ds.vals[:, agent]))
        cur = np.full(theta_pts.shape[0], current.value() / n_rec)

    # the K x K table is built a block of rows at a time, so memory stays
    # O(K); the first maximum (lexicographic tie-break) lies in the first
    # row holding the largest per-point gain. One block and one outer
    # product buffer serve every block: fresh ones would be mapped and
    # faulted in again for each block
    step = max(1, _GAIN_BLOCK // candidates.shape[0])
    block = np.empty((min(step, len(theta_pts)), candidates.shape[0]))
    term = np.empty_like(block)

    def gains(lo, hi):
        # gains[t, k] = dev[t, k] - cur[t] for valuation rows lo..hi-1, in
        # the block buffer, which the next call overwrites
        dev, outer = block[:hi - lo], term[:hi - lo]
        dev.fill(0.0)
        for d in range(theta_pts.shape[1]):
            dev += np.multiply.outer(theta_pts[lo:hi, d], mean_alloc[:, d],
                                     out=outer)
        dev -= mean_pay
        dev /= H
        dev -= cur[lo:hi, None]
        return dev

    per_point = np.concatenate(
        [gains(lo, min(lo + step, len(theta_pts))).max(axis=1)
         for lo in range(0, len(theta_pts), step)])
    t_idx = int(np.argmax(per_point))
    row = gains(t_idx, t_idx + 1)[0]
    k_idx = int(np.argmax(row))
    return ExInterimEstimate(
        agent=agent,
        value=float(row[k_idx]),
        argmax_pair=(tuple(float(x) for x in theta_pts[t_idx]),
                     tuple(float(x) for x in candidates[k_idx])),
        per_point_gains=per_point,
        theta_points=theta_pts,
        n_records=n_rec,
        flags=tuple(flags),
    )


@dataclass(frozen=True)
class ExAnteEstimate:
    """Per-cell constant best responses minus the current expected utility."""
    agent: int
    value: float
    current_utility: float
    br_terms: tuple             # dicts: cell, n_records, weight, best_bid, br_mean
    gain_curve: np.ndarray      # weighted mean utility per candidate - current
    candidates: np.ndarray
    n_records: int
    flags: tuple = ()


def estimate_ex_ante(ds: Dataset, profile, partition: Partition, grid: Grid,
                     config: GameConfig, agent: int) -> ExAnteEstimate:
    """Empirical ex ante utility-loss estimate for one agent.

    The current-strategy term always uses the dataset's stored bids, so no
    Strategy object is needed for the empirical part. Each cell builds the
    market of its own records, which gives that cell's share of the current
    utility (an exact sum, rounded once over all cells) and its outcomes;
    no per-record array outlives the partition's labels. The per-cell arrays
    reuse the heap freed by the dataset hash's 4 MB blocks (cli._HASH_BLOCK).
    """
    candidates = _candidates(ds, grid, config)
    if partition.agent != agent:
        raise ValueError(
            f"partition belongs to agent {partition.agent}, estimating {agent}")
    n_rec = len(ds)
    flags = []

    current = _ExactSum()
    br_terms = []
    weighted_sum = 0.0
    curve = np.zeros(candidates.shape[0], dtype=np.float64)
    for k, idx in enumerate(split_by_partition(ds, partition)):
        n_cell = len(idx)
        weight = n_cell / n_rec
        if n_cell == 0:
            flags.append(f"{FLAG_UNOBSERVED} {k}")
            br_terms.append({"cell": k, "n_records": 0, "weight": 0.0,
                             "best_bid": None, "br_mean": 0.0})
            continue
        # one fancy index for the values: take on the strided column would
        # copy it whole; take for the bids, whose rows fancy indexing copies
        # one subarray at a time
        vals = ds.vals[idx, agent]
        market = _market(config, ds.bids.take(idx, axis=0), agent)
        current.add(market.utilities(vals))
        means = market.outcomes(candidates, vals)[2] / n_cell
        del market, vals   # before the next cell's are made
        best = int(np.argmax(means))  # first maximum = lexicographic tie-break
        br_terms.append({
            "cell": k,
            "n_records": n_cell,
            "weight": weight,
            "best_bid": tuple(float(x) for x in candidates[best]),
            "br_mean": float(means[best]),
        })
        weighted_sum += weight * float(means[best])
        curve += weight * means
    current = current.value() / n_rec
    value = weighted_sum - current
    return ExAnteEstimate(
        agent=agent,
        value=float(value),
        current_utility=current,
        br_terms=tuple(br_terms),
        gain_curve=curve - current,
        candidates=candidates,
        n_records=n_rec,
        flags=tuple(flags),
    )
