"""Pure-numpy compute kernels.

Kernels only produce per-sample values or exact integer counts; averaging
over records is done by the caller (estimator), whose means do not depend on
record order or on numpy's summation internals.

Every rule but the combinatorial one uses critical bids (Lehmann,
O'Callaghan and Shoham 2002). Against a record's fixed competing bids, the
agent's slot mu wins exactly when its bid reaches that record's critical bid
for the slot, so each record's critical bids are computed once per agent
and every candidate bid vector is then one comparison against them.
Single-item first price is the one-slot case in which every opponent counts
as senior. Uniform-price payments read the competitors' next bid from the
record's competing bids, sorted once.

The estimator calls multiunit_critical_bids and multiunit_competing_desc
once per market it builds: per agent over all records ex interim, per
agent and partition cell over the cell's records ex ante, so each record
is passed once per agent. multiunit_wins_rows and multiunit_pay_unif_rows
give the recorded bids' utilities in the same markets. The estimator no
longer calls fpsb_win_counts, fpsb_point_utils, fpsb_dev_utils,
multiunit_wins_fixed, won_sums (also named multiunit_pay_disc_rows and
multiunit_pay_disc_fixed) or multiunit_pay_unif_fixed: first price runs
through the slot kernels, the payment sums of constant bids come from win
counts and prefix sums over the sorted critical bids, with no pass over the
records per candidate, and the estimator sums the recorded bids' values and
payments slot by slot in place.
won_sums stays as the reference that sum is tested against; the others stay
only because the benchmark's tracer (perfbench/spans.py) looks up every name
in its kernel list.
"""
import numpy as np

NAME = "python"


def fpsb_win_counts(sorted_opp_max, bids):
    """Samples whose opponent max bid (ascending) lies strictly below each
    bid. Tracer-only."""
    return np.searchsorted(sorted_opp_max, bids, side="left")


def fpsb_point_utils(vals, own, opp_max):
    """Per-sample first-price utility: v - b when strictly winning, else 0.
    Tracer-only."""
    return np.where(np.greater(own, opp_max), np.subtract(vals, own), 0.0)


def fpsb_dev_utils(theta, opp_max, bids):
    """Per-sample utilities of constant deviation bids: (K, N) matrix.
    Tracer-only."""
    bids = np.asarray(bids, dtype=np.float64)[:, None]
    return np.where(bids > opp_max, theta - bids, 0.0)


def multiunit_critical_bids(opp, senior, m_units):
    """Critical bid of each of the agent's m_units slots per record: (N, m).

    A slot's rank is its index mu plus the competing bids ahead of it: a
    senior opponent's bid when >=, a junior one's when >; it wins when the
    rank is below m_units. Raising each senior bid x (bids are >= 0) to
    nextafter(x, inf) turns both rules into >, since no float lies strictly
    between the two. Slot mu therefore wins exactly when its bid is >= the
    (m_units - mu)-th largest raised bid, its critical bid; that is -inf when
    fewer bids compete. Critical bids rise with mu, so a non-increasing bid
    vector always wins its first slots. Single-item first price is the case
    m_units = 1 with every opponent senior. The result is C-contiguous.
    """
    opp = np.asarray(opp, dtype=np.float64)
    junior = ~np.asarray(senior, dtype=bool)
    # the next float up of x >= 0 has the next bit pattern once -0.0 is
    # mapped to +0.0; in place, and ten times faster than np.nextafter
    raised = opp + 0.0
    raised.view(np.int64)[...] += 1
    if junior.any():
        raised[:, junior] = opp[:, junior]
    # ascending: the last m_units columns are the critical bids, slot order
    asc = raised.reshape(raised.shape[0], -1)
    if asc.shape[1] > 1:
        asc = np.sort(asc, axis=1)
    short = max(m_units - asc.shape[1], 0)
    if short:
        asc = np.concatenate(
            [np.full((asc.shape[0], short), -np.inf), asc], axis=1)
    return np.ascontiguousarray(asc[:, asc.shape[1] - m_units:])


def multiunit_competing_desc(opp):
    """Competing bids of each record in descending order, then a 0 column:
    (N, width + 1) for width competing bids."""
    flat = np.asarray(opp, dtype=np.float64).reshape(len(opp), -1)
    return np.concatenate(
        [np.sort(flat, axis=1)[:, ::-1], np.zeros((len(flat), 1))], axis=1)


def multiunit_wins_rows(own, crit):
    """Units won per record: the slots whose bid reaches the record's
    critical bid. own is one bid vector per record (N, m) or a single (m,)
    vector against every record, here and in the payment kernels. One
    comparison per slot, counted in place in the smallest unsigned type
    that holds m."""
    own = np.asarray(own, dtype=np.float64)
    wins = (crit[:, 0] <= own[..., 0]).astype(
        np.min_scalar_type(crit.shape[1]))
    for mu in range(1, crit.shape[1]):
        wins += crit[:, mu] <= own[..., mu]
    return wins


def won_sums(rows, wins):
    """Sum of the first wins[r] entries of row r, added left to right (the
    floats np.cumsum gives), 0 where nothing is won: (N,)."""
    rows = np.broadcast_to(rows, (len(wins), np.shape(rows)[-1]))
    total = np.where(wins > 0, rows[:, 0], 0.0)
    for mu in range(1, rows.shape[1]):
        total = np.where(wins > mu, total + rows[:, mu], total)
    return total


def multiunit_pay_unif_rows(own, comp_desc, wins, m_units):
    """Uniform-price payment wins * max(own next bid, competitors' next
    bid), the competitors' being the (m_units - wins + 1)-th highest in
    comp_desc (from multiunit_competing_desc); either is 0 past the last
    bid."""
    own = np.broadcast_to(own, (len(wins), np.shape(own)[-1]))
    rows = np.arange(len(wins))
    last = own.shape[1] - 1
    own_next = np.where(wins <= last,
                        own[rows, np.minimum(wins, last)], 0.0)
    comp_next = comp_desc[rows, np.minimum(m_units - wins,
                                           comp_desc.shape[1] - 1)]
    return wins * np.maximum(own_next, comp_next)


# a fixed bid vector broadcasts against every record; pay-as-bid payments
# are the sums of the first wins[r] own bids (the _fixed names: tracer-only)
multiunit_wins_fixed = multiunit_wins_rows
multiunit_pay_disc_rows = multiunit_pay_disc_fixed = won_sums
multiunit_pay_unif_fixed = multiunit_pay_unif_rows
