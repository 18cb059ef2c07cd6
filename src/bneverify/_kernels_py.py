"""Pure-numpy compute kernels.

Kernels only produce per-sample values or exact integer counts; averaging
over records is done by the caller (estimator), whose means do not depend on
record order or on numpy's summation internals.

Multi-unit rules use critical bids (Lehmann, O'Callaghan and Shoham 2002).
Against a record's fixed competing bids, the agent's slot mu wins exactly
when its bid reaches that record's critical bid for the slot, so the
critical bids are computed once per agent (or cell) and every candidate bid
vector is then one comparison against them. Uniform-price payments read the
competitors' next bid from the record's competing bids, sorted once.
"""
import numpy as np

NAME = "python"


def fpsb_win_counts(sorted_opp_max, bids):
    """Number of samples whose opponent max bid lies strictly below each bid.

    sorted_opp_max must be ascending. Exact integer counts.
    """
    sorted_opp_max = np.ascontiguousarray(sorted_opp_max, dtype=np.float64)
    bids = np.ascontiguousarray(bids, dtype=np.float64)
    return np.searchsorted(sorted_opp_max, bids, side="left").astype(np.int64)


def fpsb_point_utils(vals, own, opp_max):
    """Per-sample first-price utility (v - b when strictly winning, else 0)."""
    vals = np.asarray(vals, dtype=np.float64)
    own = np.asarray(own, dtype=np.float64)
    opp_max = np.asarray(opp_max, dtype=np.float64)
    return np.where(own > opp_max, vals - own, 0.0)


def fpsb_dev_utils(theta, opp_max, bids):
    """Per-sample utilities of constant deviation bids: (K, N) matrix.

    No estimator path calls it; the benchmark's tracer (perfbench/spans.py)
    patches it by name.
    """
    theta = np.asarray(theta, dtype=np.float64)
    opp_max = np.asarray(opp_max, dtype=np.float64)
    bids = np.asarray(bids, dtype=np.float64)
    win = bids[:, None] > opp_max[None, :]
    return np.where(win, theta[None, :] - bids[:, None], 0.0)


def _descending(rows):
    return np.sort(rows, axis=1)[:, ::-1]


def multiunit_critical_bids(opp, senior, m_units):
    """Critical bid of each of the agent's m_units slots per record: (N, m).

    A slot's rank is its index mu plus the competing bids ahead of it: a
    senior opponent's bid when >=, a junior one's when >; it wins when the
    rank is below m_units. Raising each senior bid x to nextafter(x, inf)
    turns both rules into >, since no float lies strictly between the two.
    Slot mu therefore wins exactly when its bid is >= the (m_units - mu)-th
    largest raised bid, its critical bid; that is -inf when fewer bids
    compete.
    """
    opp = np.asarray(opp, dtype=np.float64)
    sen = np.asarray(senior).astype(bool)
    raised = np.where(sen[None, :, None], np.nextafter(opp, np.inf), opp)
    flat = raised.reshape(opp.shape[0], -1)
    width = flat.shape[1]
    desc = np.concatenate(
        [_descending(flat), np.full((opp.shape[0], 1), -np.inf)], axis=1)
    return desc[:, np.minimum(m_units - 1 - np.arange(m_units), width)]


def multiunit_competing_desc(opp):
    """Competing bids of each record in descending order, then a 0 column:
    (N, width + 1) for width competing bids."""
    opp = np.asarray(opp, dtype=np.float64)
    flat = opp.reshape(opp.shape[0], -1)
    return np.concatenate(
        [_descending(flat), np.zeros((opp.shape[0], 1))], axis=1)


def multiunit_wins_rows(own, crit):
    """Units won per record: the slots whose bid reaches the record's
    critical bid. own is one bid vector per record (N, m) or a single (m,)
    vector against every record."""
    return np.count_nonzero(crit <= own, axis=1)


# a fixed bid vector broadcasts against every record's critical bids
multiunit_wins_fixed = multiunit_wins_rows


def multiunit_pay_disc_rows(own, wins):
    """Pay-as-bid payment: sum of the first wins[r] own bids per record."""
    own = np.asarray(own, dtype=np.float64)
    wins = np.asarray(wins, dtype=np.int64)
    prefix = np.concatenate(
        [np.zeros((own.shape[0], 1)), np.cumsum(own, axis=1)], axis=1)
    return np.take_along_axis(prefix, wins[:, None], axis=1)[:, 0]


def multiunit_pay_disc_fixed(own, wins):
    own = np.asarray(own, dtype=np.float64)
    wins = np.asarray(wins, dtype=np.int64)
    prefix = np.concatenate([[0.0], np.cumsum(own)])
    return prefix[wins]


def _uniform_payment(own_next, comp_desc, wins, m_units):
    # competitors' next bid: the (m_units - wins + 1)-th highest, 0 when the
    # position falls past the last competing bid
    width = comp_desc.shape[1] - 1
    comp_next = comp_desc[np.arange(len(wins)),
                          np.minimum(m_units - wins, width)]
    return wins * np.maximum(own_next, comp_next)


def multiunit_pay_unif_rows(own, comp_desc, wins, m_units):
    """Uniform-price payment wins * max(own next bid, competitors' next bid);
    comp_desc as returned by multiunit_competing_desc."""
    own = np.asarray(own, dtype=np.float64)
    wins = np.asarray(wins, dtype=np.int64)
    own_padded = np.concatenate([own, np.zeros((own.shape[0], 1))], axis=1)
    own_next = np.take_along_axis(own_padded, wins[:, None], axis=1)[:, 0]
    return _uniform_payment(own_next, comp_desc, wins, int(m_units))


def multiunit_pay_unif_fixed(own, comp_desc, wins, m_units):
    own = np.asarray(own, dtype=np.float64)
    wins = np.asarray(wins, dtype=np.int64)
    own_next = np.append(own, 0.0)[wins]
    return _uniform_payment(own_next, comp_desc, wins, int(m_units))
