"""Certified error terms and their composition into per-agent bound reports.

Every formula here is an explicit finite-sample expression in natural logs.
Each auction rule has one row (_row): the pseudo-dimension of the one-agent
utility class and the shape of its (w, k)-dispersion count (Balcan, Dick and
Vitercik, FOCS 2018). The single-item first-price row is exact, with
pseudo-dimension 2 and a count that holds at any width. The combinatorial
and multi-unit (discriminatory, uniform price) rows are growth orders: they
take the declared constant ROW_CONSTANT, are flagged asymptotic, and are
stated only up to the width 1 / (kappa * l_inv^e * sqrt(N)), with
e = 2^(l+1) for l items and e = 1 for m units; a wider width is flagged. Counts above the sample size
are clamped (they carry no information) and flagged. Totals are left folds
over the stored terms so a reader can recompute them from the report to the
last ulp.

split_delta alone divides a run's delta_total among its certificate's
failure events (3 ex interim, 4 ex ante); each assembler reports that delta
and the confidence 1 - events * delta of the union bound over them.
"""
import math
from dataclasses import dataclass

from .model import GameConfig

__all__ = [
    "FLAG_VACUOUS_DISPERSION",
    "FLAG_ASYMPTOTIC",
    "FLAG_WIDTH_RANGE",
    "FLAG_DEGRADED_BOUND",
    "ROW_CONSTANT",
    "PdimSpec",
    "InterimSpecs",
    "ExAnteSpecs",
    "AgentBound",
    "eps_pdim_interim",
    "eps_disp",
    "clamp_dispersion_count",
    "dispersion_count",
    "eps_hoeffding",
    "eps_pdim_ex_ante",
    "pdim",
    "split_delta",
    "assemble_interim",
    "assemble_ex_ante",
    "all_vacuous",
]

FLAG_VACUOUS_DISPERSION = "vacuous dispersion"
FLAG_ASYMPTOTIC = "asymptotic order, declared constant"
FLAG_WIDTH_RANGE = "width outside certified dispersion range"
FLAG_DEGRADED_BOUND = ("degraded: mapped-width dispersion term omitted "
                       "(forward Lipschitz constant unknown)")

VACUOUS_THRESHOLD = 2.0

_FAILURE_EVENTS = {"ex_interim": 3, "ex_ante": 4}

# piecewise Lipschitz constant of the utility off its jump set, every rule
UTILITY_LIPSCHITZ = 1.0

# the asymptotic rows' constant, which no config can set (FLAG_ASYMPTOTIC)
ROW_CONSTANT = 1.0


def _check_delta(delta: float):
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")


def _check_positive(name: str, value: float):
    if value <= 0:
        raise ValueError(f"{name} must be positive")


def _growth_term(n_records: int, d: float) -> float:
    """(2 / N) ln of the growth function of a class of pseudo-dimension d on
    N records. Sauer's bound (eN/d)^d holds from N = d; below d the count of
    labelings is at most 2^N, so the term is 2 ln 2."""
    if n_records < d:
        return 2.0 * math.log(2.0)
    return (2.0 * d / n_records) * math.log(math.e * n_records / d)


def eps_pdim_interim(n_records: int, d: float, n_agents: int, delta: float) -> float:
    """Uniform estimation error over valuation-bid queries (ex interim route)."""
    if n_records < 1:
        raise ValueError("n_records must be at least 1")
    if d < 1:
        raise ValueError("pseudo-dimension must be at least 1")
    _check_delta(delta)
    first = 4.0 * math.sqrt(_growth_term(n_records, d))
    second = 2.0 * math.sqrt((2.0 / n_records)
                             * math.log(2.0 * n_agents / delta))
    return first + second


def eps_disp(x: float, n_records: int, count: float, lipschitz: float) -> float:
    """Grid-rounding slack for piecewise-Lipschitz utilities: the Lipschitz
    drift off the jump set plus the mass of samples whose jump lands within
    width x. count is clamped to n_records (see clamp_dispersion_count)."""
    if n_records < 1:
        raise ValueError("n_records must be at least 1")
    if x < 0:
        raise ValueError("width must be nonnegative")
    if count < 0:
        raise ValueError("dispersion count must be nonnegative")
    v = min(float(count), float(n_records))
    return ((n_records - v) / n_records) * lipschitz * x + 2.0 * v / n_records


def clamp_dispersion_count(count: float, n_records: int):
    """Clamp a dispersion count at the sample size.

    Returns (clamped value, clamped?). Counts above n_records are vacuous:
    eps_disp would report every sample as sitting on a jump.
    """
    if count > n_records:
        return float(n_records), True
    return float(count), False


@dataclass(frozen=True)
class _Row:
    """One auction rule's certificate row. Asymptotic rows carry
    ROW_CONSTANT in pdim and scale; the exact row ignores it."""
    pdim: float             # before the floor at 1
    exact: bool
    scale: float            # of the dispersion count
    width_exponent: int = 1  # e in l_inv^e
    tail_factor: int = 1     # t in the tail term


def _row(config: GameConfig) -> _Row:
    """The mechanism's row (see the module docstring)."""
    mech = config.mechanism
    n = config.n_agents
    if mech.kind == "first_price_single_item":
        return _Row(2.0, True, n - 1)
    if mech.kind == "first_price_combinatorial":
        items = mech.items
        return _Row(ROW_CONSTANT * items * 2 ** items * math.log(n), False,
                    ROW_CONSTANT * float((n + 1) ** (2 * items)),
                    2 ** (items + 1), items)
    if mech.kind in ("discriminatory", "uniform_price"):
        m = mech.units
        return _Row(ROW_CONSTANT * m * math.log(n * m), False,
                    ROW_CONSTANT * n * m ** 2)
    raise ValueError(f"unknown mechanism kind: {mech.kind}")


def dispersion_count(config: GameConfig, w: float, n_in_cell: int,
                     kappa: float, l_inv_max: float, delta: float,
                     n_cells_max: int = 1):
    """High-probability bound on the records whose jumps land in one width-w
    interval, over n_in_cell records and a union over n_cells_max cells:

    scale * (w N kappa l_inv^e + sqrt(2 N log_union) + 4 sqrt(N t log(e N/2)))

    with the mechanism's row (_row). kappa l_inv^e bounds the density of
    the bids the jumps sit at, by the pushforward lemma: a bid is a type
    pushed through a strictly monotone coordinatewise map whose inverse is
    l_inv-Lipschitz, so a joint type density below kappa over e coordinates
    becomes a joint bid density below kappa l_inv^e. The row's e is 1 for
    the slot rules and 2^(items+1), two agents' bid vectors, for the
    combinatorial rule. This is the only place the product is formed.

    Returns (count, flags): an asymptotic
    row's flag, after the width-range flag past 1 / (kappa l_inv^e sqrt(N))."""
    if w < 0:
        raise ValueError("w must be nonnegative")
    _check_positive("n_in_cell", n_in_cell)
    _check_positive("kappa", kappa)
    _check_positive("l_inv_max", l_inv_max)
    _check_delta(delta)
    row = _row(config)
    n = config.n_agents
    nb = float(n_in_cell)
    width_term = w * nb * kappa * l_inv_max ** row.width_exponent
    log_union = math.log(2.0 * n * (n - 1) * n_cells_max / delta)
    conc_term = math.sqrt(2.0 * nb * log_union)
    tail_term = 4.0 * math.sqrt(nb * row.tail_factor
                                * math.log(math.e * nb / 2.0))
    flags = ()
    if not row.exact:
        flags = (FLAG_ASYMPTOTIC,)
        if w > 1.0 / (kappa * l_inv_max ** row.width_exponent
                      * math.sqrt(nb)):
            flags = (FLAG_WIDTH_RANGE, FLAG_ASYMPTOTIC)
    return row.scale * (width_term + conc_term + tail_term), flags


def eps_hoeffding(n_records: int, n_agents: int, delta: float) -> float:
    """Monte-Carlo error of a bounded mean, union over agents."""
    if n_records < 1:
        raise ValueError("n_records must be at least 1")
    _check_delta(delta)
    return math.sqrt((2.0 / n_records) * math.log(2.0 * n_agents / delta))


def eps_pdim_ex_ante(n_in_cell: int, d: float, n_agents: int, delta: float,
                     n_cells_max: int = 1) -> float:
    """Uniform estimation error within one partition cell (ex ante route)."""
    if n_in_cell < 1:
        raise ValueError("n_in_cell must be at least 1")
    if d < 1:
        raise ValueError("pseudo-dimension must be at least 1")
    _check_delta(delta)
    first = 2.0 * math.sqrt(_growth_term(n_in_cell, d))
    second = math.sqrt((2.0 / n_in_cell)
                       * math.log(n_agents * n_cells_max / delta))
    return first + second


@dataclass(frozen=True)
class PdimSpec:
    """Pseudo-dimension of the one-agent utility class for a mechanism."""
    value: float
    kind: str       # "exact" or "asymptotic (constant declared)"


def pdim(config: GameConfig) -> PdimSpec:
    """Pseudo-dimension per mechanism (_row), floored at 1: exact for the
    single-item first-price rule, a growth order with ROW_CONSTANT
    otherwise."""
    row = _row(config)
    if row.exact:
        return PdimSpec(row.pdim, "exact")
    return PdimSpec(max(1.0, row.pdim), "asymptotic (constant declared)")


def split_delta(mode: str, delta_total: float) -> float:
    """delta_total, in (0, 1), split evenly among the mode's failure events;
    a split that underflows to 0 is refused."""
    if not (0.0 < delta_total < 1.0):
        raise ValueError("delta_total must lie in (0,1)")
    events = _FAILURE_EVENTS[mode]
    delta = delta_total / events
    if not delta > 0.0:
        raise ValueError(f"delta_total / {events}, the probability of each "
                         "failure event, underflows to 0")
    return delta


@dataclass(frozen=True)
class InterimSpecs:
    """Inputs needed to certify an ex interim estimate."""
    kappa: float            # opponent prior density bound
    l_inv_max: float        # max inverse-strategy Lipschitz constant
    l_fwd: float = None     # agent's own forward Lipschitz constant
    extra_flags: tuple = ()


@dataclass(frozen=True)
class ExAnteSpecs:
    """Inputs needed to certify an ex ante estimate (per-cell tau/kappa)."""
    taus: tuple             # per cell, None allowed only on empty cells
    kappas: tuple           # per cell
    l_inv_max: float
    n_cells_max: int = 1    # max cell count across all agents' partitions
    tau_sources: tuple = ()
    extra_flags: tuple = ()


@dataclass
class AgentBound:
    """One agent's certified bound with its full term breakdown.

    payload is an insertion-ordered dict rendered verbatim into the report
    JSON; total is reproducible from the stored terms by a left fold.
    """
    agent: int
    mode: str
    total: float
    payload: dict
    flags: tuple = ()

    def to_dict(self) -> dict:
        out = dict(self.payload)
        out["flags"] = list(self.flags)
        return out


def _pdim_preamble(config: GameConfig, width: float):
    """Checks shared by both certificates; returns the pseudo-dimension and
    the certificate's flag list, which starts with the asymptotic flag when
    the pseudo-dimension is only a growth order."""
    _check_positive("width", width)
    spec_d = pdim(config)
    return spec_d, [FLAG_ASYMPTOTIC] if spec_d.kind != "exact" else []


def _disp_term(config: GameConfig, specs, width: float, delta: float,
               n_records: int, kappa: float, n_cells_max: int, flags: list):
    """One dispersion term over n_records records: the raw count, the count
    clamped at n_records, and eps_disp at that count. Appends the vacuity
    flag (when clamped) and then the count's own flags to flags."""
    count_raw, d_flags = dispersion_count(
        config, width, n_records, kappa, specs.l_inv_max, delta,
        n_cells_max=n_cells_max)
    count, clamped = clamp_dispersion_count(count_raw, n_records)
    if clamped:
        flags.append(FLAG_VACUOUS_DISPERSION)
    flags.extend(d_flags)
    return count_raw, count, eps_disp(width, n_records, count,
                                      UTILITY_LIPSCHITZ)


def _agent_bound(estimate, mode: str, specs, config: GameConfig, delta: float,
                 body: dict, total: float, flags: list) -> AgentBound:
    """The report entry: agent, mode, record count and empirical gain, then
    the mode's terms in body, then delta, confidence and the totals."""
    H = config.utility_scale
    payload = {
        "agent": estimate.agent,
        "mode": mode,
        "n_records": estimate.n_records,
        "empirical": estimate.value,
        **body,
        "delta": delta,
        "confidence": 1.0 - _FAILURE_EVENTS[mode] * delta,
        "total": total,
        "total_denormalized": total * H,
        "utility_scale": H,
    }
    # each flag once, in order of first appearance
    all_flags = dict.fromkeys([*estimate.flags, *flags, *specs.extra_flags])
    return AgentBound(agent=estimate.agent, mode=mode, total=total,
                      payload=payload, flags=tuple(all_flags))


def assemble_interim(estimate, specs: InterimSpecs, config: GameConfig,
                     w: float, delta_total: float) -> AgentBound:
    """Compose the ex interim certificate at grid width w:

    total = empirical + eps_pdim + 3 * eps_disp(w) + eps_disp(l_fwd * w)

    at confidence 1 - 3 delta. Without a forward Lipschitz constant the
    mapped-width term cannot be evaluated; it is omitted and flagged.
    """
    delta = split_delta("ex_interim", delta_total)
    spec_d, flags = _pdim_preamble(config, w)
    n_rec = estimate.n_records
    e_pdim = eps_pdim_interim(n_rec, spec_d.value, config.n_agents, delta)
    widths = [(w, 3.0)]
    if specs.l_fwd is not None:
        widths.append((specs.l_fwd * w, 1.0))
    disp_terms = []
    total = estimate.value + e_pdim
    for width, multiplier in widths:
        count_raw, count, value = _disp_term(
            config, specs, width, delta, n_rec, specs.kappa, 1, flags)
        disp_terms.append({"width": width, "count_raw": count_raw,
                           "count": count, "value": value,
                           "multiplier": multiplier})
        total += multiplier * value
    if specs.l_fwd is None:
        flags.append(FLAG_DEGRADED_BOUND)
    body = {
        "argmax_valuation": list(estimate.argmax_pair[0]),
        "argmax_bid": list(estimate.argmax_pair[1]),
        "pdim_value": spec_d.value,
        "pdim_kind": spec_d.kind,
        "pdim_constant": ROW_CONSTANT,
        "eps_pdim": e_pdim,
        "width": w,
        "disp_terms": disp_terms,
    }
    return _agent_bound(estimate, "ex_interim", specs, config, delta, body,
                        total, flags)


def assemble_ex_ante(estimate, specs: ExAnteSpecs, config: GameConfig,
                     w: float, delta_total: float) -> AgentBound:
    """Compose the ex ante certificate at grid width w:

    total = empirical + 2 * eps_hoeffding
          + sum_k weight_k * min(1, tau_k + eps_pdim_cell_k + eps_disp_cell_k)

    at confidence 1 - 4 delta. Empty cells contribute zero through their
    weight and skip the per-cell terms.
    """
    delta = split_delta("ex_ante", delta_total)
    spec_d, flags = _pdim_preamble(config, w)
    n = config.n_agents
    n_cells = len(estimate.br_terms)
    if len(specs.taus) != n_cells or len(specs.kappas) != n_cells:
        raise ValueError("per-cell tau/kappa lists must match the partition size")
    e_hoeff = eps_hoeffding(estimate.n_records, n, delta)
    sources = specs.tau_sources or tuple("" for _ in range(n_cells))

    cells = []
    cell_sum = 0.0
    for k in range(n_cells):
        term = estimate.br_terms[k]
        n_cell = term["n_records"]
        entry = {
            "cell": k,
            "n_records": n_cell,
            "weight": term["weight"],
            "tau": specs.taus[k],
            "tau_source": sources[k] or None,
            "best_bid": (list(term["best_bid"])
                         if term["best_bid"] is not None else None),
            "br_mean": term["br_mean"],
        }
        cells.append(entry)
        if n_cell == 0:
            entry.update({"kappa": None, "eps_pdim": None,
                          "disp_count_raw": None, "disp_count": None,
                          "eps_disp": None, "inner_sum": None,
                          "clamped": False, "contribution": 0.0})
            continue
        tau = specs.taus[k]
        if tau is None:
            raise ValueError(f"cell {k} has no tau")
        e_pdim_cell = eps_pdim_ex_ante(n_cell, spec_d.value, n, delta,
                                       specs.n_cells_max)
        count_raw, count, e_disp_cell = _disp_term(
            config, specs, w, delta, n_cell, specs.kappas[k],
            specs.n_cells_max, flags)
        inner = tau + e_pdim_cell + e_disp_cell
        contribution = term["weight"] * min(1.0, inner)
        entry.update({
            "kappa": specs.kappas[k],
            "eps_pdim": e_pdim_cell,
            "disp_count_raw": count_raw,
            "disp_count": count,
            "eps_disp": e_disp_cell,
            "inner_sum": inner,
            "clamped": inner > 1.0,
            "contribution": contribution,
        })
        cell_sum += contribution

    total = estimate.value + 2.0 * e_hoeff + cell_sum
    body = {
        "current_utility": estimate.current_utility,
        "eps_hoeffding": e_hoeff,
        "hoeffding_multiplier": 2.0,
        "pdim_value": spec_d.value,
        "pdim_kind": spec_d.kind,
        "pdim_constant": ROW_CONSTANT,
        "width": w,
        "n_cells_max": specs.n_cells_max,
        "cells": cells,
        "cell_sum": cell_sum,
    }
    return _agent_bound(estimate, "ex_ante", specs, config, delta, body,
                        total, flags)


def all_vacuous(agent_bounds) -> bool:
    """True when every agent's normalized total exceeds the trivial bound 2:
    the run succeeded but certifies nothing."""
    totals = [b.total for b in agent_bounds]
    return bool(totals) and all(t > VACUOUS_THRESHOLD for t in totals)
