"""Exact counterfactual probabilities on small discrete causal models.

A DiscreteScm fixes a finite cause variable C, a finite exogenous noise
variable U with known distribution, a cause table (either a marginal
P(C) or a conditional P(C|U) when C is deliberately confounded), and a
deterministic binary mechanism y = f(c, u).  Everything downstream is
exact enumeration: interventions fix c and average over U; conditioning
divides a joint mass by the mass of the observed event.

Quantities follow the standard causality-of-effects vocabulary:

* PNS(c, cbar, y): probability that the cause is both sufficient and
  necessary, P(f(c,U)=y and f(cbar,U)!=y and C in {c, cbar}) split into
  its two conditional terms; for a binary cause, P(f(c,U)=y and
  f(cbar,U)!=y).
* PN, PS: the ratio identification formulas that recover necessity and
  sufficiency from observational and interventional quantities when the
  cause is exogenous and the mechanism monotone.
* identified PNS: P(Y=y|C=c) - P(Y=y|C=cbar), the observational
  difference that equals PNS for an exogenous binary cause when the
  mechanism is monotone toward (c, y): no u has f(cbar,u) = y != f(c,u).

Each query walks u_values once per call, one row per noise value, and
takes every measure from those rows once, summed in u order.  Nothing is
cached on the model or across calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "DiscreteScm",
    "PnsReport",
    "UndefinedConditionalError",
    "pns_exact",
    "pns_identified",
    "check_monotonicity",
    "check_exogeneity",
    "necessity_ratio",
    "sufficiency_ratio",
    "analyze",
    "random_identifiable_scm",
    "read_scm",
    "format_report",
]

_ATOL = 1e-12


def _check_distribution(probs, name):
    """Raise ValueError unless probs are nonnegative and sum to 1; a NaN
    fails the sum check."""
    total = sum(probs)
    if not abs(total - 1.0) <= _ATOL:
        raise ValueError(f"{name} sum to {total}, not 1")
    if any(p < 0 for p in probs):
        raise ValueError(f"negative probability in {name}")


class UndefinedConditionalError(ValueError):
    """Conditioning event has zero probability; the term is named so a
    malformed test model surfaces instead of silently contributing 0."""


@dataclass(frozen=True)
class DiscreteScm:
    """Finite SCM with exogenous noise U and binary outcome.

    cause_table is either {c: P(C=c)} for an exogenous cause or
    {u: {c: P(C=c|U=u)}} for a confounded one.  u_probs and the cause
    probabilities are kept as Python floats.  mechanism maps
    (c, u) to a label in {0, 1} and must be total.
    """

    c_values: tuple
    u_values: tuple
    u_probs: tuple
    cause_table: dict
    mechanism: object = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "u_probs", tuple(float(p) for p in self.u_probs))
        if any(len(set(v)) != len(v) for v in (self.c_values, self.u_values)):
            raise ValueError("duplicate entries in c_values or u_values")
        if len(self.u_probs) != len(self.u_values):
            raise ValueError("u_probs must align with u_values")
        _check_distribution(self.u_probs, "u_probs")
        marginal = all(not isinstance(v, dict) for v in self.cause_table.values())
        cond = {}
        for u in self.u_values:
            row = self.cause_table if marginal else self.cause_table.get(u)
            if not isinstance(row, dict) or any(c not in row for c in self.c_values):
                raise ValueError(f"cause table lacks P(C=c|U={u}) for some c")
            cond[u] = {c: float(row[c]) for c in self.c_values}
            _check_distribution(cond[u].values(), f"cause probabilities for u={u}")
        table = {}
        for c in self.c_values:
            for u in self.u_values:
                y = self.mechanism(c, u)
                if y not in (0, 1):
                    raise ValueError(f"mechanism({c}, {u}) = {y}, outside {{0, 1}}")
                table[(c, u)] = int(y)
        object.__setattr__(self, "_cond_cause", cond)
        object.__setattr__(self, "_table", table)

    def p_joint(self, c, y):
        """Observational P(C=c, Y=y)."""
        return sum(
            pu * self._cond_cause[u][c]
            for u, pu in zip(self.u_values, self.u_probs)
            if self._table[(c, u)] == y
        )


def _validate_query(scm, c, c_bar, y):
    if c == c_bar:
        raise ValueError("c and cbar must differ")
    if c not in scm.c_values or c_bar not in scm.c_values:
        raise ValueError(f"cause values {c}, {c_bar} must come from {scm.c_values}")
    if y not in (0, 1):
        raise ValueError(f"y must be 0 or 1, got {y}")


def _walk(scm, c, c_bar, y):
    """The one walk over u_values behind every measure of the query
    (c, cbar, y): per u, in u_values order, the row
    (P(u), f(c,u) == y, f(cbar,u) == y, P(C=c|u), P(C=cbar|u))."""
    cond, table = scm._cond_cause, scm._table
    return [(pu, table[(c, u)] == y, table[(c_bar, u)] == y, cond[u][c], cond[u][c_bar])
            for u, pu in zip(scm.u_values, scm.u_probs)]


def _sums(rows):
    """P(C=c, Y=y), P(C=cbar, Y=y), P(C=cbar, Y!=y), P(Y=y|do(c)),
    P(Y=y|do(cbar)), P(C=c) and P(C=cbar), each summed once in u order."""
    return (sum(pu * pc for pu, hit_c, _, pc, _ in rows if hit_c),
            sum(pu * pb for pu, _, hit_b, _, pb in rows if hit_b),
            sum(pu * pb for pu, _, hit_b, _, pb in rows if not hit_b),
            sum(pu for pu, hit_c, _, _, _ in rows if hit_c),
            sum(pu for pu, _, hit_b, _, _ in rows if hit_b),
            sum(pu * pc for pu, _, _, pc, _ in rows),
            sum(pu * pb for pu, _, _, _, pb in rows))


def _conditional(joint, mass, c):
    if mass <= 0.0:
        raise UndefinedConditionalError(f"conditioning on C={c}, which has zero probability")
    return joint / mass


def pns_exact(scm, c, c_bar, y):
    """Two-term counterfactual PNS.

    P(f(c,U)=y | C=cbar, Y!=y) * P(C=cbar, Y!=y)
      + P(f(cbar,U)!=y | C=c, Y=y) * P(C=c, Y=y)

    Each term is the joint mass it equals: the sum of P(u) P(C=cbar|u),
    then of P(u) P(C=c|u), over the u where f(c,u) = y != f(cbar,u).  A
    zero-probability conditioning event raises rather than vanishing.
    """
    _validate_query(scm, c, c_bar, y)
    rows = _walk(scm, c, c_bar, y)
    joint_c, _, joint_cbar_ybar, *_ = _sums(rows)
    return _pns(rows, joint_c, joint_cbar_ybar, c, c_bar, y)


def _pns(rows, joint_c, joint_cbar_ybar, c, c_bar, y):
    for term, mass, cause, label in (("sufficiency term", joint_cbar_ybar, c_bar, 1 - y),
                                     ("necessity term", joint_c, c, y)):
        if mass <= 0.0:
            raise UndefinedConditionalError(
                f"{term}: conditioning event (C={cause}, Y={label}) has zero probability")
    return (sum((pu * pb for pu, hit_c, hit_b, _, pb in rows if hit_c and not hit_b), 0.0)
            + sum((pu * pc for pu, hit_c, hit_b, pc, _ in rows if hit_c and not hit_b), 0.0))


def pns_identified(scm, c, c_bar, y):
    """Observational difference P(Y=y|C=c) - P(Y=y|C=cbar)."""
    _validate_query(scm, c, c_bar, y)
    joint_c, joint_cbar, _, _, _, mass_c, mass_cbar = _sums(_walk(scm, c, c_bar, y))
    return _conditional(joint_c, mass_c, c) - _conditional(joint_cbar, mass_cbar, c_bar)


def check_monotonicity(scm, c, c_bar, y):
    """True when one joint counterfactual direction carries no mass,
    i.e. P(f(c,U)=y and f(cbar,U)!=y) = 0 or its mirror is 0."""
    _validate_query(scm, c, c_bar, y)
    return min(_directions(_walk(scm, c, c_bar, y))) <= _ATOL


def _directions(rows):
    """The U-masses where f(c,u) = y != f(cbar,u) and where f(cbar,u) = y != f(c,u)."""
    return (sum(pu for pu, hit_c, hit_b, _, _ in rows if hit_c and not hit_b),
            sum(pu for pu, hit_c, hit_b, _, _ in rows if not hit_c and hit_b))


def check_exogeneity(scm, c, y):
    """True when intervening and observing agree: P(Y=y|do(c)) = P(Y=y|C=c)."""
    if c not in scm.c_values:
        raise ValueError(f"cause value {c} must come from {scm.c_values}")
    if y not in (0, 1):
        raise ValueError(f"y must be 0 or 1, got {y}")
    joint, _, _, do, _, mass, _ = _sums(_walk(scm, c, c, y))  # both columns are c
    return abs(do - _conditional(joint, mass, c)) <= _ATOL


def necessity_ratio(p_y, p_y_do_cbar, p_joint_c_y):
    """PN by identification: [P(Y=y) - P(Y=y|do(cbar))] / P(C=c, Y=y)."""
    if p_joint_c_y <= 0.0:
        raise UndefinedConditionalError("necessity ratio: P(C=c, Y=y) is zero")
    return (p_y - p_y_do_cbar) / p_joint_c_y

def sufficiency_ratio(p_y_do_c, p_y, p_joint_cbar_ybar):
    """PS by identification: [P(Y=y|do(c)) - P(Y=y)] / P(C=cbar, Y!=y)."""
    if p_joint_cbar_ybar <= 0.0:
        raise UndefinedConditionalError("sufficiency ratio: P(C=cbar, Y!=y) is zero")
    return (p_y_do_c - p_y) / p_joint_cbar_ybar


@dataclass(frozen=True)
class PnsReport:
    """Everything the oracle knows about one (c, cbar, y) query.

    pn and ps come from the ratio formulas and are reported raw; values
    escape [0, 1] when the identification assumptions fail, so a flag
    is derived instead of clamping.  The flag forgives _ATOL of rounding
    on either side, as the monotone and exogeneity checks do.
    """

    pn: float
    ps: float
    pns: float
    identified_pns: float
    monotone: bool
    exogenous: bool

    @property
    def within_unit_range(self):
        return all(-_ATOL <= v <= 1.0 + _ATOL for v in (self.pn, self.ps))


def analyze(scm, c, c_bar, y):
    """Full PnsReport for one query on one model, each measure taken once
    from one walk over the noise values; monotone: either direction is empty."""
    _validate_query(scm, c, c_bar, y)
    rows = _walk(scm, c, c_bar, y)
    joint_c, joint_cbar, joint_cbar_ybar, do_c, do_cbar, mass_c, mass_cbar = _sums(rows)
    p_y = sum(joint_c if v == c else joint_cbar if v == c_bar else scm.p_joint(v, y)
              for v in scm.c_values)
    # each term in the order its error takes precedence
    pn = necessity_ratio(p_y, do_cbar, joint_c)
    ps = sufficiency_ratio(do_c, p_y, joint_cbar_ybar)
    pns = _pns(rows, joint_c, joint_cbar_ybar, c, c_bar, y)
    given_c = _conditional(joint_c, mass_c, c)
    given_cbar = _conditional(joint_cbar, mass_cbar, c_bar)
    up, down = _directions(rows)
    report = PnsReport(pn, ps, pns, given_c - given_cbar, min(up, down) <= _ATOL,
                       abs(do_c - given_c) <= _ATOL and abs(do_cbar - given_cbar) <= _ATOL)
    if len(scm.c_values) == 2 and down <= _ATOL and report.exogenous:
        # for an exogenous binary cause the observational difference is up - down:
        # PNS = up when down is empty, so the two must coincide (not so if only up is)
        if not abs(report.pns - report.identified_pns) <= 1e-9:
            raise RuntimeError(
                f"exact PNS {report.pns!r} and identified PNS {report.identified_pns!r} "
                "disagree on an identifiable model")
    return report


def random_identifiable_scm(rng):
    """Random binary-cause SCM that is exogenous and monotone toward
    (c=1, cbar=0, y=1), with both conditioning events carrying mass."""
    n_u = int(rng.integers(2, 5))
    raw = rng.uniform(0.05, 1.0, size=n_u)
    u_probs = tuple(raw / raw.sum())
    p1 = float(rng.uniform(0.1, 0.9))
    while True:
        # each u draws (f(0,u), f(1,u)) from the monotone pairs
        pairs = [((0, 0), (0, 1), (1, 1))[rng.integers(0, 3)] for _ in range(n_u)]
        if any(p[0] == 0 for p in pairs) and any(p[1] == 1 for p in pairs):
            break
    table = {(c, u): pairs[u][c] for c in (0, 1) for u in range(n_u)}
    return DiscreteScm(
        c_values=(0, 1),
        u_values=tuple(range(n_u)),
        u_probs=u_probs,
        cause_table={0: 1.0 - p1, 1: p1},
        mechanism=lambda c, u: table[(c, u)],
    )


def read_scm(path):
    """Parse the plain-text SCM table format.

    Directive lines, whitespace separated, blanks and # comments ignored:

        c_values <v> <v> ...
        u_values <v> <v> ...
        u_probs <p> <p> ...            aligned with u_values
        c_probs <p> <p> ...            marginal, aligned with c_values
        c_probs_given_u <u> <p> ...    one line per u for a confounded cause
        y <c> <u> <0|1>                one line per (c, u) pair

    Each directive appears once (c_probs_given_u once per u, y once per
    pair).  A malformed table raises ValueError("<path>:<line>: ...")
    naming the line at fault.
    """
    vectors, conditional, outcomes = {}, {}, {}  # entry -> (line number, value)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, *args = line.split()
            try:
                if key in ("c_values", "u_values", "u_probs", "c_probs"):
                    table, entry, value = vectors, key, tuple(float(a) for a in args)
                    if key.endswith("probs"):
                        _check_distribution(value, key)
                    elif len(set(value)) != len(value):
                        raise ValueError(f"duplicate entries in {key}")
                elif key == "c_probs_given_u" and args:
                    table, entry = conditional, float(args[0])
                    value = tuple(float(a) for a in args[1:])
                    _check_distribution(value, f"c_probs_given_u {entry}")
                elif key == "y" and len(args) == 3:
                    table, entry, value = outcomes, (float(args[0]), float(args[1])), int(args[2])
                    if value not in (0, 1):
                        raise ValueError(f"label {value} outside {{0, 1}}")
                else:
                    raise ValueError(f"unknown directive or wrong arity: {line!r}")
                if entry in table:
                    raise ValueError(f"{key} repeats line {table[entry][0]}")
                if "c_probs" in (key, *vectors) and (conditional or table is conditional):
                    raise ValueError("c_probs and c_probs_given_u cannot be mixed")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            table[entry] = (lineno, value)

    def check(ok, lineno, message):
        if not ok:
            raise ValueError(f"{path}:{lineno}: {message}")

    if not {"c_values", "u_values", "u_probs"} <= vectors.keys():
        raise ValueError(f"{path}: c_values, u_values and u_probs are all required")
    if not ("c_probs" in vectors or conditional):
        raise ValueError(f"{path}: need c_probs or c_probs_given_u lines")
    c_values, u_values = vectors["c_values"][1], vectors["u_values"][1]
    rows = [(vectors["u_probs"], u_values)]
    rows += [(entry, c_values) for entry in (vectors.get("c_probs"), *conditional.values()) if entry]
    for (lineno, probs), values in rows:
        check(len(probs) == len(values), lineno,
              f"{len(probs)} probabilities for {len(values)} values")
    for u, (lineno, _) in conditional.items():
        check(u in u_values, lineno, f"u = {u} is not in u_values")
    for u in u_values:
        check(u in conditional or not conditional, vectors["u_values"][0],
              f"no c_probs_given_u line for u = {u}")
    for (c, u), (lineno, _) in outcomes.items():
        check(c in c_values and u in u_values, lineno, f"y {c} {u} is outside c_values x u_values")
    missing = [(c, u) for c in c_values for u in u_values if (c, u) not in outcomes]
    if missing:
        raise ValueError(f"{path}: mechanism not total, missing y lines for {missing}")
    if "c_probs" in vectors:
        cause_table = dict(zip(c_values, vectors["c_probs"][1]))
    else:
        cause_table = {u: dict(zip(c_values, conditional[u][1])) for u in u_values}
    return DiscreteScm(c_values=c_values, u_values=u_values, u_probs=vectors["u_probs"][1],
                       cause_table=cause_table, mechanism=lambda c, u: outcomes[(c, u)][1])


def format_report(report):
    """key = value lines, one per report field."""
    lines = [
        f"pn = {report.pn!r}",
        f"ps = {report.ps!r}",
        f"pns = {report.pns!r}",
        f"identified_pns = {report.identified_pns!r}",
        f"monotone = {str(report.monotone).lower()}",
        f"exogenous = {str(report.exogenous).lower()}",
        f"within_unit_range = {str(report.within_unit_range).lower()}",
    ]
    return "\n".join(lines) + "\n"
