"""Exact counterfactual probabilities on small discrete causal models.

A DiscreteScm fixes a finite cause variable C, a finite exogenous noise
variable U with known distribution, a cause table (either a marginal
P(C) or a conditional P(C|U) when C is deliberately confounded), and a
deterministic binary mechanism y = f(c, u).  Everything downstream is
exact enumeration: interventions fix c and average over U; conditioning
restricts U to the posterior given the observed (C, Y) event.

Quantities follow the standard causality-of-effects vocabulary:

* PNS(c, cbar, y): probability that the cause is both sufficient and
  necessary, P(f(c,U)=y and f(cbar,U)!=y) split into its two
  conditional terms.
* PN, PS: the ratio identification formulas that recover necessity and
  sufficiency from observational and interventional quantities when the
  cause is exogenous and the mechanism monotone.
* identified PNS: P(Y=y|C=c) - P(Y=y|C=cbar), the observational
  difference that equals PNS under exogeneity plus monotonicity for a
  binary cause.
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


class UndefinedConditionalError(ValueError):
    """Conditioning event has zero probability; the term is named so a
    malformed test model surfaces instead of silently contributing 0."""


@dataclass(frozen=True)
class DiscreteScm:
    """Finite SCM with exogenous noise U and binary outcome.

    cause_table is either {c: P(C=c)} for an exogenous cause or
    {u: {c: P(C=c|U=u)}} for a confounded one.  mechanism maps
    (c, u) to a label in {0, 1} and must be total.
    """

    c_values: tuple
    u_values: tuple
    u_probs: tuple
    cause_table: dict
    mechanism: object = field(repr=False)

    def __post_init__(self):
        if len(self.u_probs) != len(self.u_values):
            raise ValueError("u_probs must align with u_values")
        if abs(sum(self.u_probs) - 1.0) > _ATOL:
            raise ValueError(f"u_probs sum to {sum(self.u_probs)}, not 1")
        if any(p < 0 for p in self.u_probs):
            raise ValueError("negative probability in u_probs")
        cond = {}
        if all(not isinstance(v, dict) for v in self.cause_table.values()):
            row = {c: float(self.cause_table[c]) for c in self.c_values}
            for u in self.u_values:
                cond[u] = row
        else:
            for u in self.u_values:
                cond[u] = {c: float(self.cause_table[u][c]) for c in self.c_values}
        for u, row in cond.items():
            total = sum(row.values())
            if abs(total - 1.0) > _ATOL:
                raise ValueError(f"cause probabilities for u={u} sum to {total}, not 1")
            if any(p < 0 for p in row.values()):
                raise ValueError(f"negative cause probability for u={u}")
        table = {}
        for c in self.c_values:
            for u in self.u_values:
                y = self.mechanism(c, u)
                if y not in (0, 1):
                    raise ValueError(f"mechanism({c}, {u}) = {y}, outside {{0, 1}}")
                table[(c, u)] = int(y)
        object.__setattr__(self, "_cond_cause", cond)
        object.__setattr__(self, "_table", table)

    # ---- primitive measures ----

    def outcome(self, c, u):
        return self._table[(c, u)]

    def p_cause_given_noise(self, c, u):
        return self._cond_cause[u][c]

    def p_joint(self, c, y):
        """Observational P(C=c, Y=y)."""
        return sum(
            pu * self._cond_cause[u][c]
            for u, pu in zip(self.u_values, self.u_probs)
            if self._table[(c, u)] == y
        )

    def p_cause(self, c):
        return sum(pu * self._cond_cause[u][c] for u, pu in zip(self.u_values, self.u_probs))

    def p_outcome(self, y):
        return sum(self.p_joint(c, y) for c in self.c_values)

    def p_do(self, c, y):
        """Interventional P(Y=y | do(C=c)): fix c, average the noise."""
        return sum(pu for u, pu in zip(self.u_values, self.u_probs) if self._table[(c, u)] == y)

    def p_outcome_given_cause(self, c, y):
        pc = self.p_cause(c)
        if pc <= 0.0:
            raise UndefinedConditionalError(f"conditioning on C={c}, which has zero probability")
        return self.p_joint(c, y) / pc

    def posterior_u(self, c, y, term):
        """P(U | C=c, Y=y) as a list aligned with u_values."""
        weights = [
            pu * self._cond_cause[u][c] if self._table[(c, u)] == y else 0.0
            for u, pu in zip(self.u_values, self.u_probs)
        ]
        total = sum(weights)
        if total <= 0.0:
            raise UndefinedConditionalError(
                f"{term}: conditioning event (C={c}, Y={y}) has zero probability"
            )
        return [w / total for w in weights]


def _validate_query(scm, c, c_bar, y):
    if c == c_bar:
        raise ValueError("c and cbar must differ")
    if c not in scm.c_values or c_bar not in scm.c_values:
        raise ValueError(f"cause values {c}, {c_bar} must come from {scm.c_values}")
    if y not in (0, 1):
        raise ValueError(f"y must be 0 or 1, got {y}")


def pns_exact(scm, c, c_bar, y):
    """Two-term counterfactual PNS.

    P(f(c,U)=y | C=cbar, Y!=y) * P(C=cbar, Y!=y)
      + P(f(cbar,U)!=y | C=c, Y=y) * P(C=c, Y=y)

    Each conditional is computed from the exact noise posterior; a
    zero-probability conditioning event raises rather than vanishing.
    """
    _validate_query(scm, c, c_bar, y)
    post_suff = scm.posterior_u(c_bar, 1 - y, "sufficiency term")
    suff = sum(
        w for u, w in zip(scm.u_values, post_suff) if scm.outcome(c, u) == y
    )
    post_nec = scm.posterior_u(c, y, "necessity term")
    nec = sum(
        w for u, w in zip(scm.u_values, post_nec) if scm.outcome(c_bar, u) != y
    )
    return suff * scm.p_joint(c_bar, 1 - y) + nec * scm.p_joint(c, y)


def pns_identified(scm, c, c_bar, y):
    """Observational difference P(Y=y|C=c) - P(Y=y|C=cbar)."""
    _validate_query(scm, c, c_bar, y)
    return scm.p_outcome_given_cause(c, y) - scm.p_outcome_given_cause(c_bar, y)


def check_monotonicity(scm, c, c_bar, y):
    """True when one joint counterfactual direction carries no mass,
    i.e. P(f(c,U)=y and f(cbar,U)!=y) = 0 or its mirror is 0."""
    _validate_query(scm, c, c_bar, y)
    up = sum(
        pu
        for u, pu in zip(scm.u_values, scm.u_probs)
        if scm.outcome(c, u) == y and scm.outcome(c_bar, u) != y
    )
    down = sum(
        pu
        for u, pu in zip(scm.u_values, scm.u_probs)
        if scm.outcome(c, u) != y and scm.outcome(c_bar, u) == y
    )
    return up <= _ATOL or down <= _ATOL


def check_exogeneity(scm, c, y):
    """True when intervening and observing agree: P(Y=y|do(c)) = P(Y=y|C=c)."""
    return abs(scm.p_do(c, y) - scm.p_outcome_given_cause(c, y)) <= _ATOL


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
    is derived instead of clamping.
    """

    pn: float
    ps: float
    pns: float
    identified_pns: float
    monotone: bool
    exogenous: bool

    @property
    def within_unit_range(self):
        return 0.0 <= self.pn <= 1.0 and 0.0 <= self.ps <= 1.0


def analyze(scm, c, c_bar, y):
    """Full PnsReport for one query on one model."""
    _validate_query(scm, c, c_bar, y)
    p_y = scm.p_outcome(y)
    report = PnsReport(
        pn=necessity_ratio(p_y, scm.p_do(c_bar, y), scm.p_joint(c, y)),
        ps=sufficiency_ratio(scm.p_do(c, y), p_y, scm.p_joint(c_bar, 1 - y)),
        pns=pns_exact(scm, c, c_bar, y),
        identified_pns=pns_identified(scm, c, c_bar, y),
        monotone=check_monotonicity(scm, c, c_bar, y),
        exogenous=check_exogeneity(scm, c, y) and check_exogeneity(scm, c_bar, y),
    )
    if len(scm.c_values) == 2 and report.monotone and report.exogenous:
        # for a binary cause the two conditional terms exhaust the
        # observational difference, so the exact and identified values
        # must coincide
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
    """
    c_values = u_values = u_probs = None
    marginal = None
    conditional = {}
    outcomes = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            key, args = tokens[0], tokens[1:]
            try:
                if key == "c_values":
                    c_values = tuple(float(a) for a in args)
                elif key == "u_values":
                    u_values = tuple(float(a) for a in args)
                elif key == "u_probs":
                    u_probs = tuple(float(a) for a in args)
                elif key == "c_probs":
                    marginal = [float(a) for a in args]
                elif key == "c_probs_given_u":
                    conditional[float(args[0])] = [float(a) for a in args[1:]]
                elif key == "y":
                    outcomes[(float(args[0]), float(args[1]))] = int(args[2])
                else:
                    raise ValueError(f"unknown directive {key!r}")
            except (ValueError, IndexError) as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if c_values is None or u_values is None or u_probs is None:
        raise ValueError(f"{path}: c_values, u_values and u_probs are all required")
    if marginal is not None:
        cause_table = dict(zip(c_values, marginal))
    elif conditional:
        cause_table = {u: dict(zip(c_values, conditional[u])) for u in u_values}
    else:
        raise ValueError(f"{path}: need c_probs or c_probs_given_u lines")
    missing = [(c, u) for c in c_values for u in u_values if (c, u) not in outcomes]
    if missing:
        raise ValueError(f"{path}: mechanism not total, missing y lines for {missing}")
    return DiscreteScm(
        c_values=c_values,
        u_values=u_values,
        u_probs=u_probs,
        cause_table=cause_table,
        mechanism=lambda c, u: outcomes[(c, u)],
    )


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
