"""The certificate requests of each workload, built from a seed.

Every request is a `cli.SystemSpec`; inline systems and parameter values
are parsed with `expr`, builtin families are built from `unfoldings`
parameter classes.  Functions of `expr` are looked up at call time, so a
traced set-up sees them.  This module imports `artifact`, so only the
worker process and the reference recorder load it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from artifact.cli import FAMILY_DOUBLE_HOPF, FAMILY_FOLD_HOPF, SystemSpec
from artifact.exactalg import FieldSpec, QuadExt, RatFunc
from artifact import expr
from artifact.unfoldings import DoubleHopfParams, FoldHopfParams

# A verdict is (status, fired_k, fired_criterion).
Verdict = Tuple[str, Optional[int], Optional[str]]

# Hand-written expectations.  The gate-4 values come from the acceptance
# tests; fold-Hopf (0, 1, rt) fires (iv), which gate 4 does not pin.
# The inline systems' verdicts were recorded when the benchmark was set up.
EXPECTED: Dict[str, Verdict] = {
    "fh(-1,1,rt,s=+1)": ("nonintegrable", 3, "iv"),
    "fh(-1,1,rt,s=-1)": ("nonintegrable", 3, "iv"),
    "fh(-1,rt,rt)": ("nonintegrable", 3, "i"),
    "fh(0,1,rt)": ("nonintegrable", 3, "iv"),
    "dh1(1,rt,1/2,1)": ("nonintegrable", 3, "iii"),
    "inline-quartic": ("nonintegrable", 2, "iv"),
    "dh1(1,rt,1,1)": ("inconclusive", None, None),
    "inline-six-term": ("inconclusive", None, None),
}

# Number of H2 witnesses each witness-deep certificate must carry.
EXPECTED_WITNESSES = {"dh1(1,rt,1,1)": 12, "inline-six-term": 5}

INLINE = {
    "inline-quartic": (
        "xi^4 + xi + 1 + eta^2",
        "eta*(rt*xi + 1) + eta^2",
    ),
    "inline-six-term": (
        "(-1 + rt)*xi^3*eta^2 + 2*xi^2*eta^2 + xi*eta^2 + eta^2"
        " - 3*xi^2*eta - 3*eta + 1/2*xi^2 - 1/2*xi + 3/2",
        "(-1 + 2*rt)*xi*eta^2 + 1/2*eta^2 - 2*xi*eta + (-2 + rt)*eta",
    ),
}

# The gate-6 pools, as the text a config file would carry.
MU_POOL = ("-1", "1", "2", "-2", "0", "1/2")
VALUE_POOL = ("rt", "2*rt", "-rt", "rt/2", "3*rt",
              "1/4", "-1/2", "3/4", "2", "-1", "0")
SIGNS = (1, -1)

# sweep-k9 draws from a fixed population of gate-6 tuples, twice the
# sample, whose certificates are all recorded in reference.json, so every
# seed's draw is checked byte for byte.  Per-tuple cost spans 0.02-0.4 s,
# so a plain random draw of 120 moves a pass by about 8% from seed to
# seed.  The draw is therefore stratified by recorded certificate size,
# which tracks the orders examined and the witness degrees (correlation
# 0.84 with the time of a tuple): each family group is cut into SIZE_BINS
# bins of equal count, every seed takes the same number of tuples from
# each bin, and the seed picks which tuples and their order.  That leaves
# about 3% of seed-to-seed spread in the time of a pass.
POPULATION_SEED = 20260814
SAMPLE_SIZE = {"fh": 60, "dh1": 30, "dh2": 30}
POPULATION_SIZE = {group: 2 * n for group, n in SAMPLE_SIZE.items()}
SIZE_BINS = 15


@dataclass(frozen=True)
class Request:
    """One certificate request: a label for checks and the spec to run."""

    label: str
    spec: SystemSpec


@dataclass(frozen=True)
class Workload:
    name: str
    requests: Tuple[Request, ...]
    warmup: SystemSpec
    is_sweep: bool


def field() -> FieldSpec:
    return FieldSpec(2)


def scalar(text: str, F: FieldSpec) -> QuadExt:
    value = expr.parse_expression(text, F)
    if isinstance(value, RatFunc):
        return value.num.coeff(0) / value.den.coeff(0)
    return value.row(0).coeff(0)


def _inline(label: str, F: FieldSpec, max_order: int) -> SystemSpec:
    p_text, q_text = INLINE[label]
    return SystemSpec(
        field=F,
        max_order=max_order,
        P=expr.parse_bipoly(p_text, F),
        Q=expr.parse_bipoly(q_text, F),
        phi=expr.parse_ratfunc("0", F),
    )


def _fold_hopf(F, mu, nu, alpha, s=1, max_order=25) -> SystemSpec:
    params = FoldHopfParams(
        F, scalar(mu, F), scalar(nu, F), scalar(alpha, F), s=s
    )
    return SystemSpec(
        field=F, max_order=max_order, family=FAMILY_FOLD_HOPF, params=params
    )


def _double_hopf(F, mu, nu, alpha, beta, s=1, chart=1, max_order=25):
    params = DoubleHopfParams(
        F, scalar(mu, F), scalar(nu, F), scalar(alpha, F), scalar(beta, F),
        s=s,
    )
    return SystemSpec(
        field=F, max_order=max_order, family=FAMILY_DOUBLE_HOPF,
        chart=chart, params=params,
    )


def fixed_requests(name: str, F: FieldSpec) -> List[Request]:
    """The fixed certificate list of firing-k25 or witness-deep."""
    if name == "firing-k25":
        return [
            Request("inline-quartic", _inline("inline-quartic", F, 25)),
            Request("fh(-1,1,rt,s=+1)", _fold_hopf(F, "-1", "1", "rt", 1)),
            Request("fh(-1,1,rt,s=-1)", _fold_hopf(F, "-1", "1", "rt", -1)),
            Request("fh(-1,rt,rt)", _fold_hopf(F, "-1", "rt", "rt")),
            Request("fh(0,1,rt)", _fold_hopf(F, "0", "1", "rt")),
            Request(
                "dh1(1,rt,1/2,1)", _double_hopf(F, "1", "rt", "1/2", "1")
            ),
        ]
    if name == "witness-deep":
        return [
            Request("dh1(1,rt,1,1)", _double_hopf(F, "1", "rt", "1", "1")),
            Request("inline-six-term", _inline("inline-six-term", F, 6)),
        ]
    raise ValueError(f"no fixed request list for {name!r}")


def population(F: FieldSpec) -> Dict[str, List[Request]]:
    """The fixed sweep population, per group, in draw order, deduplicated."""
    rng = random.Random(POPULATION_SEED)
    groups: Dict[str, List[Request]] = {}
    for group, size in POPULATION_SIZE.items():
        seen = set()
        out: List[Request] = []
        while len(out) < size:
            if group == "fh":
                key = (rng.choice(MU_POOL), rng.choice(VALUE_POOL),
                       rng.choice(VALUE_POOL), rng.choice(SIGNS))
            else:
                key = (rng.choice(MU_POOL), rng.choice(VALUE_POOL),
                       rng.choice(VALUE_POOL), rng.choice(VALUE_POOL),
                       rng.choice(SIGNS))
            if key in seen:
                continue
            seen.add(key)
            *values, s = key
            if group == "fh":
                spec = _fold_hopf(F, *values, s=s, max_order=9)
            else:
                spec = _double_hopf(
                    F, *values, s=s, chart=int(group[-1]), max_order=9
                )
            label = f"{group}({','.join(values)},s={s:+d})"
            out.append(Request(label, spec))
        groups[group] = out
    return groups


def stratified_draw(
    groups: Dict[str, List[Request]], sizes: Dict[str, int], seed: int
) -> List[Request]:
    """SAMPLE_SIZE requests per group, the same count from each size bin."""
    rng = random.Random(seed)
    drawn: List[Request] = []
    for group, members in groups.items():
        ranked = sorted(members, key=lambda r: (sizes[r.label], r.label))
        n, want = len(ranked), SAMPLE_SIZE[group]
        for b in range(SIZE_BINS):
            bin_ = ranked[b * n // SIZE_BINS:(b + 1) * n // SIZE_BINS]
            take = (b + 1) * want // SIZE_BINS - b * want // SIZE_BINS
            drawn.extend(rng.sample(bin_, take))
    rng.shuffle(drawn)
    return drawn


def build(name: str, seed: int, sizes: Dict[str, int]) -> Workload:
    """The workload's requests for this seed, and its warm-up request.

    The warm-up is the workload's first request at the smallest order
    bound, so that lazy imports (sympy on firing-k25) land in set-up.
    """
    F = field()
    if name == "sweep-k9":
        groups = population(F)
        requests = stratified_draw(groups, sizes, seed)
        warmup = replace(groups["fh"][0].spec, max_order=2)
        return Workload(name, tuple(requests), warmup, is_sweep=True)
    requests = fixed_requests(name, F)
    warmup = replace(requests[0].spec, max_order=2)
    random.Random(seed).shuffle(requests)
    return Workload(name, tuple(requests), warmup, is_sweep=False)


def params_text(spec: SystemSpec) -> Dict[str, str]:
    """A sweep row's parameter echo, as the sweep command shows it."""
    p = spec.params
    shown = {
        "mu": expr.format_scalar(p.mu),
        "nu": expr.format_scalar(p.nu),
        "alpha": expr.format_scalar(p.alpha),
    }
    if spec.family == FAMILY_DOUBLE_HOPF:
        shown["beta"] = expr.format_scalar(p.beta)
        shown["chart"] = str(spec.chart)
    shown["s"] = str(p.s)
    return shown
