"""Command-line interface: config parsing, certification, serialization.

Subcommands:

* ``check <file>`` — certify the system described by an INI config file
  (sections ``[field]``, ``[system]``, ``[check]``);
* ``fold-hopf`` / ``double-hopf`` — certify a builtin unfolding directly
  from parameter flags;
* ``sweep <file>`` — run a parameter grid (section ``[sweep]``) against a
  builtin family and print a summary.

The builtin families come from ``unfoldings.FAMILIES``.  A family's
parameters (its dataclass fields after ``field``, in declaration order)
are its ``[system]`` keys, its subcommand flags, its sweep axes and the
keys of the ``params`` echo; a parameter without a default is required,
``s`` is a sign and every other parameter a scalar.  ``chart`` is a key
and a flag only for a family with more than one chart.  A family
subcommand turns its flags into the text mapping a ``[system]`` section
holds, so flags and configs are parsed, defaulted and validated by one
function; its messages name the ``--flag`` or the ``[system] key``.

Exit codes: 0 = nonintegrability proven, 1 = inconclusive, 3 = the
method does not apply (irregular at infinity), 4 = input/usage error,
5 = internal error (an exact self-check of the pipeline failed, the
pipeline raised an error on input it accepted, or any other exception
escaped; the message names an unexpected exception's type).  A sweep
exits 5 if any tuple hit an internal error, 4 if every tuple of a
non-empty grid failed, and 0 otherwise.
The ``NONINT_MAX_ORDER`` environment variable overrides the default
maximum variational order (9); an explicit config value or ``--max-order``
flag wins over the environment.

JSON reports have exactly the top-level keys ``version``, ``status``,
``h1``, ``orders`` and ``input_echo``; the full schema is documented in
docs/certificate-schema.md.
"""

from __future__ import annotations

import argparse
import configparser
import itertools
import json
import os
import sys
import time
from dataclasses import MISSING, dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from . import __version__
from .criteria import (
    Certificate,
    CriterionOutcome,
    DEFAULT_MAX_ORDER,
    MAX_ORDER_CAP,
    certify,
)
from .exactalg import BiPoly, FieldSpec, QuadExt, RatFunc, UPoly
from .expr import (
    ExprSyntaxError,
    format_bipoly,
    format_poly,
    format_ratfunc,
    format_scalar,
    parse_bipoly,
    parse_ratfunc,
)
from .unfoldings import FAMILIES, DoubleHopfParams, Family, FoldHopfParams
from .varcalc import CurveData, InvalidInputError, PlanarSystem

EXIT_NONINTEGRABLE = 0
EXIT_INCONCLUSIVE = 1
EXIT_INAPPLICABLE = 3
EXIT_USAGE = 4
EXIT_INTERNAL = 5
INTERNAL_ERROR_PREFIX = "internal error: "

_STATUS_EXIT_CODES = {
    "nonintegrable": EXIT_NONINTEGRABLE,
    "inconclusive": EXIT_INCONCLUSIVE,
    "inapplicable": EXIT_INAPPLICABLE,
}

ENV_MAX_ORDER = "NONINT_MAX_ORDER"

FAMILY_FOLD_HOPF = "fold-hopf"
FAMILY_DOUBLE_HOPF = "double-hopf"


class UsageError(Exception):
    """Bad input (config, expression, or parameter); maps to exit code 4."""


class InternalError(Exception):
    """A fault inside the pipeline on valid input; maps to exit code 5."""


# ---------------------------------------------------------------------------
# Input parsing helpers
# ---------------------------------------------------------------------------


def _parse_scalar(text: str, field: FieldSpec, what: str) -> QuadExt:
    value = _parse(parse_ratfunc, text, field, what)
    if not value.is_constant():
        raise UsageError(f"{what}: expected a constant, got {value}")
    return value.num.coeff(0) / value.den.coeff(0)


def _parse(parse, text: str, field: FieldSpec, what: str):
    """parse(text, field), its syntax errors turned into usage errors."""
    try:
        return parse(text, field)
    except ExprSyntaxError as exc:
        raise UsageError(f"{what}: {exc}") from exc


def _parse_sign(text: str, what: str) -> int:
    try:
        s = int(text.strip())
    except ValueError:
        raise UsageError(f"{what}: expected +1 or -1, got {text!r}")
    if s not in (1, -1):
        raise UsageError(f"{what}: expected +1 or -1, got {s}")
    return s


def _parse_param(name: str, text: str, field: FieldSpec, what: str):
    """A family parameter: s is a sign, every other parameter a scalar."""
    if name == "s":
        return _parse_sign(text, what)
    return _parse_scalar(text, field, what)


def _validate_max_order(k: int) -> int:
    if not 2 <= k <= MAX_ORDER_CAP:
        raise UsageError(f"max order must lie in 2..{MAX_ORDER_CAP}, got {k}")
    return k


def _max_order(flag: Optional[int], configured: Optional[str] = None) -> int:
    """The --max-order flag, else the config's [check] max_order, else
    NONINT_MAX_ORDER, else the default."""
    if flag is not None:
        return _validate_max_order(flag)
    for name, text in (("[check] max_order", configured),
                       (ENV_MAX_ORDER, os.environ.get(ENV_MAX_ORDER))):
        if text is not None:
            try:
                k = int(text)
            except ValueError:
                raise UsageError(
                    f"{name} must be an integer, got {text!r}") from None
            return _validate_max_order(k)
    return DEFAULT_MAX_ORDER


def _refuse_unknown(
    section: str, keys: Iterable[str], allowed: Iterable[str]
) -> None:
    extra = set(keys) - set(allowed)
    if extra:
        raise UsageError(
            f"unknown keys in [{section}]: {', '.join(sorted(extra))}")


# ---------------------------------------------------------------------------
# SystemSpec
# ---------------------------------------------------------------------------


def _family(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise UsageError(f"unknown family: {name!r}") from None


@dataclass(frozen=True)
class SystemSpec:
    """A fully parsed certification request: either an inline planar
    system (P, Q, phi) or a builtin unfolding family with parameters."""

    field: FieldSpec
    max_order: int = DEFAULT_MAX_ORDER
    P: Optional[BiPoly] = None
    Q: Optional[BiPoly] = None
    phi: Optional[RatFunc] = None
    family: Optional[str] = None
    chart: int = 1
    params: Union[FoldHopfParams, DoubleHopfParams, None] = None

    def __post_init__(self):
        inline = self.P is not None or self.Q is not None
        builtin = self.family is not None
        if inline == builtin:
            raise UsageError(
                "specify either an inline system (P and Q) or a builtin"
                " family, not both"
            )
        if inline and (self.P is None or self.Q is None):
            raise UsageError("an inline system needs both P and Q")
        if builtin:
            family = _family(self.family)
            if self.chart not in family.charts:
                raise UsageError(
                    f"family {self.family!r} has no chart {self.chart!r}"
                )
            if not isinstance(self.params, family.params):
                raise UsageError(
                    f"family {self.family!r} takes {family.params.__name__},"
                    f" got {type(self.params).__name__}"
                )
        _validate_max_order(self.max_order)

    def build(self) -> Tuple[PlanarSystem, CurveData]:
        if self.family is not None:
            return _family(self.family).build(self.params, self.chart)
        try:
            system = PlanarSystem(
                P=self.P, Q=self.Q, field=self.field, label="inline system"
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        phi = self.phi if self.phi is not None else RatFunc.zero(self.field.d)
        return system, CurveData(phi=phi)

    def input_echo(
        self, system: PlanarSystem, curve: CurveData
    ) -> Dict[str, object]:
        """The echo of this request; system and curve are what build()
        returned for it."""
        echo: Dict[str, object] = {"field_d": self.field.d}
        if self.family is not None:
            echo["mode"] = "builtin"
            echo["family"] = self.family
            family = _family(self.family)
            if len(family.charts) > 1:
                echo["chart"] = self.chart
            params = self.params
            echo["params"] = {
                f.name: params.s if f.name == "s"
                else format_scalar(getattr(params, f.name))
                for f in family.parameters
            }
        else:
            echo["mode"] = "inline"
        echo["system"] = {
            "P": format_bipoly(system.P),
            "Q": format_bipoly(system.Q),
            "phi": format_ratfunc(curve.phi),
        }
        echo["max_order"] = self.max_order
        return echo


# ---------------------------------------------------------------------------
# Report documents and JSON serialization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportDocument:
    """A certificate together with tool version, input echo and timing.

    The JSON form has exactly the top-level keys version, status, h1,
    orders and input_echo; timing is reported on the text channel only
    so the document stays bit-stable under round-tripping.
    """

    certificate: Certificate
    version: str
    input_echo: Dict[str, object]
    timing_seconds: float

    @property
    def exit_code(self) -> int:
        return _STATUS_EXIT_CODES[self.certificate.status]

    def to_json_dict(self) -> Dict[str, object]:
        cert = self.certificate
        return {
            "version": self.version,
            "status": cert.status,
            "h1": _h1_dict(cert),
            "orders": [_order_dict(o) for o in cert.orders],
            "input_echo": dict(self.input_echo),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def _fmt_or_none(value, formatter) -> Optional[str]:
    return None if value is None else formatter(value)


def _poly_degree(p: Optional[UPoly]) -> Optional[int]:
    if p is None or p.is_zero():
        return None
    return int(p.degree)


def _h1_dict(cert: Certificate) -> Dict[str, object]:
    om = cert.omega
    residues = []
    if om is not None:
        for entry in om.residues:
            residues.append(
                {
                    "class": format_poly(entry.cls.factor),
                    "multiplicity": entry.cls.multiplicity,
                    "residue": format_poly(entry.residue),
                    "is_rational": entry.is_rational_number(),
                }
            )
    witness: Optional[Dict[str, object]] = None
    if cert.h1 is not None and cert.h1.holds:
        if cert.h1.reason == "nonzero-exp-part":
            witness = {
                "kind": "exp-part",
                "value": format_ratfunc(cert.h1.witness),
            }
        else:
            entry = cert.h1.witness
            witness = {
                "kind": "residue",
                "class": format_poly(entry.cls.factor),
                "residue": format_poly(entry.residue),
            }
    return {
        "regular_at_infinity": cert.regular_at_infinity,
        "holds": None if cert.h1 is None else cert.h1.holds,
        "reason": None if cert.h1 is None else cert.h1.reason,
        "exp_part": None
        if om is None or om.exp_part.is_zero()
        else format_ratfunc(om.exp_part),
        "residues": residues,
        "witness": witness,
    }


def _order_dict(o: CriterionOutcome) -> Dict[str, object]:
    degrees: Optional[Dict[str, object]] = None
    aux: Optional[Dict[str, object]] = None
    rho0: Optional[str] = None
    if o.diagnostics is not None:
        dgn = o.diagnostics
        degrees = {
            "kappa1_den": dgn.deg_kappa1d,
            "kappak_num": dgn.deg_kappakn,
            "rho": _poly_degree(dgn.rho),
            "rho_bar": _poly_degree(dgn.rho_bar),
            "rho_tilde": _poly_degree(dgn.rho_tilde),
            "n1": dgn.n1,
            "nk": dgn.nk,
            "n_bar": dgn.n_bar,
        }
        aux = {
            "rho": _fmt_or_none(dgn.rho, format_poly),
            "rho_bar": _fmt_or_none(dgn.rho_bar, format_poly),
            "rho_tilde": _fmt_or_none(dgn.rho_tilde, format_poly),
            "degenerate_rho": dgn.degenerate_rho,
        }
        rho0 = _fmt_or_none(dgn.rho0, format_scalar)
    partition: Optional[Dict[str, object]] = None
    if o.partition is not None:
        partition = {
            "shared": [
                {
                    "class": format_poly(c.factor),
                    "b1": c.b1,
                    "a1": c.a1,
                }
                for c in o.partition.shared
            ],
            "new": [
                {"class": format_poly(c.factor), "ak": c.ak}
                for c in o.partition.new
            ],
            "n1": o.partition.n1,
            "nk": o.partition.nk,
            "rad1": format_poly(o.partition.rad1),
            "radk": format_poly(o.partition.radk),
        }
    simplicity: Optional[List[Dict[str, object]]] = None
    if o.simplicity is not None:
        simplicity = [
            {
                "class": format_poly(c.factor),
                "a1": c.a1,
                "bad_b": _fmt_or_none(c.bad_b, format_scalar),
            }
            for c in o.simplicity.classes
        ]
    witness: Optional[Dict[str, object]] = None
    if o.h2_failure is not None:
        witness = {
            "kind": "h2-refuted",
            "solution": format_poly(o.h2_failure.solution),
            "theta_log_derivative": format_ratfunc(
                o.h2_failure.theta_log_derivative
            ),
        }
    return {
        "k": o.k,
        "criterion": o.fired,
        "skipped": o.skipped,
        "precondition_failures": list(o.precondition_failures),
        "extra_hypothesis_ok": o.extra_hypothesis_ok,
        "degrees": degrees,
        "rho0": rho0,
        "partition": partition,
        "simplicity": simplicity,
        "aux": aux,
        "witness": witness,
    }


# ---------------------------------------------------------------------------
# Pipeline entry points
# ---------------------------------------------------------------------------


def run_check(spec: SystemSpec) -> ReportDocument:
    """Certify one system and assemble the report document; a rejected
    input raises UsageError, any other pipeline exception InternalError."""
    started = time.perf_counter()
    system, curve = spec.build()
    try:
        cert = certify(system, curve, K=spec.max_order)
    except InvalidInputError as exc:
        raise UsageError(str(exc)) from exc
    except (ValueError, AssertionError) as exc:
        raise InternalError(str(exc)) from exc
    except Exception as exc:
        raise InternalError(f"{type(exc).__name__}: {exc}") from exc
    return ReportDocument(
        certificate=cert,
        version=__version__,
        input_echo=spec.input_echo(system, curve),
        timing_seconds=time.perf_counter() - started,
    )


@dataclass(frozen=True)
class SweepRow:
    index: int
    params: Dict[str, str]
    report: Optional[ReportDocument]
    error: Optional[str]


def sweep(
    template: SystemSpec,
    axes: Sequence[Tuple[str, Sequence[object]]],
) -> Tuple[List[SweepRow], Dict[str, object]]:
    """Certify every tuple of the parameter grid.

    axes is an ordered sequence of (parameter name, values); the grid is
    their cartesian product enumerated with the last axis fastest.  Rows
    keep grid order; a failing tuple yields an error row and does not
    abort the sweep.  An internal fault (AssertionError, InternalError) is
    recorded the same way, its message prefixed with "internal error:".
    """
    if template.family is None:
        raise UsageError("sweep requires a builtin family system")
    rows: List[SweepRow] = []
    if not axes:
        return rows, _summarize(rows)
    names = [name for name, _ in axes]
    for index, combo in enumerate(
        itertools.product(*[values for _, values in axes])
    ):
        overrides = dict(zip(names, combo))
        shown = {
            name: (
                format_scalar(value)
                if isinstance(value, QuadExt)
                else str(value)
            )
            for name, value in overrides.items()
        }
        try:
            params = replace(template.params, **overrides)
            spec = replace(template, params=params)
            report = run_check(spec)
            rows.append(
                SweepRow(index=index, params=shown, report=report, error=None)
            )
        except (UsageError, ValueError, TypeError) as exc:
            rows.append(
                SweepRow(index=index, params=shown, report=None, error=str(exc))
            )
        except (AssertionError, InternalError) as exc:
            rows.append(
                SweepRow(index=index, params=shown, report=None,
                         error=f"{INTERNAL_ERROR_PREFIX}{exc}")
            )
    return rows, _summarize(rows)


def _summarize(rows: Sequence[SweepRow]) -> Dict[str, object]:
    by_status: Dict[str, int] = {}
    by_criterion: Dict[str, int] = {}
    by_k: Dict[str, int] = {}
    errors = 0
    for row in rows:
        if row.report is None:
            errors += 1
            continue
        cert = row.report.certificate
        by_status[cert.status] = by_status.get(cert.status, 0) + 1
        if cert.fired_criterion is not None:
            key = cert.fired_criterion
            by_criterion[key] = by_criterion.get(key, 0) + 1
        if cert.fired_k is not None:
            key = str(cert.fired_k)
            by_k[key] = by_k.get(key, 0) + 1
    return {
        "total": len(rows),
        "errors": errors,
        "by_status": dict(sorted(by_status.items())),
        "by_criterion": dict(sorted(by_criterion.items())),
        "by_k": dict(sorted(by_k.items())),
    }


def sweep_json(
    rows: Sequence[SweepRow], summary: Dict[str, object]
) -> str:
    doc = {
        "version": __version__,
        "summary": summary,
        "reports": [
            {
                "index": row.index,
                "params": row.params,
                "error": row.error,
                "certificate": None
                if row.report is None
                else row.report.to_json_dict(),
            }
            for row in rows
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

_KNOWN_SECTIONS = {"field", "system", "check", "sweep"}
_INLINE_KEYS = {"p", "q", "phi"}


def _read_config(
    path: str, max_order_flag: Optional[int]
) -> Tuple[configparser.ConfigParser, FieldSpec, int, Dict[str, str]]:
    """A config file with its field, its max order and its [system]."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        loaded = parser.read(path)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot parse config file {path}: {exc}") from exc
    if not loaded:
        raise UsageError(f"cannot read config file: {path}")
    unknown = set(parser.sections()) - _KNOWN_SECTIONS
    if unknown:
        raise UsageError(
            f"unknown config sections: {', '.join(sorted(unknown))}"
        )
    for section, allowed in (("field", {"d"}), ("check", {"max_order"})):
        if parser.has_section(section):
            _refuse_unknown(section, parser.options(section), allowed)
    field = _field(parser.get("field", "d", fallback="1"), "[field] ")
    max_order = _max_order(
        max_order_flag, parser.get("check", "max_order", fallback=None))
    if not parser.has_section("system"):
        raise UsageError("config needs a [system] section")
    return parser, field, max_order, dict(parser.items("system"))


def _field(text: str, label: str) -> FieldSpec:
    """The field of the text of d; label is "[field] " or "--"."""
    try:
        d = int(text)
    except ValueError:
        raise UsageError(f"{label}d must be an integer") from None
    try:
        return FieldSpec(d)
    except ValueError as exc:
        raise UsageError(f"{label}d: {exc}") from exc


def _builtin_spec(
    options: Dict[str, str],
    field: FieldSpec,
    max_order: int,
    swept: Optional[Dict[str, object]] = None,
    label: str = "[system] ",
) -> SystemSpec:
    """The builtin-family request of a [system] section, or of a family
    subcommand's flags with label "--".  swept gives a value to each
    parameter a sweep varies, which [system] may omit."""
    name = options["family"].strip()
    family = _family(name)
    allowed = {"family"} | {f.name for f in family.parameters}
    chart = 1
    if len(family.charts) > 1:
        allowed.add("chart")
        if "chart" in options:
            try:
                chart = int(options["chart"])
            except ValueError:
                chart = None
            if chart not in family.charts:
                shown = " or ".join(str(c) for c in family.charts)
                raise UsageError(f"{label}chart must be {shown}")
    values = dict(swept or {})
    for f in family.parameters:
        if f.name in options:
            values[f.name] = _parse_param(
                f.name, options[f.name], field, f"{label}{f.name}"
            )
        elif f.name not in values and f.default is MISSING:
            raise UsageError(f"[system] missing parameter: {f.name}")
    _refuse_unknown("system", options, allowed)
    return SystemSpec(
        field=field,
        max_order=max_order,
        family=name,
        chart=chart,
        params=family.params(field, **values),
    )


def load_config(path: str, max_order_flag: Optional[int] = None) -> SystemSpec:
    """Parse a check config file into a SystemSpec."""
    _, field, max_order, options = _read_config(path, max_order_flag)
    if "family" in options:
        return _builtin_spec(options, field, max_order)
    _refuse_unknown("system", options, _INLINE_KEYS)
    if "p" not in options or "q" not in options:
        raise UsageError("an inline [system] needs both P and Q")
    phi = None
    if "phi" in options:
        phi = _parse(parse_ratfunc, options["phi"], field, "[system] phi")
    return SystemSpec(
        field=field,
        max_order=max_order,
        P=_parse(parse_bipoly, options["p"], field, "[system] P"),
        Q=_parse(parse_bipoly, options["q"], field, "[system] Q"),
        phi=phi,
    )


def load_sweep_config(
    path: str, max_order_flag: Optional[int] = None
) -> Tuple[SystemSpec, List[Tuple[str, List[object]]]]:
    """Parse a sweep config: a builtin [system] template plus a [sweep]
    section whose keys are parameter names and values comma-separated
    parameter values.  The template may omit a swept parameter."""
    parser, field, max_order, options = _read_config(path, max_order_flag)
    if "family" not in options:
        raise UsageError("sweep requires a builtin family in [system]")
    family = _family(options["family"].strip())
    names = [f.name for f in family.parameters]
    axes: List[Tuple[str, List[object]]] = []
    for name in parser.options("sweep") if parser.has_section("sweep") else []:
        if name not in names:
            raise UsageError(f"[sweep] cannot sweep over {name!r}")
        values: List[object] = []
        for piece in parser.get("sweep", name).split(","):
            piece = piece.strip()
            if not piece:
                raise UsageError(f"[sweep] {name}: empty value in list")
            values.append(_parse_param(name, piece, field, f"[sweep] {name}"))
        axes.append((name, values))
    # Each axis's first value stands in for the template's own.
    swept = {name: values[0] for name, values in axes}
    return _builtin_spec(options, field, max_order, swept), axes


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------


def render_text(report: ReportDocument) -> str:
    cert = report.certificate
    lines = [f"status: {cert.status}"]
    if cert.fired_k is not None:
        lines[0] += f" (criterion {cert.fired_criterion} at k = {cert.fired_k})"
    elif cert.status == "inconclusive":
        lines[0] += f" ({cert.inconclusive_reason})"
    lines.append(f"system: {cert.system.label or 'inline system'}")
    lines.append(f"  P = {format_bipoly(cert.system.P)}")
    lines.append(f"  Q = {format_bipoly(cert.system.Q)}")
    lines.append(f"  curve: eta = {format_ratfunc(cert.curve.phi)}")
    lines.append(f"  max order: {cert.max_order}")
    for entry in cert.trace:
        lines.append(f"  {entry}")
    if cert.h2_failures:
        ks = ", ".join(str(w.k) for w in cert.h2_failures)
        lines.append(f"  note: H2 refuted at k = {ks} by polynomial solutions")
    lines.append(f"elapsed: {report.timing_seconds:.3f} s")
    return "\n".join(lines) + "\n"


def render_sweep_text(
    rows: Sequence[SweepRow], summary: Dict[str, object]
) -> str:
    lines = [
        f"sweep: {summary['total']} tuples, {summary['errors']} errors"
    ]
    for key in ("by_status", "by_criterion", "by_k"):
        bucket = summary[key]
        if bucket:
            shown = ", ".join(f"{k}: {v}" for k, v in bucket.items())
            lines.append(f"  {key.replace('_', ' ')}: {shown}")
    for row in rows:
        shown = " ".join(f"{k}={v}" for k, v in row.params.items())
        if row.report is None:
            lines.append(f"[{row.index}] {shown} -> error: {row.error}")
            continue
        cert = row.report.certificate
        tail = cert.status
        if cert.fired_k is not None:
            tail += f" (criterion {cert.fired_criterion} at k = {cert.fired_k})"
        lines.append(f"[{row.index}] {shown} -> {tail}")
    return "\n".join(lines) + "\n"


def _emit(json_path: Optional[str], to_json, to_text) -> None:
    """Print the text and write the JSON to json_path; "-" prints JSON."""
    if json_path not in (None, "-"):
        try:
            with open(json_path, "w") as handle:
                handle.write(to_json())
        except OSError as exc:
            raise UsageError(
                f"cannot write {json_path}: {exc.strerror}") from exc
    sys.stdout.write(to_json() if json_path == "-" else to_text())


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-order",
        type=int,
        default=None,
        metavar="N",
        help=f"maximum variational order (2..{MAX_ORDER_CAP}; default"
        f" {DEFAULT_MAX_ORDER}, or {ENV_MAX_ORDER})",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="write the JSON report to PATH ('-' for stdout)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="nonint",
        description=(
            "Certify meromorphic nonintegrability of planar polynomial"
            " vector fields along rational integral curves."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_ArgumentParser
    )

    check = sub.add_parser("check", help="certify a system from a config file")
    check.add_argument("file", help="INI config with [field], [system], [check]")
    _add_common_flags(check)
    check.set_defaults(handler=_cmd_check)

    for name, family in FAMILIES.items():
        sp = sub.add_parser(name, help=f"certify a {name} unfolding")
        for f in family.parameters:
            sp.add_argument(f"--{f.name}", required=f.default is MISSING)
        if len(family.charts) > 1:
            sp.add_argument("--chart")
        sp.add_argument("--d", default="1", help="field discriminant")
        _add_common_flags(sp)
        sp.set_defaults(handler=_cmd_family)

    sw = sub.add_parser("sweep", help="run a parameter grid from a config file")
    sw.add_argument("file", help="INI config with a [sweep] section")
    _add_common_flags(sw)
    sw.set_defaults(handler=_cmd_sweep)
    return parser


def _report(spec: SystemSpec, json_path: Optional[str]) -> int:
    report = run_check(spec)
    _emit(json_path, report.to_json, lambda: render_text(report))
    return report.exit_code


def _cmd_check(args: argparse.Namespace) -> int:
    return _report(load_config(args.file, max_order_flag=args.max_order),
                   args.json_path)


def _cmd_family(args: argparse.Namespace) -> int:
    """The family's flags, as the [system] text they stand for."""
    keys = [f.name for f in FAMILIES[args.command].parameters] + ["chart"]
    flags = vars(args)
    options = {key: flags[key] for key in keys if flags.get(key) is not None}
    options["family"] = args.command
    field = _field(args.d, "--")
    max_order = _max_order(args.max_order)
    return _report(_builtin_spec(options, field, max_order, label="--"),
                   args.json_path)


def _sweep_exit_code(rows: Sequence[SweepRow]) -> int:
    """5 if any tuple hit an internal error, else 4 if a non-empty grid
    certified no tuple at all, else 0."""
    errors = [row.error for row in rows if row.error is not None]
    if any(e.startswith(INTERNAL_ERROR_PREFIX) for e in errors):
        return EXIT_INTERNAL
    if rows and len(errors) == len(rows):
        return EXIT_USAGE
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    template, axes = load_sweep_config(args.file, max_order_flag=args.max_order)
    rows, summary = sweep(template, axes)
    _emit(args.json_path, lambda: sweep_json(rows, summary),
          lambda: render_sweep_text(rows, summary))
    return _sweep_exit_code(rows)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        detail = str(exc)
        if not isinstance(exc, (AssertionError, InternalError)):
            detail = f"{type(exc).__name__}: {detail}"
        print(f"{INTERNAL_ERROR_PREFIX}{detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
