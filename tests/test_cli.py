"""Command-line interface: configs, JSON documents, exit codes, sweep."""

import copy
import json
import pickle
from dataclasses import fields
from fractions import Fraction

import pytest

from artifact import __version__
from artifact.cli import (
    EXIT_INAPPLICABLE,
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_NONINTEGRABLE,
    EXIT_USAGE,
    InternalError,
    SystemSpec,
    UsageError,
    load_config,
    load_sweep_config,
    main,
    run_check,
    sweep,
)
from artifact.exactalg import BiPoly, FieldSpec, RatFunc, UPoly
from artifact.unfoldings import FAMILIES, DoubleHopfParams, FoldHopfParams
from artifact.varcalc import CurveInSingularLocusError, InvalidInputError


FIVE_KEYS = ["version", "status", "h1", "orders", "input_echo"]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


BUILTIN_INI = """
[field]
d = 2

[system]
family = fold-hopf
mu = -1
nu = 1
alpha = rt
"""

INLINE_INI = """
[field]
d = 2

[system]
P = eta^2 + xi^2 - 1
Q = rt*xi*eta + eta
phi = 0
"""

SWEEP_INI = """
[field]
d = 2

[system]
family = fold-hopf
mu = -1

[sweep]
nu = 1, rt
alpha = rt, 1/2, 3
"""


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------


def test_load_config_builtin(tmp_path):
    spec = load_config(write(tmp_path, "a.ini", BUILTIN_INI))
    assert spec.family == "fold-hopf"
    assert spec.field.d == 2
    assert spec.max_order == 9
    assert isinstance(spec.params, FoldHopfParams)


def test_load_config_inline(tmp_path):
    spec = load_config(write(tmp_path, "a.ini", INLINE_INI))
    assert spec.family is None
    assert spec.P is not None and spec.Q is not None
    system, curve = spec.build()
    assert curve.phi.is_zero()


def test_load_config_errors(tmp_path):
    with pytest.raises(UsageError):
        load_config(str(tmp_path / "missing.ini"))
    with pytest.raises(UsageError):
        load_config(write(tmp_path, "b.ini", "[bogus]\nx = 1\n"))
    with pytest.raises(UsageError):
        load_config(write(tmp_path, "c.ini", "[system]\nP = xi\n"))  # no Q
    with pytest.raises(UsageError):
        load_config(
            write(tmp_path, "d.ini", "[system]\nfamily = fold-hopf\nmu = 1\n")
        )  # missing nu/alpha
    with pytest.raises(UsageError):
        load_config(
            write(
                tmp_path,
                "e.ini",
                "[system]\nP = xi\nQ = eta\nwhat = 3\n",
            )
        )
    with pytest.raises(UsageError):
        load_config(
            write(tmp_path, "f.ini", "[field]\nd = 4\n" + "[system]\nP = xi\nQ = eta\n")
        )


def test_load_config_curve_must_be_eta_free(tmp_path):
    bad = INLINE_INI.replace("phi = 0", "phi = eta + 1")
    with pytest.raises(UsageError) as err:
        load_config(write(tmp_path, "a.ini", bad))
    assert str(err.value) == (
        "[system] phi: line 1, column 1: 'eta' is not allowed in this"
        " expression"
    )


def test_system_spec_refuses_requests_it_cannot_serve():
    F = FieldSpec(2)
    fold = FoldHopfParams(F, -1, 1, F.surd())
    double = DoubleHopfParams(F, 1, F.surd(), 0, 1)
    cases = (
        (dict(family="fold-hopf", chart=2, params=fold), "has no chart 2"),
        (dict(family="fold-hopf", params=None), "got NoneType"),
        (dict(family="fold-hopf", params=double), "got DoubleHopfParams"),
        (dict(family="saddle-node", params=fold), "unknown family"),
    )
    for kwargs, message in cases:
        with pytest.raises(UsageError, match=message):
            SystemSpec(field=F, **kwargs)
    # the served requests still build
    SystemSpec(field=F, family="double-hopf", chart=2, params=double)


def test_load_config_scalar_validation(tmp_path):
    bad = BUILTIN_INI.replace("alpha = rt", "alpha = xi + 1")
    with pytest.raises(UsageError):
        load_config(write(tmp_path, "a.ini", bad))
    bad2 = BUILTIN_INI.replace("mu = -1", "mu = 1/0")
    with pytest.raises(UsageError):
        load_config(write(tmp_path, "b.ini", bad2))


def test_max_order_precedence(tmp_path, monkeypatch):
    ini = BUILTIN_INI + "\n[check]\nmax_order = 5\n"
    path = write(tmp_path, "a.ini", ini)
    assert load_config(path).max_order == 5
    assert load_config(path, max_order_flag=7).max_order == 7
    monkeypatch.setenv("NONINT_MAX_ORDER", "11")
    assert load_config(path).max_order == 5  # config beats env
    plain = write(tmp_path, "b.ini", BUILTIN_INI)
    assert load_config(plain).max_order == 11  # env beats default
    monkeypatch.setenv("NONINT_MAX_ORDER", "not-a-number")
    with pytest.raises(UsageError):
        load_config(plain)
    monkeypatch.setenv("NONINT_MAX_ORDER", "1")
    with pytest.raises(UsageError):
        load_config(plain)


def test_spec_rejects_out_of_range_order():
    F = FieldSpec(2)
    params = FoldHopfParams(F, -1, 1, F.surd())
    with pytest.raises(UsageError):
        SystemSpec(field=F, max_order=26, family="fold-hopf", params=params)
    with pytest.raises(UsageError):
        SystemSpec(field=F, max_order=1, family="fold-hopf", params=params)


# ---------------------------------------------------------------------------
# Report documents
# ---------------------------------------------------------------------------


def test_report_frozen_top_level_keys(tmp_path):
    report = run_check(load_config(write(tmp_path, "a.ini", BUILTIN_INI)))
    doc = report.to_json_dict()
    assert list(doc.keys()) == FIVE_KEYS
    assert doc["version"] == __version__
    assert doc["status"] == "nonintegrable"
    assert report.exit_code == EXIT_NONINTEGRABLE


def test_report_json_round_trip(tmp_path):
    report = run_check(load_config(write(tmp_path, "a.ini", BUILTIN_INI)))
    text = report.to_json()
    parsed = json.loads(text)
    assert json.dumps(parsed, indent=2) + "\n" == text
    assert parsed["h1"]["holds"] is True
    orders = parsed["orders"]
    fired = [o for o in orders if o["criterion"]]
    assert fired and fired[0]["k"] == 3 and fired[0]["criterion"] == "iv"
    assert fired[0]["partition"]["shared"]
    assert parsed["input_echo"]["mode"] == "builtin"
    assert parsed["input_echo"]["params"]["alpha"] == "rt"


def test_report_inconclusive_flavours(tmp_path):
    h1fail = BUILTIN_INI.replace("nu = 1", "nu = 2").replace(
        "alpha = rt", "alpha = 3"
    )
    report = run_check(load_config(write(tmp_path, "a.ini", h1fail)))
    doc = report.to_json_dict()
    assert doc["status"] == "inconclusive"
    assert doc["h1"]["holds"] is False
    assert doc["orders"] == []
    assert report.exit_code == EXIT_INCONCLUSIVE
    gap = BUILTIN_INI.replace("nu = 1", "nu = rt").replace(
        "alpha = rt", "alpha = 2 + rt"
    )
    report2 = run_check(load_config(write(tmp_path, "b.ini", gap)))
    doc2 = report2.to_json_dict()
    assert doc2["status"] == "inconclusive"
    assert doc2["h1"]["holds"] is True
    assert all(o["criterion"] is None for o in doc2["orders"])
    # "skipped" marks exactly the orders with kappa_k = 0; the odd orders
    # here violate the simplicity hypothesis and are not skipped
    vd = report2.certificate.variational
    for o in doc2["orders"]:
        assert o["skipped"] == vd.kappa(o["k"]).is_zero() == (o["k"] % 2 == 0)
        assert o["extra_hypothesis_ok"] == o["skipped"]


def test_report_inapplicable(tmp_path):
    ini = "[system]\nP = 1\nQ = eta\n"
    report = run_check(load_config(write(tmp_path, "a.ini", ini)))
    doc = report.to_json_dict()
    assert doc["status"] == "inapplicable"
    assert doc["h1"]["regular_at_infinity"] is False
    assert doc["h1"]["holds"] is None
    assert report.exit_code == EXIT_INAPPLICABLE


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


def test_sweep_grid_order_and_summary(tmp_path):
    template, axes = load_sweep_config(write(tmp_path, "s.ini", SWEEP_INI))
    assert [name for name, _ in axes] == ["nu", "alpha"]
    rows, summary = sweep(template, axes)
    assert summary["total"] == 6 and summary["errors"] == 0
    assert [row.index for row in rows] == list(range(6))
    # last axis fastest: nu=1 for the first three rows
    assert [row.params["nu"] for row in rows] == ["1", "1", "1", "rt", "rt", "rt"]
    assert [row.params["alpha"] for row in rows] == ["rt", "1/2", "3"] * 2
    assert summary["by_status"] == {"inconclusive": 3, "nonintegrable": 3}
    assert summary["by_criterion"] == {"i": 1, "iv": 2}
    assert summary["by_k"] == {"3": 3}


def test_sweep_isolates_per_tuple_errors(tmp_path):
    template, axes = load_sweep_config(write(tmp_path, "s.ini", SWEEP_INI))
    poisoned = [("nu", [template.field(1), "bad-value"]), axes[1]]
    rows, summary = sweep(template, poisoned)
    assert summary["total"] == 6
    assert summary["errors"] == 3
    assert all(r.error is not None for r in rows if r.params["nu"] == "bad-value")
    assert all(r.report is not None for r in rows if r.params["nu"] == "1")


def test_sweep_records_internal_errors(tmp_path, monkeypatch):
    from artifact import cli

    template, axes = load_sweep_config(write(tmp_path, "s.ini", SWEEP_INI))
    certify, calls = cli.certify, []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise AssertionError("ODE solver produced a non-solution")
        return certify(*args, **kwargs)

    monkeypatch.setattr(cli, "certify", flaky)
    rows, summary = sweep(template, axes)
    assert summary["total"] == 6 and summary["errors"] == 1
    assert rows[1].report is None
    assert rows[1].error == "internal error: ODE solver produced a non-solution"
    assert all(r.report is not None for r in rows if r.index != 1)


# s is a sweep axis and has no value in [system]
SWEEP_SIGN_INI = """
[field]
d = 2

[system]
family = fold-hopf
mu = -1
nu = 1

[sweep]
alpha = rt, 3
s = 1, -1
"""


def test_sweep_axis_needs_no_template_value(tmp_path, capsys):
    path = write(tmp_path, "s.ini", SWEEP_SIGN_INI)
    template, axes = load_sweep_config(path)
    assert [name for name, _ in axes] == ["alpha", "s"]
    rows, summary = sweep(template, axes)
    assert [row.params["s"] for row in rows] == ["1", "-1"] * 2
    assert summary["total"] == 4 and summary["errors"] == 0
    assert main(["sweep", path]) == 0
    assert "sweep: 4 tuples, 0 errors" in capsys.readouterr().out


def test_sweep_requires_family(tmp_path):
    path = write(tmp_path, "s.ini", INLINE_INI + "\n[sweep]\nnu = 1\n")
    with pytest.raises(UsageError):
        load_sweep_config(path)


def test_sweep_rejects_unknown_axis(tmp_path):
    path = write(tmp_path, "s.ini", SWEEP_INI + "chart = 1, 2\n")
    with pytest.raises(UsageError):
        load_sweep_config(path)


def test_sweep_empty_axes(tmp_path):
    ini = BUILTIN_INI + "\n[sweep]\n"
    template, axes = load_sweep_config(write(tmp_path, "s.ini", ini))
    rows, summary = sweep(template, axes)
    assert rows == [] and summary["total"] == 0


# ---------------------------------------------------------------------------
# main() end to end
# ---------------------------------------------------------------------------


def test_main_check_exit_codes(tmp_path, capsys):
    path = write(tmp_path, "a.ini", BUILTIN_INI)
    assert main(["check", path]) == EXIT_NONINTEGRABLE
    out = capsys.readouterr().out
    assert "status: nonintegrable" in out
    assert "criterion iv at k = 3" in out

    h1fail = write(
        tmp_path,
        "b.ini",
        BUILTIN_INI.replace("nu = 1", "nu = 2").replace("alpha = rt", "alpha = 3"),
    )
    assert main(["check", h1fail]) == EXIT_INCONCLUSIVE
    irregular = write(tmp_path, "c.ini", "[system]\nP = 1\nQ = eta\n")
    assert main(["check", irregular]) == EXIT_INAPPLICABLE
    assert main(["check", str(tmp_path / "nope.ini")]) == EXIT_USAGE


def test_main_json_output(tmp_path, capsys):
    path = write(tmp_path, "a.ini", BUILTIN_INI)
    out_path = tmp_path / "report.json"
    assert main(["check", path, "--json", str(out_path)]) == 0
    doc = json.loads(out_path.read_text())
    assert list(doc.keys()) == FIVE_KEYS
    capsys.readouterr()
    assert main(["check", path, "--json", "-"]) == 0
    doc2 = json.loads(capsys.readouterr().out)
    assert doc2["status"] == "nonintegrable"


def test_main_fold_hopf_flags(capsys):
    code = main(
        ["fold-hopf", "--mu", "-1", "--nu", "1", "--alpha", "rt", "--d", "2"]
    )
    assert code == EXIT_NONINTEGRABLE
    assert "criterion iv" in capsys.readouterr().out
    # surd without the right field is a usage error
    assert main(["fold-hopf", "--mu", "-1", "--nu", "1", "--alpha", "rt"]) == (
        EXIT_USAGE
    )


def test_main_double_hopf_charts(capsys):
    base = [
        "double-hopf",
        "--mu", "1", "--nu", "rt", "--alpha", "1/2", "--beta", "1",
        "--d", "2",
    ]
    assert main(base) == EXIT_NONINTEGRABLE
    out1 = capsys.readouterr().out
    assert "criterion iii at k = 3" in out1
    assert main(base + ["--chart", "2"]) == EXIT_NONINTEGRABLE
    out2 = capsys.readouterr().out
    assert "chart 2" in out2


# Every parameter of each family, as flag and config text.
FAMILY_VALUES = {
    "fold-hopf": {"mu": "-1", "nu": "1", "alpha": "rt", "s": "-1",
                  "beta": "2", "omega": "1/3"},
    "double-hopf": {"mu": "1", "nu": "rt", "alpha": "1/2", "beta": "1",
                    "s": "1", "omega1": "3", "omega2": "rt"},
}
FAMILY_CHARTS = [
    (name, chart) for name, family in FAMILIES.items()
    for chart in family.charts
]


@pytest.mark.parametrize(
    "name, chart", FAMILY_CHARTS,
    ids=[f"{name}-chart{chart}" for name, chart in FAMILY_CHARTS],
)
def test_flags_and_config_agree(tmp_path, capsys, name, chart):
    family = FAMILIES[name]
    values = dict(FAMILY_VALUES[name])
    if len(family.charts) > 1:
        values["chart"] = str(chart)
    argv = [name, "--d", "2"]
    ini = f"[field]\nd = 2\n[system]\nfamily = {name}\n"
    for key, text in values.items():
        argv += [f"--{key}", text]
        ini += f"{key} = {text}\n"
    code = main(argv + ["--json", "-"])
    from_flags = capsys.readouterr().out
    path = write(tmp_path, "a.ini", ini)
    assert main(["check", path, "--json", "-"]) == code
    assert capsys.readouterr().out == from_flags
    echo = json.loads(from_flags)["input_echo"]
    assert echo["family"] == name
    assert echo.get("chart", 1) == chart
    assert list(echo["params"]) == [f.name for f in fields(family.params)[1:]]


def test_main_usage_errors(capsys):
    assert main([]) == EXIT_USAGE
    assert main(["bogus"]) == EXIT_USAGE
    assert main(["fold-hopf", "--mu", "1"]) == EXIT_USAGE
    assert main(["fold-hopf", "--mu", "1", "--nu", "1", "--alpha", "1",
                 "--max-order", "99"]) == EXIT_USAGE
    # a huge d once hung in the squarefree test; now it is refused at once
    assert main(["fold-hopf", "--mu", "-1", "--nu", "1", "--alpha", "rt",
                 "--d", "1000000000000000000000000000057"]) == EXIT_USAGE
    assert "must not exceed" in capsys.readouterr().err


def test_main_internal_error(monkeypatch, capsys):
    from artifact import cli

    def broken(*args, **kwargs):
        raise AssertionError("root partition does not reconstruct kappa_kd")

    monkeypatch.setattr(cli, "certify", broken)
    code = main(["fold-hopf", "--mu", "-1", "--nu", "1", "--alpha", "rt",
                 "--d", "2"])
    assert code == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.err == (
        "internal error: root partition does not reconstruct kappa_kd\n"
    )
    assert captured.out == ""


def _break_partition_roots(monkeypatch, exc):
    from artifact import criteria

    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(criteria, "partition_roots", broken)


FOLD_HOPF_ARGV = ["fold-hopf", "--mu", "-1", "--nu", "1", "--alpha", "rt",
                  "--d", "2"]


def test_input_rejections_are_usage_errors(tmp_path, monkeypatch, capsys):
    # a curve that is not integral, straight from a config file
    path = write(tmp_path, "c.ini", INLINE_INI.replace("phi = 0", "phi = xi"))
    assert main(["check", path]) == EXIT_USAGE
    assert "not an integral curve" in capsys.readouterr().err
    # the rejection subclass raised from inside the pipeline
    _break_partition_roots(
        monkeypatch, CurveInSingularLocusError("P vanishes on the curve"))
    with pytest.raises(UsageError):
        run_check(load_config(write(tmp_path, "a.ini", BUILTIN_INI)))
    assert main(FOLD_HOPF_ARGV) == EXIT_USAGE
    assert capsys.readouterr().err == "error: P vanishes on the curve\n"


def test_pipeline_value_errors_are_internal(tmp_path, monkeypatch, capsys):
    _break_partition_roots(monkeypatch, ValueError("division is not exact"))
    with pytest.raises(InternalError):
        run_check(load_config(write(tmp_path, "a.ini", BUILTIN_INI)))
    assert main(FOLD_HOPF_ARGV) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.err == "internal error: division is not exact\n"
    assert captured.out == ""
    template, axes = load_sweep_config(write(tmp_path, "s.ini", SWEEP_INI))
    rows, _ = sweep(template, axes)
    # the tuples whose H1 fails stop before partition_roots
    errors = {r.error for r in rows if r.report is None}
    assert errors == {"internal error: division is not exact"}
    assert main(["sweep", write(tmp_path, "s.ini", SWEEP_INI)]) == EXIT_INTERNAL


def _non_utf8_config(tmp_path):
    path = tmp_path / "latin1.ini"
    path.write_bytes(INLINE_INI.replace("phi = 0", "phi = 0 ; caf\xe9").encode(
        "latin-1"))
    return ["check", str(path)]


def _inline_p(tmp_path, term):
    """A check of INLINE_INI with P = eta^2 + term."""
    return ["check", write(tmp_path, "p.ini", INLINE_INI.replace(
        "P = eta^2 + xi^2 - 1", f"P = eta^2 + {term}"))]


@pytest.mark.parametrize(
    "argv, patch, code, message",
    [
        (lambda tmp: _inline_p(tmp, "(" * 250 + "xi" + ")" * 250), None,
         EXIT_USAGE, "error: [system] P: line 1, column 109: parentheses "
         "nested deeper than the limit 100\n"),
        (lambda tmp: _inline_p(tmp, "9" * 5000 + "*xi"), None, EXIT_USAGE,
         "error: [system] P: line 1, column 9: integer literal of 5000 "
         "digits exceeds the limit 1000\n"),
        (lambda tmp: _inline_p(tmp, "\u00b2*xi - 1"), None, EXIT_USAGE,
         "error: [system] P: line 1, column 9: unexpected character "
         "'\u00b2'\n"),
        (lambda tmp: ["check", write(tmp, "p.ini", INLINE_INI.replace(
            "P = eta^2 + xi^2 - 1", "P = eta^2/(xi + 1)"))], None,
         EXIT_USAGE, "error: [system] P: line 1, column 6: '/' (other than "
         "a rational literal) is not allowed here\n"),
        (lambda tmp: FOLD_HOPF_ARGV + ["--s", "2"], None, EXIT_USAGE,
         "error: --s: expected +1 or -1, got 2\n"),
        (_non_utf8_config, None, EXIT_USAGE,
         "error: cannot parse config file {tmp}/latin1.ini: "),
        (lambda tmp: FOLD_HOPF_ARGV + ["--json", f"{tmp}/no/such.json"],
         None, EXIT_USAGE,
         "error: cannot write {tmp}/no/such.json: No such file or directory"),
        (lambda tmp: ["sweep", write(tmp, "s.ini", SWEEP_INI),
                      "--json", f"{tmp}/no/such.json"],
         None, EXIT_USAGE,
         "error: cannot write {tmp}/no/such.json: No such file or directory"),
        (lambda tmp: FOLD_HOPF_ARGV, ZeroDivisionError("boom"), EXIT_INTERNAL,
         "internal error: ZeroDivisionError: boom"),
        (lambda tmp: ["sweep", write(tmp, "s.ini", SWEEP_INI)],
         ZeroDivisionError("boom"), EXIT_INTERNAL, None),
    ],
    ids=["nested-parentheses", "long-literal", "superscript-digit",
         "slash-in-P", "sign-flag", "non-utf8-config", "json-missing-dir", "sweep-json-missing-dir",
         "unexpected-exception", "sweep-unexpected-exception"],
)
def test_every_failure_is_classified(tmp_path, monkeypatch, capsys,
                                     argv, patch, code, message):
    """Each input ends with a classified exit code and no traceback."""
    if patch is not None:
        _patch_certify(monkeypatch, [patch])
    assert main(argv(tmp_path)) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if message is not None:
        assert captured.err.startswith(message.format(tmp=tmp_path))
    else:
        assert ("[0] nu=1 alpha=rt -> error: internal error: "
                "ZeroDivisionError: boom") in captured.out


def _copies(value):
    return pickle.loads(pickle.dumps(value)), copy.deepcopy(value)


def test_values_and_documents_survive_pickle_and_deepcopy(tmp_path):
    F = FieldSpec(2)
    c = F(Fraction(-1, 6), Fraction(3, 4))
    p = UPoly([c, 0, Fraction(2, 3), 1], 2)
    for value in (F, c, p, BiPoly([p, UPoly.zero(2), p * p], 2),
                  RatFunc(p, p * p + 1)):
        for twin in _copies(value):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)
            assert repr(twin) == repr(value)
    doc = run_check(load_config(write(tmp_path, "a.ini", BUILTIN_INI)))
    for twin in _copies(doc):
        assert twin == doc and twin.to_json() == doc.to_json()


def test_run_check_builds_the_system_once(tmp_path, monkeypatch):
    spec = load_config(write(tmp_path, "a.ini", BUILTIN_INI))
    expected = run_check(spec).to_json()
    build, calls = SystemSpec.build, []

    def counted(self):
        calls.append(1)
        return build(self)

    monkeypatch.setattr(SystemSpec, "build", counted)
    assert run_check(spec).to_json() == expected
    assert len(calls) == 1


def test_main_sweep(tmp_path, capsys):
    path = write(tmp_path, "s.ini", SWEEP_INI)
    assert main(["sweep", path]) == 0
    out = capsys.readouterr().out
    assert "sweep: 6 tuples, 0 errors" in out
    json_path = tmp_path / "sweep.json"
    assert main(["sweep", path, "--json", str(json_path)]) == 0
    doc = json.loads(json_path.read_text())
    assert list(doc.keys()) == ["version", "summary", "reports"]
    assert len(doc["reports"]) == 6
    assert doc["reports"][0]["certificate"]["status"] in (
        "nonintegrable",
        "inconclusive",
    )


def _patch_certify(monkeypatch, errors):
    """Make cli.certify raise errors[i] on its i-th call, where not None."""
    from artifact import cli

    certify, planned = cli.certify, iter(errors)

    def patched(*args, **kwargs):
        exc = next(planned, None)
        if exc is not None:
            raise exc
        return certify(*args, **kwargs)

    monkeypatch.setattr(cli, "certify", patched)


USAGE = InvalidInputError("eta = phi(xi) is not an integral curve of the system")
INTERNAL = AssertionError("ODE solver produced a non-solution")


@pytest.mark.parametrize(
    "errors, code",
    [
        ([None] * 6, 0),
        ([None, USAGE, None, None, None, None], 0),
        ([USAGE] * 6, 4),
        ([None, INTERNAL, None, None, None, None], 5),
        ([USAGE, USAGE, INTERNAL, USAGE, USAGE, USAGE], 5),
    ],
    ids=["clean", "one-error", "all-errors", "one-internal", "all-failed"],
)
def test_main_sweep_exit_codes(tmp_path, monkeypatch, capsys, errors, code):
    """5 on any internal error, else 4 when every tuple errored, else 0;
    the documents are written either way."""
    path = write(tmp_path, "s.ini", SWEEP_INI)
    for argv in (["sweep", path], ["sweep", path, "--json", "-"]):
        _patch_certify(monkeypatch, errors)
        assert main(argv) == code
        out = capsys.readouterr().out
        assert "6 tuples" in out or '"total": 6' in out


def test_main_sweep_empty_grid_exits_0(tmp_path, capsys):
    path = write(tmp_path, "s.ini", BUILTIN_INI + "\n[sweep]\n")
    assert main(["sweep", path]) == 0
    assert "sweep: 0 tuples, 0 errors" in capsys.readouterr().out

def test_main_version_flag(capsys):
    code = main(["--version"])
    assert code == 0
    assert __version__ in capsys.readouterr().out
