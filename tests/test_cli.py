"""End-to-end tests of the command-line surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qreduce
from qreduce import algebra as algebra_module, sampling
from qreduce.algebra import StarAlgebra
from qreduce import cli, verify
from qreduce.cli import build_parser, main
from qreduce.qlinalg import QMatrix


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def test_verify_passes_and_counts(capsys):
    code, report, err = run_cli(capsys, "verify", "--seed", "42",
                                "--dims", "2,3", "--trials", "20")
    assert code == 0
    assert report["status"] == "pass"
    assert len(report["checks"]) >= 40
    assert "status: pass" in err


def test_verify_deterministic(capsys):
    argv = ("verify", "--seed", "7", "--dims", "2", "--trials", "10")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_verify_rejects_bad_dims(capsys):
    code, report, _ = run_cli(capsys, "verify", "--dims", "0")
    assert code == 2
    assert report["status"] == "error"
    code, _, _ = run_cli(capsys, "verify", "--dims", "9")
    assert code == 2
    code, _, _ = run_cli(capsys, "verify", "--trials", "0")
    assert code == 2


def test_verify_fails_property_without_checks(capsys, monkeypatch):
    monkeypatch.setattr(verify, "PROPERTIES", verify.PROPERTIES + [
        ("empty", lambda seeds, dims, trials: [])])
    code, report, _ = run_cli(capsys, "verify", "--seed", "1", "--dims", "1",
                              "--trials", "2")
    assert code == 1
    assert report["status"] == "fail"
    failed = [c["name"] for c in report["checks"] if not c["pass"]]
    assert failed == ["empty/no_checks"]


def test_verify_passes_at_dimension_1(capsys):
    """Every property runs checks at n = 1, the trichotomy included."""
    code, report, err = run_cli(capsys, "verify", "--seed", "42", "--dims",
                                "1", "--trials", "10")
    assert code == 0
    assert report["status"] == "pass"
    assert any(c["name"].startswith("trichotomy/") for c in report["checks"])
    assert "Traceback" not in err


@pytest.mark.parametrize("n", [3, 8])
def test_verify_reduction_runs_requested_dims(capsys, n):
    code, report, _ = run_cli(capsys, "verify", "--seed", "4", "--dims",
                              str(n), "--trials", "1")
    assert code == 0
    reduce_names = [c["name"].split("/")[1] for c in report["checks"]
                    if c["name"].startswith("reduction_certificates/")]
    assert reduce_names
    assert all(name.startswith("reduce_") and name.endswith(f"_n{n}")
               for name in reduce_names)


def test_verify_dimension_streams_ignore_other_dims(capsys):
    def n4_residuals(dims):
        _, report, _ = run_cli(capsys, "verify", "--seed", "42", "--dims", dims,
                               "--trials", "5")
        return {c["name"]: c["residual"] for c in report["checks"]
                if c["name"].endswith("_n4")}

    alone = n4_residuals("4")
    props = {name.split("/")[0] for name in alone}
    assert props == {"functor_ledger", "splitting", "trichotomy", "bicommutant",
                     "reduction_certificates", "polar_decomposition",
                     "left_multiplication"}
    assert n4_residuals("2,4") == alone
    assert n4_residuals("4,2") == alone


def test_verify_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, report, _ = run_cli(capsys, "verify", "--seed", "1", "--dims", "2",
                              "--trials", "5", "--output", str(out))
    assert code == 0
    assert json.loads(out.read_text()) == report


def _write_algebra(tmp_path, gens, name="algebra.json", extra=None):
    payload = StarAlgebra(gens).to_json()
    if extra:
        payload.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_classify_complex_induced_file(tmp_path, capsys):
    rng = np.random.default_rng(0)
    gens, _ = sampling.plant_complex_induced(rng, 2)
    path = _write_algebra(tmp_path, gens)
    code, report, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    assert report["status"] == "pass"
    verdict = report["artifacts"]["classification"]
    assert verdict["kind"] == "ComplexInduced"
    assert verdict["commutant_dim"] == 2
    assert "J" in verdict


def test_classify_complex_induced_file_scaled_by_1e200(tmp_path, capsys):
    """The squared entries of these generators overflow, so the verdict may
    not rest on a plain Frobenius norm of them."""
    rng = np.random.default_rng(0)
    gens, _ = sampling.plant_complex_induced(rng, 2)
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(
        {"n": 2, "generators": [(g * 1e200).to_json() for g in gens]}))
    code, report, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    verdict = report["artifacts"]["classification"]
    assert verdict["kind"] == "ComplexInduced"
    assert verdict["commutant_dim"] == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_reduce_complex_induced_file_scaled_by_1e200(tmp_path, capsys):
    """No norm of the reduction overflows, and every guard on the way
    still compares finite relative residuals."""
    rng = np.random.default_rng(0)
    gens, _ = sampling.plant_complex_induced(rng, 2)
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(
        {"n": 2, "generators": [(g * 1e200).to_json() for g in gens]}))
    code, report, _ = run_cli(capsys, "reduce", str(path))
    assert code == 0
    assert report["status"] == "pass"
    assert all(check["pass"] for check in report["checks"])


def test_classify_proper_file(tmp_path, capsys):
    rng = np.random.default_rng(1)
    path = _write_algebra(tmp_path, sampling.plant_proper(rng, 2))
    code, report, _ = run_cli(capsys, "classify", str(path))
    assert code == 0
    verdict = report["artifacts"]["classification"]
    assert verdict["kind"] == "ProperQuaternionic"
    assert verdict["commutant_dim"] == 1


def test_classify_reducible_file_fails_with_witness(tmp_path, capsys):
    rng = np.random.default_rng(2)
    half = 2
    n = 2 * half
    gens = []
    for _ in range(2):
        data = np.zeros((n, n, 4))
        data[:half, :half] = rng.standard_normal((half, half, 4))
        data[half:, half:] = rng.standard_normal((half, half, 4))
        gens.append(QMatrix(data))
    path = _write_algebra(tmp_path, gens)
    code, report, _ = run_cli(capsys, "classify", str(path))
    assert code == 1
    assert report["status"] == "fail"
    witness = report["artifacts"]["reducibility_witness"]
    assert witness is not None
    proj = QMatrix.from_json(witness)
    assert (proj @ proj - proj).frob() <= 1e-6


def test_classify_malformed_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, report, _ = run_cli(capsys, "classify", str(path))
    assert code == 2
    assert report["status"] == "error"
    path2 = tmp_path / "bad.json"
    path2.write_text(json.dumps({"n": 2, "generators": "nope"}))
    code, _, _ = run_cli(capsys, "classify", str(path2))
    assert code == 2


@pytest.mark.parametrize("probe", ["identity", "zero"])
def test_classify_reports_a_degenerate_probe(tmp_path, capsys, monkeypatch,
                                             probe):
    """With the identity as the probe a reducible file has no witness, and
    with a zero probe a complex-induced file has no J: classify exits 1
    with an InternalInconsistency report, not a traceback."""
    rng = np.random.default_rng(9)
    if probe == "identity":
        data = np.zeros((2, 4, 4, 4))
        data[:, :2, :2] = rng.standard_normal((2, 2, 2, 4))
        data[:, 2:, 2:] = rng.standard_normal((2, 2, 2, 4))
        gens = [QMatrix(g) for g in data]
        probes = np.tile(QMatrix.identity(4).data.ravel(), (2, 1))
    else:
        gens, _ = sampling.plant_complex_induced(rng, 4)
        probes = np.zeros((2, 64))
    monkeypatch.setattr(algebra_module, "_probes", lambda n: probes)
    path = _write_algebra(tmp_path, gens)
    code, report, err = run_cli(capsys, "classify", str(path))
    assert code == 1
    assert report["status"] == "error"
    assert report["error"] == "InternalInconsistency"
    assert report["artifacts"] == {}
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["classify", "reduce"])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_input_rejected(tmp_path, capsys, command, literal):
    rng = np.random.default_rng(7)
    gens, _ = sampling.plant_complex_induced(rng, 2)
    text = json.dumps(StarAlgebra(gens).to_json())
    head, sep, tail = text.partition("[[[")
    path = tmp_path / "hostile.json"
    path.write_text(head + sep + literal + tail[tail.index(","):])
    code, report, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert report["status"] == "error"
    assert report["error"] == "usage"
    assert "non-finite" in report["message"]
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["classify", "reduce"])
@pytest.mark.parametrize("case", ["entry_400_digits", "n_1e999"])
def test_overflowing_literals_rejected(tmp_path, capsys, command, case):
    """A 400-digit integer literal parses to an int that no float holds, and
    1e999 to inf: both are usage errors, not tracebacks."""
    rng = np.random.default_rng(7)
    gens, _ = sampling.plant_complex_induced(rng, 2)
    text = json.dumps(StarAlgebra(gens).to_json())
    if case == "n_1e999":
        assert text.startswith('{"n": 2, ')
        text = '{"n": 1e999, ' + text[len('{"n": 2, '):]
    else:
        head, sep, tail = text.partition("[[[")
        text = head + sep + "9" * 400 + tail[tail.index(","):]
    path = tmp_path / "hostile.json"
    path.write_text(text)
    code, report, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert report["status"] == "error"
    assert report["error"] == "usage"
    assert "Traceback" not in err


def test_reduce_planted_file(tmp_path, capsys):
    rng = np.random.default_rng(3)
    gens, _ = sampling.plant_complex_induced(rng, 2)
    path = _write_algebra(tmp_path, gens)
    code, report, _ = run_cli(capsys, "reduce", str(path))
    assert code == 0
    assert report["status"] == "pass"
    assert all(c["pass"] for c in report["checks"])
    arts = report["artifacts"]
    assert arts["classification"]["kind"] == "ComplexInduced"
    assert len(arts["split_space"]["plus_basis"]) == 2
    assert arts["restricted_generators"][0]["re"]


def test_reduce_default_evolution_is_nontrivial(tmp_path, capsys):
    """A file without "evolution" is certified on a flow of the generators'
    skew parts, not on the identity: the *-closed generator list holds g
    and g*, whose skew parts cancel in a plain sum."""
    rng = np.random.default_rng(3)
    gens, _ = sampling.plant_complex_induced(rng, 3)
    path = _write_algebra(tmp_path, gens)
    code, report, _ = run_cli(capsys, "reduce", str(path))
    assert code == 0
    assert report["status"] == "pass"
    assert all(c["pass"] for c in report["checks"])
    evolution = report["artifacts"]["restricted_evolution"]
    assert len(evolution) == 2
    for u in evolution:
        mat = np.array(u["re"]) + 1j * np.array(u["im"])
        assert np.linalg.norm(mat - np.eye(3)) > 0.1


def test_reduce_idempotent(tmp_path, capsys):
    rng = np.random.default_rng(4)
    gens, _ = sampling.plant_complex_induced(rng, 2)
    path = _write_algebra(tmp_path, gens)
    _, first, _ = run_cli(capsys, "reduce", str(path))
    _, second, _ = run_cli(capsys, "reduce", str(path))
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_reduce_proper_is_not_complex_induced(tmp_path, capsys):
    rng = np.random.default_rng(5)
    path = _write_algebra(tmp_path, sampling.plant_proper(rng, 2))
    code, report, _ = run_cli(capsys, "reduce", str(path))
    assert code == 1
    assert report["status"] == "error"
    assert report["error"] == "NotComplexInduced"


@pytest.mark.parametrize("kind", ["NotComplexInduced", "DoesNotCommute",
                                  "usage"])
def test_reduce_error_report_on_stdout_and_output(tmp_path, capsys, kind):
    rng = np.random.default_rng(5)
    command, expected_code = "reduce", 1
    if kind == "NotComplexInduced":
        path = _write_algebra(tmp_path, sampling.plant_proper(rng, 2))
    elif kind == "DoesNotCommute":
        gens, _ = sampling.plant_complex_induced(rng, 2)
        path = _write_algebra(tmp_path, gens, extra={
            "evolution": [sampling.unitary(rng, 2).to_json()]})
    else:
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"n": 0, "generators": []}))
        command, expected_code = "classify", 2
    out = tmp_path / "report.json"
    code = main([command, str(path), "--output", str(out)])
    stdout = capsys.readouterr().out
    assert code == expected_code
    assert stdout == out.read_text()
    report = json.loads(stdout)
    assert stdout == json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert report["status"] == "error"
    assert report["error"] == kind
    assert report["checks"] == [] and report["artifacts"] == {}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_reduce_axis_whose_norm_overflows(tmp_path, capsys):
    """--i-axis 1e200,1e200,0 names the unit (1, 1, 0)/sqrt 2: its norm
    overflows, its direction does not."""
    gens, _ = sampling.plant_complex_induced(np.random.default_rng(6), 2)
    path = _write_algebra(tmp_path, gens)
    code, report, err = run_cli(capsys, "reduce", str(path), "--i-axis",
                                "1e200,1e200,0")
    assert code == 0
    assert report["status"] == "pass"
    np.testing.assert_allclose(report["artifacts"]["split_space"]["i"],
                               [2 ** -0.5, 2 ** -0.5, 0.0], rtol=1e-15)
    assert "Traceback" not in err


def test_reduce_with_explicit_evolution_and_axis(tmp_path, capsys):
    rng = np.random.default_rng(6)
    gens, _ = sampling.plant_complex_induced(rng, 2)
    from qreduce.qlinalg import expm_antiselfadjoint
    h = (gens[0] - gens[0].H) * 0.5
    evolution = [expm_antiselfadjoint(h * -0.5).to_json()]
    path = _write_algebra(tmp_path, gens, extra={"evolution": evolution})
    code, report, _ = run_cli(capsys, "reduce", str(path), "--i-axis", "e2")
    assert code == 0
    assert report["status"] == "pass"
    np.testing.assert_allclose(report["artifacts"]["split_space"]["i"],
                               [0.0, 1.0, 0.0])


def test_demo_adler(capsys):
    code, report, _ = run_cli(capsys, "demo", "adler", "--seed", "11")
    assert code == 0
    assert report["status"] == "pass"
    table = report["artifacts"]["table"]
    head = table[0]
    assert head["pC"] == pytest.approx(0.0, abs=1e-12)
    assert head["pS"] == pytest.approx(1.0, abs=1e-12)
    assert head["pH"] == pytest.approx(1.0, abs=1e-12)
    for row in table:
        if row["section"] == "plus_space":
            assert row["pS"] <= 1e-12


@pytest.mark.parametrize("command", ["classify", "reduce"])
def test_tolerance_scale_reaches_classify_and_reduce(tmp_path, capsys,
                                                     monkeypatch, command):
    rng = np.random.default_rng(9)
    gens, _ = sampling.plant_complex_induced(rng, 2)
    path = _write_algebra(tmp_path, gens)
    code, default, _ = run_cli(capsys, command, str(path))
    assert code == 0
    assert default["status"] == "pass"
    code, tight, _ = run_cli(capsys, command, str(path), "--tol", "1e-9")
    assert code == 1
    assert tight["status"] == "fail"
    assert [c["tolerance"] for c in tight["checks"]] == pytest.approx(
        [1e-9 * c["tolerance"] for c in default["checks"]])
    monkeypatch.setenv("QR_TOL_SCALE", "1e-9")
    code, env, _ = run_cli(capsys, command, str(path))
    assert code == 1
    assert env == tight


def test_tol_scales_every_check_and_keeps_exact_checks_at_zero(tmp_path,
                                                              capsys):
    rng = np.random.default_rng(9)
    gens, _ = sampling.plant_complex_induced(rng, 2)
    path = str(_write_algebra(tmp_path, gens))
    scaled = {}
    for argv in (["verify", "--dims", "2", "--trials", "2"],
                 ["classify", path], ["reduce", path]):
        _, base, _ = run_cli(capsys, *argv)
        _, wide, _ = run_cli(capsys, *argv, "--tol", "4")
        assert [c["name"] for c in wide["checks"]] == [
            c["name"] for c in base["checks"]]
        for b, w in zip(base["checks"], wide["checks"]):
            if b["tolerance"] == 0.0:
                assert w["tolerance"] == 0.0, w["name"]
            else:
                assert w["tolerance"] == 4 * b["tolerance"], w["name"]
        scaled.update((c["name"], c["tolerance"]) for c in wide["checks"])
    assert scaled["projection_rank_match"] == 4e-8


def test_demo_unknown_rejected(capsys):
    code, _, _ = run_cli(capsys, "demo", "nonsense")
    assert code == 2


def test_tolerance_scale_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QR_TOL_SCALE", "1000.0")
    code, report, _ = run_cli(capsys, "verify", "--seed", "2", "--dims", "2",
                              "--trials", "5")
    assert code == 0
    assert report["artifacts"]["tol_scale"] == pytest.approx(1000.0)


def _hostile_case(tmp_path, monkeypatch, case):
    """argv for one hostile invocation; files hold an n=2 complex-induced
    algebra unless the case is about the file itself."""
    rng = np.random.default_rng(8)
    gens, _ = sampling.plant_complex_induced(rng, 2)
    system = _write_algebra(tmp_path, gens)
    verify = ["verify", "--dims", "2", "--trials", "1"]
    if case == "n_zero":
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"n": 0, "generators": []}))
        return ["classify", str(path)]
    if case.startswith("no_generators_"):
        path = tmp_path / "no_generators.json"
        path.write_text(json.dumps({"n": 2, "generators": []}))
        return [case[len("no_generators_"):], str(path)]
    if case == "n_above_cap":
        path = tmp_path / "large.json"
        path.write_text(json.dumps({"n": 9, "generators": []}))
        return ["classify", str(path)]
    if case == "evolution_size":
        path = _write_algebra(tmp_path, gens, name="mixed.json", extra={
            "evolution": [QMatrix.identity(3).to_json()]})
        return ["reduce", str(path)]
    if case.startswith("tol_"):
        return verify + ["--tol", case[4:]]
    if case == "env_not_a_number":
        monkeypatch.setenv("QR_TOL_SCALE", "abc")
        return verify
    if case == "output_unwritable":
        return verify + ["--output", str(tmp_path / "missing" / "out.json")]
    if case == "dims_repeated":
        return ["verify", "--dims", "2,2", "--trials", "1"]
    if case == "seed_negative_verify":
        return verify + ["--seed", "-1"]
    if case == "seed_negative_demo":
        return ["demo", "adler", "--seed", "-3"]
    return ["reduce", str(system), "--i-axis", case[5:]]


@pytest.mark.parametrize("case", [
    "n_zero", "n_above_cap", "no_generators_classify",
    "no_generators_reduce", "evolution_size", "tol_inf", "tol_nan",
    "tol_0", "tol_-1", "env_not_a_number", "axis_nan,0,0", "axis_inf,0,0",
    "output_unwritable", "dims_repeated", "seed_negative_verify",
    "seed_negative_demo"])
def test_hostile_cli_input_exits_2(tmp_path, capsys, monkeypatch, case):
    argv = _hostile_case(tmp_path, monkeypatch, case)
    code, report, err = run_cli(capsys, *argv)
    assert code == 2
    assert report["status"] == "error"
    assert report["error"] == "usage"
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, command", [
    (["verify", "--trials", "abc"], "verify"),
    (["verify", "--bogus"], "verify"),
    (["classify"], "classify"),
    (["frobnicate"], None),
    ([], None),
    (["demo", "counitary"], "demo"),         # a removed demo
])
def test_malformed_options_give_usage_report(tmp_path, capsys, argv,
                                             command):
    """argparse errors exit 2 with the indented JSON usage report on
    stdout; --output is not written, since the options did not parse."""
    out = tmp_path / "report.json"
    code = main(argv + ["--output", str(out)] if argv else argv)
    captured = capsys.readouterr()
    assert code == 2
    report = json.loads(captured.out)
    assert captured.out == json.dumps(report, sort_keys=True, indent=2) + "\n"
    assert report["status"] == "error"
    assert report["error"] == "usage"
    assert report["command"] == command
    assert report["checks"] == [] and report["artifacts"] == {}
    assert "usage: qreduce" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"],
                                  ["--version"]])
def test_help_and_version_exit_0_with_text(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip()
    assert not captured.out.lstrip().startswith("{")


def test_parser_built_once_per_process(capsys, monkeypatch):
    """main reuses one parser; build_parser still returns a fresh one."""
    assert build_parser() is not build_parser()
    main(["demo", "adler"])
    capsys.readouterr()

    def rebuilt():
        raise AssertionError("main rebuilt its parser")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    code, report, _ = run_cli(capsys, "demo", "adler", "--seed", "3")
    assert code == 0
    assert report["artifacts"]["seed"] == 3


# ---------------------------------------------------------------------------
# BLAS thread policy


@pytest.fixture
def blas_policy(monkeypatch):
    """No BLAS thread variable set, and `main` not yet run in the process
    as far as the policy is concerned."""
    for name in cli._BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    cli._one_blas_thread.cache_clear()
    yield
    cli._one_blas_thread.cache_clear()


def _openblas_function(lib, verb):
    """The "set" or "get" thread-count function of an OpenBLAS copy."""
    name = next(n for n in cli._OPENBLAS_SETTERS if hasattr(lib, n))
    return getattr(lib, name.replace("_set_", f"_{verb}_"))


@pytest.mark.parametrize("other_variable", [None, "MKL_NUM_THREADS",
                                            "BLIS_NUM_THREADS"])
def test_main_runs_every_openblas_copy_at_one_thread(blas_policy, capsys,
                                                     monkeypatch,
                                                     other_variable):
    """Variables of other BLAS libraries, which OpenBLAS does not read,
    leave the policy on."""
    if other_variable:
        monkeypatch.setenv(other_variable, "1")
    for lib in cli._openblas_libraries():
        _openblas_function(lib, "set")(2)
    assert main(["demo", "adler"]) == 0
    pinned = cli._one_blas_thread()
    assert len(pinned) == 1           # numpy's copy; the CLI loads no other
    assert [_openblas_function(lib, "get")() for lib in pinned] == [1]


def test_user_blas_thread_variable_is_honoured():
    """With OPENBLAS_NUM_THREADS set, main leaves numpy's copy as it was.
    OpenBLAS may lower the count it read to the CPUs it can use, so the
    count is compared before and after, not with the variable."""
    script = "\n".join([
        "import contextlib, io",
        "from qreduce import cli",
        "numpy_copy = cli._openblas_libraries()[0]",
        "before = numpy_copy.scipy_openblas_get_num_threads64_()",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = cli.main(['demo', 'adler'])",
        "print(code, before, numpy_copy.scipy_openblas_get_num_threads64_(),",
        "      cli._one_blas_thread() == ())",
    ])
    src = str(Path(qreduce.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    code, before, after, left_alone = out.split()
    assert (code, left_alone) == ("0", "True")
    assert after == before


def test_blas_libraries_looked_up_once_per_process(blas_policy, capsys,
                                                  monkeypatch):
    main(["demo", "adler"])
    capsys.readouterr()

    def looked_up_again():
        raise AssertionError("main looked the BLAS libraries up again")

    monkeypatch.setattr(cli, "_openblas_libraries", looked_up_again)
    code, report, _ = run_cli(capsys, "demo", "adler", "--seed", "3")
    assert code == 0
    assert report["artifacts"]["seed"] == 3


@pytest.mark.parametrize("missing", ["libraries", "setters"])
def test_main_runs_when_no_openblas_setter_is_found(blas_policy, capsys,
                                                    monkeypatch, missing):
    if missing == "libraries":
        monkeypatch.setattr(cli, "_openblas_libraries", lambda: [])
    else:
        monkeypatch.setattr(cli, "_OPENBLAS_SETTERS", ("no_such_setter",))
    code, report, _ = run_cli(capsys, "demo", "adler")
    assert code == 0
    assert report["status"] == "pass"
    assert cli._one_blas_thread() == ()
