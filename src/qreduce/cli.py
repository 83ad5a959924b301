"""Command-line surface: verification, classification, reduction, demos.

Reports are JSON on stdout (deterministic for a fixed seed) with a
human-readable summary on stderr.  Every report, an error report too, is
written by `_emit`, which also copies it to --output once the options
have parsed; malformed options give a usage report on stdout only.  Exit
codes: 0 all checks pass, 1 a check failed or the run ended with a domain
error, 2 usage or input error, an unwritable --output path included.  The
environment variable QR_TOL_SCALE multiplies the tolerance of every
reported check, as does the --tol flag; both must be finite and positive.
`_finish` is the one place that scaling happens: every command hands it
unscaled checks, and it sets the status from the scaled ones.  Checks
that count failures carry tolerance 0, which no scale moves.  Decision
thresholds (commutant rank, irreducibility) are fixed.

`main` runs BLAS at one thread, because thread start-up and
synchronisation cost more than they save on the n <= 8 problems here,
unless the user has set a thread variable that OpenBLAS reads
(OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS); importing
the package leaves BLAS as it is.  The package needs numpy only (scipy
is a test oracle), so numpy's OpenBLAS copy is the one that `main` sets.
"""
from __future__ import annotations

import argparse
import ctypes
import functools
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, sampling
from .algebra import (
    StarAlgebra,
    classify_irreducible,
    is_irreducible,
    reduce_system,
    reducibility_witness,
)
from .dynamics import evolution_trace, transition_probs
from .errors import QReduceError
from .functors import split_plus_minus
from .qlinalg import (
    QMatrix,
    QVector,
    binary_scaled,
    commutator_residual,
    expm_antiselfadjoint,
)
from .quat import ImaginaryUnit, UNIT_E1, UNIT_E2, UNIT_E3
from .report import Check, max_residual
from .verify import DEFAULT_DIMS, run_verify

MAX_DIM = 8


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with its errors raised as UsageError, so that malformed
    options get a JSON usage report like every other usage error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _seed(text: str) -> int:
    """--seed: a non-negative integer, as numpy's seeding requires."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"seed must be a non-negative integer, got {seed}")
    return seed


def _tol_scale(args) -> float:
    """QR_TOL_SCALE times --tol; each factor and the product must be finite
    and positive."""
    text = os.environ.get("QR_TOL_SCALE", "1.0")
    try:
        env = float(text)
    except ValueError:
        env = math.nan
    scale = env * args.tol
    if not (env > 0 and args.tol > 0 and 0 < scale < math.inf):
        raise UsageError(f"tolerance scale must be finite and positive "
                         f"(QR_TOL_SCALE={text!r}, --tol {args.tol!r})")
    return scale


def _emit(report: dict, output: str | None) -> int:
    """Write the report as JSON to output (when given) and to stdout,
    summarize it on stderr and return the exit code.  An output path that
    cannot be written turns the report into a usage error."""
    text = json.dumps(report, sort_keys=True, indent=2)
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            return _emit(_error_report(report["command"], "usage",
                                       f"cannot write {output}: {exc}"), None)
    print(text)
    for check in report["checks"]:
        flag = "PASS" if check["pass"] else "FAIL"
        print(f"[{flag}] {check['name']}: residual={check['residual']:.3e} "
              f"tol={check['tolerance']:.1e}", file=sys.stderr)
    if report["status"] == "error":
        print(f"error: {report['error']}: {report['message']}",
              file=sys.stderr)
    print(f"status: {report['status']}", file=sys.stderr)
    if report["status"] == "pass":
        return 0
    return 2 if report.get("error") == "usage" else 1


def _error_report(command: str | None, error: str, message: str) -> dict:
    """Report of a run that ended with an error instead of checks; error
    is "usage" or the name of a domain exception.  command is None when
    the options named no subcommand."""
    return {"command": command, "status": "error", "error": error,
            "message": message, "checks": [], "artifacts": {}}


def _finish(command: str, checks: list[Check], artifacts: dict, args) -> int:
    """Scale every check by args.tol_scale and emit the report; the status
    is "pass" iff every scaled check passes."""
    checks = [c.scaled(args.tol_scale) for c in checks]
    return _emit({
        "command": command,
        "status": "pass" if all(c.passed for c in checks) else "fail",
        "checks": [c.to_json() for c in checks],
        "artifacts": artifacts,
    }, args.output)


def _parse_dims(text: str) -> list[int]:
    try:
        dims = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"invalid dims {text!r}") from exc
    if not dims or any(d < 1 or d > MAX_DIM for d in dims):
        raise UsageError(f"dims must lie in [1, {MAX_DIM}], got {dims}")
    if len(set(dims)) != len(dims):
        raise UsageError(f"dims must not repeat, got {dims}")
    return dims


def _parse_axis(text: str) -> ImaginaryUnit:
    named = {"e1": UNIT_E1, "e2": UNIT_E2, "e3": UNIT_E3}
    if text in named:
        return named[text]
    try:
        parts = [float(p) for p in text.split(",")]
        return ImaginaryUnit.from_vector(parts)
    except Exception as exc:
        raise UsageError(f"invalid imaginary-unit axis {text!r}") from exc


def _reject_constant(text: str):
    """JSON constant hook: the NaN and Infinity constants are rejected."""
    raise ValueError(f"non-finite number {text}")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _load_system(path: str) -> tuple[StarAlgebra, list[QMatrix]]:
    """Algebra and optional evolution list of a classify/reduce file.  The
    dimension is checked before any n x n array is built; no generators
    (the algebra R I) and a non-finite number (1e999 is inf) are refused."""
    payload = _load_json(path)
    n = payload.get("n") if isinstance(payload, dict) else None
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_DIM:
        raise UsageError(f"n must be an integer in [1, {MAX_DIM}], got {n!r}")
    try:
        gens = [QMatrix.from_json(g) for g in payload["generators"]]
        if not gens:
            raise UsageError("system file has no generators")
        evolution = [QMatrix.from_json(u) for u in payload.get("evolution", [])]
        if not all(np.isfinite(m.data).all() for m in gens + evolution):
            raise UsageError("non-finite number in system file")
        algebra = StarAlgebra(gens, n=n)
    except (KeyError, TypeError, ValueError, OverflowError,
            QReduceError) as exc:
        raise UsageError(f"malformed system file: {exc}") from exc
    if any(u.n != n for u in evolution):
        raise UsageError(f"evolution operators must be {n} x {n}")
    return algebra, evolution


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    dims = _parse_dims(args.dims)
    if args.trials < 1:
        raise UsageError("trials must be at least 1")
    results = run_verify(args.seed, dims, args.trials)
    checks = [replace(check, name=f"{prop_name}/{check.name}")
              for prop_name, prop_checks in results for check in prop_checks]
    return _finish("verify", checks, {
        "seed": args.seed,
        "dims": dims,
        "trials": args.trials,
        "tol_scale": args.tol_scale,
    }, args)


# ---------------------------------------------------------------------------
# classify


def _classification_checks(verdict, algebra) -> list[Check]:
    checks = [Check("commutant_dim_in_trichotomy",
                    0.0 if verdict.commutant_dim in (1, 2, 4) else 1.0, 0.0)]
    ident = QMatrix.identity(algebra.n)
    named = [("J", verdict.J), ("I", verdict.I), ("K", verdict.K)]
    present = [(name, op) for name, op in named if op is not None]
    for name, op in present:
        checks.append(Check(f"{name}_antiselfadjoint", (op + op.H).frob(), 1e-8))
        checks.append(Check(f"{name}_square_minus_identity",
                            (op @ op + ident).frob(), 1e-8))
        worst = max_residual(*(commutator_residual(op, g)
                               for g in algebra.generators))
        checks.append(Check(f"{name}_commutes_with_generators", worst, 1e-8))
    for a in range(len(present)):
        for b in range(a + 1, len(present)):
            anti = (present[a][1] @ present[b][1]
                    + present[b][1] @ present[a][1]).frob()
            checks.append(Check(f"{present[a][0]}{present[b][0]}_anticommute",
                                anti, 1e-7))
    if verdict.I is not None and verdict.K is not None:
        checks.append(Check("K_equals_IJ",
                            (verdict.K - verdict.I @ verdict.J).frob(), 1e-8))
    return checks


def cmd_classify(args) -> int:
    algebra, _ = _load_system(args.input)

    if not is_irreducible(algebra):
        return _finish("classify", [Check("irreducible", 1.0, 0.0)], {
            "commutant_dim": algebra.commutant_basis().dim_r,
            "reducibility_witness": reducibility_witness(algebra).to_json(),
        }, args)

    verdict = classify_irreducible(algebra)
    return _finish("classify", _classification_checks(verdict, algebra),
                   {"classification": verdict.to_json()}, args)


# ---------------------------------------------------------------------------
# reduce


def _default_evolution(algebra: StarAlgebra) -> list[QMatrix]:
    """exp(-t S) at t = 0.5 and 1, for S the unit-norm skew part of the
    generator whose skew part is largest relative to the generator.  S
    lies in the algebra, so the flow commutes with its commutant.  (A sum
    over the *-closed generator list would cancel: g and g* have opposite
    skew parts.)  A skew part below 1e-6 of its generator has a direction
    that rounding blurs past the commutation guard of reduce_system, so
    with none above that the flow is the identity."""
    skew, best = QMatrix.zeros(algebra.n), 1e-6
    for g in algebra.generators[1:]:
        s = QMatrix(binary_scaled(g.data))
        part = (s - s.H) * 0.5
        size = part.frob()
        if size > best * s.frob():
            skew, best = part * (1.0 / size), size / s.frob()
    return [expm_antiselfadjoint(skew * float(-t)) for t in (0.5, 1.0)]


def cmd_reduce(args) -> int:
    algebra, evolution = _load_system(args.input)
    axis = _parse_axis(args.i_axis)
    if not evolution:
        evolution = _default_evolution(algebra)

    result = reduce_system(algebra, evolution, axis)
    return _finish("reduce", result.checks, result.to_json(), args)


# ---------------------------------------------------------------------------
# demos


def _demo_adler(seed: int) -> tuple[list[Check], dict]:
    n = 4
    rng = np.random.default_rng(seed)
    gens, planted_j = sampling.plant_complex_induced(rng, n)
    space = split_plus_minus(planted_j, UNIT_E1)
    frame = space.frame
    jq = frame.j.as_quaternion()
    skew = (gens[0] - gens[0].H) * 0.5
    skew = skew * (1.0 / max(skew.frob(), 1e-12))

    rows = []
    checks = []
    v = sampling.unit_qvector(rng, n)
    p_c, p_s, p_h = transition_probs(v, v * jq, frame)
    rows.append({"pair": "(v, v*j)", "section": "ambient",
                 "pC": p_c, "pS": p_s, "pH": p_h})
    checks.append(Check("adler_pair_pC", abs(p_c), 1e-12))
    checks.append(Check("adler_pair_pS", abs(p_s - 1.0), 1e-12))
    checks.append(Check("adler_pair_pH", abs(p_h - 1.0), 1e-12))

    worst_ps = 0.0
    for idx in range(6):
        coords = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        a = space.basis @ QVector.from_complex(coords[0], frame)
        b = space.basis @ QVector.from_complex(coords[1], frame)
        a = a * (1.0 / a.norm())
        b = b * (1.0 / b.norm())
        p_c, p_s, p_h = transition_probs(a, b, frame)
        rows.append({"pair": f"plus_{idx}", "section": "plus_space",
                     "pC": p_c, "pS": p_s, "pH": p_h})
        worst_ps = max_residual(worst_ps, p_s)
    checks.append(Check("adler_plus_section_pS", worst_ps, 1e-12))

    # trajectory of a plus-space state under the planted J-commuting flow
    start = space.basis @ QVector.from_complex(
        rng.standard_normal(n) + 1j * rng.standard_normal(n), frame)
    start = start * (1.0 / start.norm())
    trace = evolution_trace(skew, start, [0.0, 0.5, 1.0, 1.5, 2.0])
    worst_norm = max_residual(*(abs(x - 1.0) for x in trace["norms"]))
    checks.append(Check("adler_trace_unitarity", worst_norm, 1e-9))
    return checks, {"which": "adler", "seed": seed, "table": rows,
                    "trace": trace}


def _print_adler_table(rows: list[dict]) -> None:
    print(f"{'pair':>10s} {'section':>12s} {'pC':>12s} {'pS':>12s} "
          f"{'pH':>12s}", file=sys.stderr)
    for row in rows:
        print(f"{row['pair']:>10s} {row['section']:>12s} "
              f"{row['pC']:12.3e} {row['pS']:12.3e} {row['pH']:12.3e}",
              file=sys.stderr)


def cmd_demo(args) -> int:
    checks, artifacts = _demo_adler(args.seed)
    _print_adler_table(artifacts["table"])
    return _finish("demo", checks, artifacts, args)


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = ("verify", "classify", "reduce", "demo")     # of build_parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qreduce",
        description="Quaternionic operator toolkit: verify module properties, "
                    "classify operator algebras, reduce complex-induced "
                    "systems to their component space.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_seed, default=42,
                       help="master RNG seed, a non-negative integer")
        p.add_argument("--tol", type=float, default=1.0,
                       help="multiplier on every check tolerance")
        p.add_argument("--output", type=str, default=None,
                       help="also write the JSON report to this path")

    p_verify = sub.add_parser("verify", help="run the registered property suites")
    common(p_verify)
    p_verify.add_argument("--dims", type=str,
                          default=",".join(str(d) for d in DEFAULT_DIMS))
    p_verify.add_argument("--trials", type=int, default=100)
    p_verify.set_defaults(func=cmd_verify)

    p_classify = sub.add_parser("classify",
                                help="classify an irreducible algebra file")
    common(p_classify)
    p_classify.add_argument("input", help="StarAlgebra JSON path")
    p_classify.set_defaults(func=cmd_classify)

    p_reduce = sub.add_parser("reduce",
                              help="reduce a complex-induced system file")
    common(p_reduce)
    p_reduce.add_argument("input", help="system JSON path")
    p_reduce.add_argument("--i-axis", type=str, default="e1",
                          help="imaginary unit: e1|e2|e3 or 'x,y,z'")
    p_reduce.set_defaults(func=cmd_reduce)

    p_demo = sub.add_parser("demo", help="run a built-in demonstration")
    common(p_demo)
    p_demo.add_argument("which", choices=["adler"])
    p_demo.set_defaults(func=cmd_demo)
    return parser


# Variables that OpenBLAS reads for its thread count; a user who sets one
# has chosen the count, so the CLI leaves it.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                          "OMP_NUM_THREADS")
# dlopen flag that finds a library only if it is loaded already; Windows
# has none, and there a loaded DLL is found by its path anyway.
_NOLOAD = getattr(os, "RTLD_NOLOAD", 0)
# Thread-count setter of the OpenBLAS build in the numpy wheel (64-bit
# integer interface).
_OPENBLAS_SETTERS = ("scipy_openblas_set_num_threads64_",)


def _openblas_libraries() -> list[ctypes.CDLL]:
    """The OpenBLAS copies in the library folder of the numpy wheel that
    this process has loaded; the lookup loads none itself."""
    found = []
    folder = Path(np.__file__).parents[1] / "numpy.libs"
    for path in sorted(folder.glob("*openblas*")):
        try:
            found.append(ctypes.CDLL(str(path), mode=_NOLOAD))
        except OSError:                          # not loaded
            pass
    return found


@functools.lru_cache(maxsize=None)
def _one_blas_thread() -> tuple[ctypes.CDLL, ...]:
    """Set every loaded OpenBLAS copy to one thread, once per process, and
    return the copies set.  numpy's copy, the only one the package loads,
    is loaded by the time `main` runs, too late for a thread variable to
    act, so it is set through its runtime setter.  Nothing is set when the
    user has set a thread variable that OpenBLAS reads, or when no setter
    is found."""
    if any(os.environ.get(name) for name in _BLAS_THREAD_VARIABLES):
        return ()
    pinned = []
    for lib in _openblas_libraries():
        for name in _OPENBLAS_SETTERS:
            if hasattr(lib, name):
                setter = getattr(lib, name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                pinned.append(lib)
    return tuple(pinned)


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser of `main`, built on its first call; parsing leaves it
    unchanged, so one serves every call in a process."""
    return build_parser()


def main(argv=None) -> int:
    _one_blas_thread()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:                    # --help and --version
        return int(exc.code or 0)
    except UsageError as exc:
        named = next((a for a in argv if not a.startswith("-")), None)
        command = named if named in _COMMANDS else None
        return _emit(_error_report(command, "usage", str(exc)), None)
    try:
        args.tol_scale = _tol_scale(args)
        return args.func(args)
    except UsageError as exc:
        report = _error_report(args.command, "usage", str(exc))
    except QReduceError as exc:
        report = _error_report(args.command, type(exc).__name__, str(exc))
    return _emit(report, args.output)


if __name__ == "__main__":
    sys.exit(main())
