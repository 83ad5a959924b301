"""Command-line surface: verification, classification, reduction, demos.

Reports are JSON on stdout (deterministic for a fixed seed) with a
human-readable summary on stderr.  Exit codes: 0 all checks pass, 1 a
check failed or the run ended with a domain error, 2 usage or input
error.  The environment variable QR_TOL_SCALE multiplies the tolerance of
every reported check, as does the --tol flag; both must be finite and
positive.  Decision thresholds (commutant rank, irreducibility) are fixed.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__, sampling
from .algebra import (
    StarAlgebra,
    classify_irreducible,
    commutant,
    is_irreducible,
    reduce_system,
    reducibility_witness,
)
from .dynamics import Hamiltonian, counitary_demo, evolution_trace, transition_probs
from .errors import DoesNotCommute, NotComplexInduced, QReduceError
from .functors import split_plus_minus
from .qlinalg import QMatrix, QVector, expm_antiselfadjoint
from .quat import ImaginaryUnit, UNIT_E1, UNIT_E2, UNIT_E3
from .report import Check
from .verify import DEFAULT_DIMS, run_verify

MAX_DIM = 8


class UsageError(Exception):
    pass


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


def _emit(report: dict, args) -> None:
    text = json.dumps(report, sort_keys=True, indent=2)
    print(text)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")


def _summarize(report: dict) -> None:
    for check in report.get("checks", []):
        flag = "PASS" if check["pass"] else "FAIL"
        print(f"[{flag}] {check['name']}: residual={check['residual']:.3e} "
              f"tol={check['tolerance']:.1e}", file=sys.stderr)
    print(f"status: {report['status']}", file=sys.stderr)


def _finish(report: dict, args) -> int:
    _emit(report, args)
    _summarize(report)
    return 0 if report["status"] == "pass" else 1


def _parse_dims(text: str) -> list[int]:
    try:
        dims = [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise UsageError(f"invalid dims {text!r}") from exc
    if not dims or any(d < 1 or d > MAX_DIM for d in dims):
        raise UsageError(f"dims must lie in [1, {MAX_DIM}], got {dims}")
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


def _finite_number(text: str) -> float | int:
    """JSON number hook: overflowing literals such as 1e999 (which float()
    turns into inf) and the NaN/Infinity constants are rejected."""
    if not math.isfinite(float(text)):
        raise ValueError(f"non-finite number {text}")
    return float(text) if any(c in text for c in ".eE") else int(text)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh, parse_float=_finite_number,
                             parse_int=_finite_number,
                             parse_constant=_finite_number)
    except (OSError, ValueError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _load_system(path: str) -> tuple[StarAlgebra, list[QMatrix]]:
    """Algebra and optional evolution list of a classify/reduce file.  The
    dimension is checked before any n x n array is built."""
    payload = _load_json(path)
    n = payload.get("n") if isinstance(payload, dict) else None
    if isinstance(n, bool) or not isinstance(n, int) or not 1 <= n <= MAX_DIM:
        raise UsageError(f"n must be an integer in [1, {MAX_DIM}], got {n!r}")
    try:
        algebra = StarAlgebra.from_json(payload)
        evolution = [QMatrix.from_json(u) for u in payload.get("evolution", [])]
    except (KeyError, TypeError, ValueError, QReduceError) as exc:
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
    results = run_verify(args.seed, dims, args.trials, args.tol_scale)
    checks = []
    for prop_name, prop_checks in results:
        for check in prop_checks:
            record = check.to_json()
            record["name"] = f"{prop_name}/{record['name']}"
            checks.append(record)
    status = "pass" if all(c["pass"] for c in checks) else "fail"
    report = {
        "command": "verify",
        "status": status,
        "checks": checks,
        "artifacts": {
            "seed": args.seed,
            "dims": dims,
            "trials": args.trials,
            "tol_scale": args.tol_scale,
        },
    }
    return _finish(report, args)


# ---------------------------------------------------------------------------
# classify


def _classification_checks(verdict, algebra) -> list[Check]:
    checks = [Check("commutant_dim_in_trichotomy",
                    0.0 if verdict.commutant_dim in (1, 2, 4) else 1.0, 0.5)]
    ident = QMatrix.identity(algebra.n)
    named = [("J", verdict.J), ("I", verdict.I), ("K", verdict.K)]
    present = [(name, op) for name, op in named if op is not None]
    for name, op in present:
        checks.append(Check(f"{name}_antiselfadjoint", (op + op.H).frob(), 1e-8))
        checks.append(Check(f"{name}_square_minus_identity",
                            (op @ op + ident).frob(), 1e-8))
        worst = max((op @ g - g @ op).frob() / max(1.0, g.frob())
                    for g in algebra.generators)
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
        witness = reducibility_witness(algebra)
        report = {
            "command": "classify",
            "status": "fail",
            "checks": [Check("irreducible", 1.0, 0.5).to_json()],
            "artifacts": {
                "commutant_dim": commutant(algebra).dim_r,
                "reducibility_witness":
                    witness.to_json() if witness is not None else None,
            },
        }
        return _finish(report, args)

    verdict = classify_irreducible(algebra)
    checks = [c.scaled(args.tol_scale)
              for c in _classification_checks(verdict, algebra)]
    report = {
        "command": "classify",
        "status": "pass" if all(c.passed for c in checks) else "fail",
        "checks": [c.to_json() for c in checks],
        "artifacts": {"classification": verdict.to_json()},
    }
    return _finish(report, args)


# ---------------------------------------------------------------------------
# reduce


def _default_evolution(algebra: StarAlgebra) -> list[QMatrix]:
    skew = QMatrix.zeros(algebra.n)
    for g in algebra.generators[1:]:
        skew = skew + (g - g.H) * 0.5
    nrm = skew.frob()
    if nrm > 1e-12:
        skew = skew * (1.0 / nrm)
    return [expm_antiselfadjoint(skew * float(-t)) for t in (0.5, 1.0)]


def cmd_reduce(args) -> int:
    algebra, evolution = _load_system(args.input)
    axis = _parse_axis(args.i_axis)
    if not evolution:
        evolution = _default_evolution(algebra)

    try:
        result = reduce_system(algebra, evolution, axis)
    except (NotComplexInduced, DoesNotCommute) as exc:
        report = {
            "command": "reduce",
            "status": "error",
            "error": type(exc).__name__,
            "message": str(exc),
            "checks": [],
            "artifacts": {},
        }
        return _finish(report, args)

    result = replace(result, checks=[c.scaled(args.tol_scale)
                                     for c in result.checks])
    payload = result.to_json()
    report = {
        "command": "reduce",
        "status": "pass" if result.passed else "fail",
        "checks": payload.pop("checks"),
        "artifacts": payload,
    }
    return _finish(report, args)


# ---------------------------------------------------------------------------
# demos


def _demo_adler(seed: int, tol_scale: float) -> dict:
    n = 4
    rng = np.random.default_rng(seed)
    gens, planted_j = sampling.plant_complex_induced(rng, n)
    space = split_plus_minus(planted_j, UNIT_E1)
    frame = space.frame
    jq = frame.j.as_quaternion()
    skew = (gens[0] - gens[0].H) * 0.5
    hamiltonian = Hamiltonian(skew * (1.0 / max(skew.frob(), 1e-12)), frame)

    rows = []
    checks = []
    v = sampling.unit_qvector(rng, n)
    p_c, p_s, p_h = transition_probs(v, v * jq, frame)
    rows.append({"pair": "(v, v*j)", "section": "ambient",
                 "pC": p_c, "pS": p_s, "pH": p_h})
    checks.append(Check("adler_pair_pC", abs(p_c), 1e-12 * tol_scale))
    checks.append(Check("adler_pair_pS", abs(p_s - 1.0), 1e-12 * tol_scale))
    checks.append(Check("adler_pair_pH", abs(p_h - 1.0), 1e-12 * tol_scale))

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
        worst_ps = max(worst_ps, p_s)
    checks.append(Check("adler_plus_section_pS", worst_ps, 1e-12 * tol_scale))

    # trajectory of a plus-space state under the planted J-commuting flow
    start = space.basis @ QVector.from_complex(
        rng.standard_normal(n) + 1j * rng.standard_normal(n), frame)
    start = start * (1.0 / start.norm())
    trace = evolution_trace(hamiltonian, start, [0.0, 0.5, 1.0, 1.5, 2.0])
    worst_norm = max(abs(x - 1.0) for x in trace["norms"])
    checks.append(Check("adler_trace_unitarity", worst_norm, 1e-9 * tol_scale))
    return {
        "command": "demo",
        "status": "pass" if all(c.passed for c in checks) else "fail",
        "checks": [c.to_json() for c in checks],
        "artifacts": {"which": "adler", "seed": seed, "table": rows,
                      "trace": trace},
    }


def _demo_counitary(seed: int, tol_scale: float) -> dict:
    n = 3
    rng = np.random.default_rng(seed)
    hq = sampling.unit_quaternion(rng)
    unitaries = [sampling.unitary(rng, n) for _ in range(3)]
    result = counitary_demo(hq, unitaries, seed=seed)
    checks = [Check("counitary_rmqq", result.max_rmqq_residual,
                    1e-10 * tol_scale)]
    min_sep = min(result.central_distances[a, b]
                  for a in range(3) for b in range(a + 1, 3))
    checks.append(Check("counitary_candidates_differ",
                        max(0.0, 0.1 - min_sep), 0.0))
    return {
        "command": "demo",
        "status": "pass" if all(c.passed for c in checks) else "fail",
        "checks": [c.to_json() for c in checks],
        "artifacts": {
            "which": "counitary",
            "seed": seed,
            "automorphism_phase": hq.to_json(),
            "rmqq_residuals": [float(r) for r in result.rmqq_residuals],
            "candidate_distances": result.distances.tolist(),
            "central_distances": result.central_distances.tolist(),
        },
    }


def _print_demo_tables(report: dict) -> None:
    arts = report["artifacts"]
    if arts["which"] == "adler":
        print(f"{'pair':>10s} {'section':>12s} {'pC':>12s} {'pS':>12s} "
              f"{'pH':>12s}", file=sys.stderr)
        for row in arts["table"]:
            print(f"{row['pair']:>10s} {row['section']:>12s} "
                  f"{row['pC']:12.3e} {row['pS']:12.3e} {row['pH']:12.3e}",
                  file=sys.stderr)
    else:
        print("candidate left-action distances (modulo central sign):",
              file=sys.stderr)
        for line in arts["central_distances"]:
            print("  " + "  ".join(f"{x:8.4f}" for x in line), file=sys.stderr)


def cmd_demo(args) -> int:
    if args.which == "adler":
        report = _demo_adler(args.seed, args.tol_scale)
    elif args.which == "counitary":
        report = _demo_counitary(args.seed, args.tol_scale)
    else:
        raise UsageError(f"unknown demo {args.which!r}")
    _print_demo_tables(report)
    return _finish(report, args)


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qreduce",
        description="Quaternionic operator toolkit: verify module properties, "
                    "classify operator algebras, reduce complex-induced "
                    "systems to their component space.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=42, help="master RNG seed")
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
    p_demo.add_argument("which", choices=["adler", "counitary"])
    p_demo.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.tol_scale = _tol_scale(args)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(json.dumps({"command": args.command, "status": "error",
                          "error": "usage", "message": str(exc),
                          "checks": [], "artifacts": {}}, sort_keys=True))
        return 2
    except QReduceError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        print(json.dumps({"command": args.command, "status": "error",
                          "error": type(exc).__name__, "message": str(exc),
                          "checks": [], "artifacts": {}}, sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
