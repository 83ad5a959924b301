"""Workload definitions: inputs made from the benchmark seed, the op
sequence each workload runs through `qreduce.cli.main`, and the oracle that
judges every op's output.

The planted systems for `cli-n8` are built here with plain numpy, not with
`qreduce.sampling`, so the inputs and the expected verdicts do not depend on
the program under test.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("verify-small", "verify-n8", "cli-n8")

# Full-size settings.  `verify-small` is the default dims at a trial count
# where per-call overhead dominates; `verify-n8` is `--dims 8`, where the n=8
# commutant SVD (trichotomy) and `generated_algebra` (bicommutant) each take
# about half the time; `cli-n8` is a pass of 50 classify/reduce calls on n=8
# files, 10 of each kind, repeated until at least `min_ops` calls are timed.
FULL = {
    "verify-small": {"dims": "2,3,4", "trials": 25},
    "verify-n8": {"dims": "8", "trials": 10},
    "cli-n8": {"n": 8, "per_kind": 10, "min_ops": 100},
}
# Settings for the benchmark's own smoke test.
TINY = {
    "verify-small": {"dims": "2", "trials": 1},
    "verify-n8": {"dims": "3", "trials": 1},
    "cli-n8": {"n": 3, "per_kind": 1},
}

KINDS = ("proper", "complex", "real", "reducible", "reduce")
PLANTED = {"proper": ("ProperQuaternionic", 1),
           "complex": ("ComplexInduced", 2),
           "real": ("RealInduced", 4),
           "reducible": (None, 2)}


@dataclass
class Op:
    """One call of `qreduce.cli.main(argv)` and what its output must be."""

    argv: list[str]
    kind: str
    n: int = 0


@dataclass
class Verdict:
    """Oracle outcome of one op: units attempted and failed, and notes."""

    attempted: int
    failed: int
    notes: list[str] = field(default_factory=list)
    checks_total: int = 0
    stdout_sha256: str | None = None
    exercised_dims: dict | None = None


# ---------------------------------------------------------------------------
# quaternion helpers for planting (layout [w, x, y, z], e1 e2 = +e3)


def _mul(a, b):
    aw, ax, ay, az = (a[..., k] for k in range(4))
    bw, bx, by, bz = (b[..., k] for k in range(4))
    return np.stack([aw * bw - ax * bx - ay * by - az * bz,
                     aw * bx + ax * bw + ay * bz - az * by,
                     aw * by - ax * bz + ay * bw + az * bx,
                     aw * bz + ax * by - ay * bx + az * bw], axis=-1)


def _conj(a):
    return a * [1.0, -1.0, -1.0, -1.0]


def _matmul(a, b):
    return _mul(a[:, :, None, :], b[None, :, :, :]).sum(axis=1)


def _adjoint(a):
    return _conj(a).transpose(1, 0, 2)


def _unitary(rng, n):
    """Quaternionic unitary: Gram-Schmidt on the columns of a random matrix
    (vectors are columns, scalars act on the right)."""
    cols = rng.standard_normal((n, n, 4)).transpose(1, 0, 2)   # cols[k] = column k
    basis = []
    for v in cols:
        for u in basis:
            coeff = _mul(_conj(u), v).sum(axis=0)               # <u, v>
            v = v - _mul(u, coeff[None, :])
        basis.append(v / np.sqrt((v * v).sum()))
    return np.stack(basis).transpose(1, 0, 2)


def _lift(real, imag=None):
    """Quaternion matrix with entries real + imag * e1."""
    data = np.zeros(real.shape + (4,))
    data[..., 0] = real
    if imag is not None:
        data[..., 1] = imag
    return data


def plant(rng, kind: str, n: int) -> list:
    """Two generators (n, n, 4) of a system of the given planted kind."""
    if kind == "proper":
        return [rng.standard_normal((n, n, 4)) for _ in range(2)]
    if kind == "reducible":
        k = int(rng.integers(1, n // 2 + 1))
        gens = []
        for _ in range(2):
            g = np.zeros((n, n, 4))
            g[:k, :k] = rng.standard_normal((k, k, 4))
            g[k:, k:] = rng.standard_normal((n - k, n - k, 4))
            gens.append(g)
        return gens
    w = _unitary(rng, n)
    gens = []
    for _ in range(2):
        if kind == "real":
            inner = _lift(rng.standard_normal((n, n)))
        else:   # complex-induced, for classify and for reduce
            inner = _lift(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
        gens.append(_matmul(_matmul(w, inner), _adjoint(w)))
    return gens


def write_cli_inputs(workdir: Path, seed: int, n: int, per_kind: int) -> list[dict]:
    """Write the `cli-n8` input files; returns the op manifest in run order."""
    rng = np.random.default_rng([seed, 8])
    workdir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for kind in KINDS:
        for idx in range(per_kind):
            gens = plant(rng, kind, n)
            path = workdir / f"{kind}-{idx:03d}.json"
            payload = {"n": n, "generators": [
                {"n": n, "entries": g.tolist()} for g in gens]}
            path.write_text(json.dumps(payload))
            manifest.append({"kind": kind, "path": str(path), "n": n})
    order = rng.permutation(len(manifest))
    return [manifest[k] for k in order]


# ---------------------------------------------------------------------------
# op sequences


def build_ops(workload: str, seed: int, settings: dict,
              manifest: list[dict] | None = None) -> list[Op]:
    if workload in ("verify-small", "verify-n8"):
        argv = ["verify", "--seed", str(seed), "--dims", settings["dims"],
                "--trials", str(settings["trials"])]
        return [Op(argv, "verify")]
    if workload == "cli-n8":
        ops = []
        for entry in manifest:
            command = "reduce" if entry["kind"] == "reduce" else "classify"
            ops.append(Op([command, entry["path"]], entry["kind"], entry["n"]))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# oracle


def _parse(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


def judge(op: Op, exit_code, stdout: str, error: str | None = None) -> Verdict:
    """Compare one op's exit code and JSON report with what must hold."""
    report = _parse(stdout) if error is None else None
    if op.kind == "verify":
        return _judge_verify(exit_code, stdout, report, error)
    notes = []
    if error is not None:
        notes.append(f"raised {error}")
    elif not isinstance(report, dict):
        notes.append("stdout is not a JSON object")
    elif op.kind == "reduce":
        notes += _reduce_mismatches(exit_code, report, op.n)
    elif op.kind == "reducible":
        notes += _reducible_mismatches(exit_code, report)
    else:
        notes += _classify_mismatches(exit_code, report, *PLANTED[op.kind])
    where = f"{op.kind} {Path(op.argv[-1]).name}"
    return Verdict(1, 1 if notes else 0, [f"{where}: {n}" for n in notes])


def _judge_verify(exit_code, stdout, report, error) -> Verdict:
    if error is not None or not isinstance(report, dict):
        return Verdict(1, 1, [f"verify raised {error}" if error
                              else "verify stdout is not a JSON object"])
    checks = report.get("checks") or []
    failed = sum(1 for c in checks if not c.get("pass"))
    notes = [f"check failed: {c.get('name')}" for c in checks
             if not c.get("pass")]
    if exit_code != 0 or report.get("status") != "pass" or not checks:
        notes.append(f"verify exit {exit_code}, status "
                     f"{report.get('status')!r}, {len(checks)} checks")
        failed = max(failed, 1)
    dims: dict[str, set] = {}
    for c in checks:
        prop, _, name = str(c.get("name")).partition("/")
        match = re.search(r"_n(\d+)$", name)
        if match:
            dims.setdefault(prop, set()).add(int(match.group(1)))
    return Verdict(max(len(checks), 1), failed, notes,
                   checks_total=len(checks),
                   stdout_sha256=hashlib.sha256(stdout.encode()).hexdigest(),
                   exercised_dims={k: sorted(v) for k, v in sorted(dims.items())})


def _classify_mismatches(exit_code, report, kind, dim) -> list[str]:
    notes = []
    verdict = (report.get("artifacts") or {}).get("classification") or {}
    if exit_code != 0 or report.get("status") != "pass":
        notes.append(f"exit {exit_code}, status {report.get('status')!r}")
    if verdict.get("kind") != kind:
        notes.append(f"kind {verdict.get('kind')!r}, planted {kind!r}")
    if verdict.get("commutant_dim") != dim:
        notes.append(f"commutant_dim {verdict.get('commutant_dim')!r}, "
                     f"planted {dim}")
    return notes


def _reducible_mismatches(exit_code, report) -> list[str]:
    notes = []
    artifacts = report.get("artifacts") or {}
    if exit_code != 1:
        notes.append(f"exit {exit_code}, expected 1")
    if artifacts.get("reducibility_witness") is None:
        notes.append("no reducibility_witness")
    if artifacts.get("commutant_dim") != PLANTED["reducible"][1]:
        notes.append(f"commutant_dim {artifacts.get('commutant_dim')!r}, "
                     f"planted {PLANTED['reducible'][1]}")
    return notes


def _reduce_mismatches(exit_code, report, n) -> list[str]:
    notes = []
    checks = report.get("checks") or []
    if exit_code != 0 or report.get("status") != "pass":
        notes.append(f"exit {exit_code}, status {report.get('status')!r}")
    if not checks or not all(c.get("pass") for c in checks):
        notes.append("not every certificate passed")
    gens = (report.get("artifacts") or {}).get("restricted_generators") or []
    if not gens:
        notes.append("no restricted generators")
    for g in gens:
        re_part, im_part = g.get("re") or [], g.get("im") or []
        if not (len(re_part) == n and all(len(r) == n for r in re_part)
                and len(im_part) == n and all(len(r) == n for r in im_part)):
            notes.append(f"restricted generator is not {n}x{n}")
            break
    return notes
