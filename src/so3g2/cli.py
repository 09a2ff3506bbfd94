"""Command line front end.

Subcommands: classify, curvature, flow, bs-metric, endpoints, contract,
verify.  Each takes only the flags it honours: `--output` on the six
commands that emit a result, `--format csv` on the tabular ones (flow,
bs-metric), `--seed` and `--n-samples` on verify, where they replace
the defaults of the sampled suites.  Rational inputs are accepted as
"p/q" strings so the exact pipeline stays exact end to end; every
number must be finite.  Exit codes: 0 success, 1 verification failure,
2 usage error.  Each warning is printed to stderr as one "warning: ..."
line.

main() reuses one parser per process and resolves the command's cmd_*
function by name at call time.  `so3g2 --help` shows the paragraphs above.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np

from .binaryform import BinaryForm, discriminant, resultant
from .curvature import levi_civita_oracle
from .flow import (
    InvalidEndpoint,
    Line,
    endpoint_classify,
    endpoint_of_term,
    contraction_field,
    halfflat_contraction_planes,
    line_cubic,
    lowest_term,
    clock_detg,
    plane_is_invariant,
)
from .g2 import assemble_g2, bs_metric
from .variety import (
    ModelPoint,
    classify,
    killing_det,
    structure_constants,
    torsion_of,
)
from .verify import ALL_SUITES, KNOWN_DEFECT_SUITES, SAMPLED_SUITES, run_all


def parse_scalar(text: str):
    """Parse a finite scalar, keeping exact rationals exact."""
    text = text.strip()
    try:
        if "/" in text or ("." not in text and "e" not in text.lower()):
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(f"not a finite number: {text!r}")
    return val


def parse_vector(text: str, n: int | None = None):
    vals = [parse_scalar(v) for v in text.split(",")]
    if n is not None and len(vals) != n:
        raise ValueError(f"expected {n} comma-separated values, got {len(vals)}: {text!r}")
    return vals


def positive_float(text: str) -> float:
    val = float(text)
    if not (math.isfinite(val) and val > 0):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return val


def positive_int(text: str) -> int:
    val = int(text)
    if val < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return val


def _emit(data, output=None, fmt="json"):
    """Write a JSON payload, or its rows as CSV when fmt is "csv".

    Exact values print with all their digits: CPython's limit on the
    digits of an int -> str conversion is lifted while the payload is
    written (a determinant of a 400-digit point has about 4800).
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with open(output, "w", newline="") if output else contextlib.nullcontext(sys.stdout) as fh:
            if fmt == "csv":
                writer = csv.writer(fh)
                writer.writerow(data["columns"])
                writer.writerows(data["rows"])
            else:
                json.dump(data, fh, indent=2, default=_json_default)
                fh.write("\n")
    finally:
        sys.set_int_max_str_digits(limit)
    if output:
        print(f"wrote {Path(output)}")


def _json_default(obj):
    if isinstance(obj, Fraction):
        return str(obj) if obj.denominator != 1 else obj.numerator
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def _model_point(args) -> ModelPoint:
    x = parse_vector(args.x, 2)
    y = parse_vector(args.y, 3)
    m = ModelPoint.make(x, y)
    if m.is_zero():
        raise SystemExit2("model point must have nonzero factors")
    return m


class SystemExit2(SystemExit):
    def __init__(self, msg):
        print(f"error: {msg}", file=sys.stderr)
        super().__init__(2)


def cmd_classify(args) -> int:
    m = _model_point(args)
    cls = classify(m)
    d = structure_constants(m)
    tor = torsion_of(m)
    l1, l2, l3, l4 = tor.coeffs
    report = {
        "class": cls.name,
        "label": cls.value,
        "delta": discriminant(m.y),
        "resultant": resultant(m.x, m.y),
        "detKilling": killing_det(d),
        "torsion": list(tor.coeffs),
        "half_flat": l2 == l4,
        "hermitian": l2 == l4 and l1 == l3,
    }
    _emit(report, args.output)
    return 0


def cmd_curvature(args) -> int:
    m = _model_point(args)
    rep = levi_civita_oracle(structure_constants(m).to_float())
    _emit(rep.to_json(), args.output)
    return 0


def cmd_flow(args) -> int:
    if args.g2_samples and args.format == "csv":
        raise SystemExit2("--g2-samples has no CSV form; use --format json")
    p = BinaryForm(3, parse_vector(args.p, 4))
    q0 = BinaryForm(3, parse_vector(args.q0, 4))
    line = Line(q0, p)
    k, sign = lowest_term(line)
    if (k, sign) != (0, 1):
        # admissible endpoints may start the flow; anything else is refused
        try:
            endpoint_of_term(k, sign, q0)
        except InvalidEndpoint as exc:
            raise SystemExit2(f"initial data is not admissible: {exc}")
    # Delta > 0 next to s = 0 on the side of the sign of its lowest term
    direction = args.direction or sign
    # a boundary root is passed as the end itself, so the clock sees its multiplicity
    hit = line.boundary(direction * args.s_max)
    s_end = direction * args.s_max if hit is None else hit
    svals = [s_end * (i + 1) / args.steps for i in range(args.steps - 1)] + [s_end]
    rows = []
    # s is a float, so every row is a float cubic: take the line in floats
    q0_f, p_f = q0.to_float(), p.to_float()
    times = line.times(svals).tolist()
    for s, t in zip(svals, times):
        q = line_cubic(q0_f, p_f, s)
        disc = float(discriminant(q))
        rows.append([s, t] + [float(v) for v in q.coeffs] + [clock_detg(disc), disc])
    endpoint_report = {}
    if hit is not None:
        # Delta > 0 on the side the line comes from, so the lowest term of
        # an even root is positive
        try:
            endpoint_report = endpoint_of_term(dict(line.roots)[hit], 1, line.cubic(hit)).to_json()
        except InvalidEndpoint as exc:
            endpoint_report = {"kind": "not attained", "reason": str(exc)}
    data = {
        "columns": ["s", "t", "q1", "q2", "q3", "q4", "detg", "Delta"],
        "rows": rows,
        "p": [str(v) for v in p.coeffs],
        "q0": [str(v) for v in q0.coeffs],
        "endpoint": endpoint_report,
    }
    if args.g2_samples:
        # a boundary root has no frame, nor has a row whose float Delta is not
        # positive (rounding next to a root): the G2 samples stop before either
        n = next((i for i, row in enumerate(rows) if row[0] == hit or row[7] <= 0), len(rows))
        data["g2_samples"] = assemble_g2(line._frames(svals[:n], times[:n])).to_json()
    _emit(data, args.output, args.format)
    return 0


def cmd_bs_metric(args) -> int:
    zs = parse_vector(args.z)
    rows = []
    for z in zs:
        m = bs_metric(args.lam, float(z))
        rows.append([float(z), m[0, 0], m[3, 3]])
    _emit({"columns": ["z", "base_coefficient", "fibre_coefficient"], "rows": rows},
          args.output, args.format)
    return 0


def cmd_endpoints(args) -> int:
    p = BinaryForm(3, parse_vector(args.p, 4))
    q = BinaryForm(3, parse_vector(args.q, 4))
    try:
        info = endpoint_classify(p, q)
    except InvalidEndpoint as exc:
        _emit({"valid": False, "reason": str(exc)}, args.output)
        return 1
    _emit({"valid": True, **info.to_json()}, args.output)
    return 0


def cmd_contract(args) -> int:
    gen = (parse_scalar(args.a), parse_scalar(args.b), parse_scalar(args.c))
    lam = BinaryForm(3, parse_vector(args.lam, 4)) if args.lam else None
    data = {
        "generator": [str(v) for v in gen],
        "invariant_halfflat_plane": plane_is_invariant(*gen),
    }
    if lam is not None:
        data["field_value"] = [str(v) for v in contraction_field(*gen, lam).coeffs]
    if args.planes:
        data["planes"] = [
            {"generator": list(g), "basis": [[str(v) for v in vec] for vec in basis]}
            for g, basis in halfflat_contraction_planes()
        ]
    _emit(data, args.output)
    return 0


def cmd_verify(args) -> int:
    sampling_set = args.seed is not None or args.n_samples is not None
    if args.suite and args.suite not in SAMPLED_SUITES and sampling_set:
        raise SystemExit2(f"suite {args.suite} draws no samples; "
                          "--seed and --n-samples do not apply")
    if args.perturb_jacobi and args.suite not in (None, "jacobi"):
        raise SystemExit2("--perturb-jacobi applies only to the jacobi suite")
    names = [args.suite] if args.suite else None
    results = run_all(names=names, seed=args.seed, n_samples=args.n_samples,
                      perturb_jacobi=args.perturb_jacobi)
    failures = 0
    for res in results:
        note = ""
        if res.name in KNOWN_DEFECT_SUITES and not res.passed:
            note = "  (known defect, see LEDGER.md; not counted)"
        print(res.line() + note)
        if not res.passed and res.name not in KNOWN_DEFECT_SUITES:
            failures += 1
    return 1 if failures else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The shared parser of this process, built on first use; do not mutate it."""
    ap = argparse.ArgumentParser(prog="so3g2", description=__doc__.rpartition("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)

    def sub_parser(name, fmt=False, **kw):
        c = sub.add_parser(name, **kw)
        c.add_argument("--output", help="write the result to this path")
        if fmt:
            c.add_argument("--format", choices=("json", "csv"), default="json")
        return c

    c = sub_parser("classify", help="classify a model point")
    c.add_argument("--x", required=True, help="x1,x2")
    c.add_argument("--y", required=True, help="y1,y2,y3")

    c = sub_parser("curvature", help="curvature report of a model point")
    c.add_argument("--x", required=True)
    c.add_argument("--y", required=True)

    c = sub_parser("flow", fmt=True,
                   help="integrate the closed-form evolution line")
    c.add_argument("--p", required=True, help="torsion direction p1,p2,p3,p4")
    c.add_argument("--q0", required=True, help="initial cubic q1,q2,q3,q4")
    c.add_argument("--s-max", type=positive_float, default=4.0)
    c.add_argument("--steps", type=positive_int, default=80)
    c.add_argument("--direction", type=int, choices=(-1, 0, 1), default=0,
                   help="line direction; 0 takes the side where the discriminant "
                        "is positive next to q0, decided exactly")
    c.add_argument("--g2-samples", action="store_true")

    c = sub_parser("bs-metric", fmt=True,
                   help="complete-metric coefficients at z values")
    c.add_argument("--lam", type=positive_float, default=1.0)
    c.add_argument("--z", required=True, help="comma separated z values")

    c = sub_parser("endpoints", help="classify a boundary cubic")
    c.add_argument("--p", required=True)
    c.add_argument("--q", required=True)

    c = sub_parser("contract", help="contraction generators and planes")
    c.add_argument("--a", default="1")
    c.add_argument("--b", default="0")
    c.add_argument("--c", default="0")
    c.add_argument("--lam", help="evaluate the generator field at this cubic")
    c.add_argument("--planes", action="store_true")

    c = sub.add_parser("verify", help="run the verification suites")
    c.add_argument("--suite", choices=list(ALL_SUITES), help="run a single suite by name")
    c.add_argument("--seed", type=int, default=None,
                   help="seed of the sampled suites (default: each suite's own)")
    c.add_argument("--n-samples", type=positive_int, default=None,
                   help="sample count of the sampled suites (default: each suite's own)")
    c.add_argument("--perturb-jacobi", action="store_true",
                   help="negative control: perturb structure constants")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a rebound cmd_* (a stub, a tracing wrapper) is the one run
    cmd = globals()["cmd_" + args.command.replace("-", "_")]
    with warnings.catch_warnings(record=True) as caught:
        try:
            code = cmd(args)
            sys.stdout.flush()
            return code
        except BrokenPipeError:
            # a reader that closed stdout (`| head`) is no error; stdout now
            # points at devnull, so the flush at exit writes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 0
        except (ValueError, InvalidEndpoint, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            for w in caught:
                print(f"warning: {w.message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
