"""Command line interface.

Commands load category/algebra bundles, run the requested construction and
its validation, print a human-readable summary and optionally write a JSON
report.  Exit codes: 0 all checks passed, 1 checks failed, 2 I/O or parse
error, or an enumeration that cannot run as asked.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from .ctps import CtpsResult, alpha_pair, build_ctps, check_normality, trivial_pair
from .fusion import StructureError
from .induction import verify_algebra
from .io import BundleError, load_algebra, load_category, read_matrix, write_report
from .modular import check_modular_invariant, compute_st, enumerate_commutant
from .morphisms import UnsupportedOperationError, validate_category
from .qsystem import lr_qsystem, validate_qsystem

__all__ = ["main"]


def _finish(report: dict, args, t0: float) -> int:
    report["wall_time_s"] = round(time.time() - t0, 3)
    if getattr(args, "report", None):
        write_report(report, args.report)
    return 0 if report["pass"] else 1


def _print_residuals(residuals: dict, tol: float, limit=lambda name, tol: tol):
    for k, v in residuals.items():
        if v is None:
            print(f"  {k:20s} skipped")
        else:
            flag = "ok" if v < limit(k, tol) else "FAIL"
            print(f"  {k:20s} {v: .3e}  {flag}")


def cmd_verify_category(args) -> int:
    t0 = time.time()
    model = load_category(args.bundle)
    rep = validate_category(model, tol=args.tol)
    residuals = rep.residuals()
    print(f"category {model.name}: rank {model.rank}, braided {model.braided}")
    if not rep.fusion_ok:
        for code, where, msg in rep.fusion_violations:
            print(f"  fusion violation [{code}] {msg}")
    _print_residuals(residuals, args.tol)
    print(f"  pass: {rep.ok}")
    report = {
        "command": "verify-category",
        "inputs": {"bundle": str(args.bundle)},
        "tolerance": args.tol,
        "fusion_violations": [list(v[:2]) + [v[2]] for v in rep.fusion_violations],
        "residuals": residuals,
        "pass": bool(rep.ok),
    }
    return _finish(report, args, t0)


def cmd_lr_qsystem(args) -> int:
    t0 = time.time()
    model = load_category(args.bundle)
    q, D = lr_qsystem(model)
    rep = validate_qsystem(q, tol=args.tol)
    print(f"diagonal Q-system over {model.name}: d(theta) = {q.theta.d_theta:.10f}")
    _print_residuals(rep.residuals, args.tol)
    print(f"  irreducible: {rep.irreducible}")
    print(f"  pass: {rep.ok}")
    report = {
        "command": "lr-qsystem",
        "inputs": {"bundle": str(args.bundle)},
        "tolerance": args.tol,
        "d_theta": q.theta.d_theta,
        "residuals": rep.residuals,
        "irreducible": rep.irreducible,
        "pass": bool(rep.ok),
    }
    return _finish(report, args, t0)


def cmd_build_ctps(args) -> int:
    t0 = time.time()
    model = load_category(args.bundle)
    if not model.braided:
        raise BundleError("build-ctps needs a braided category bundle")
    signs = {"plus": +1, "minus": -1}
    if args.alg is None:
        if "trivial" not in (args.ext1, args.ext2) and (args.ext1, args.ext2) != ("plus", "minus"):
            print("note: without --alg both extensions are trivial", file=sys.stderr)
        pair = trivial_pair(model)
        alg_name = "trivial"
    else:
        if args.ext1 == "trivial" or args.ext2 == "trivial":
            raise BundleError("--ext1/--ext2 trivial is only meaningful without --alg")
        alg = load_algebra(args.alg, model)
        arep = verify_algebra(alg, tol=args.tol)
        if not arep.ok:
            print("algebra bundle fails the Q-system relations:")
            _print_residuals(arep.residuals, args.tol)
            report = {
                "command": "build-ctps",
                "inputs": {"bundle": str(args.bundle), "algebra": str(args.alg)},
                "tolerance": args.tol,
                "residuals": arep.residuals,
                "pass": False,
            }
            return _finish(report, args, t0) or 1
        pair = alpha_pair(alg, signs[args.ext1], signs[args.ext2])
        alg_name = str(args.alg)
    res = build_ctps(pair, tol=args.tol)
    skipped = []
    if res.commutativity is None:
        skipped.append("commutativity (chiral locality residual above tolerance)")
    print(f"coupling matrix Z (d(theta) = {res.theta.d_theta:.10f}):")
    for row in res.Z:
        print("   ", " ".join(f"{v:2d}" for v in row))
    _print_residuals(res.residuals(), args.tol, CtpsResult.limit)
    print(f"  normality: n2={res.normality.n2} n3={res.normality.n3} pi={res.normality.pi}")
    for s in skipped:
        print(f"  skipped: {s}")
    print(f"  pass: {res.ok}")
    report = {
        "command": "build-ctps",
        "inputs": {"bundle": str(args.bundle), "algebra": alg_name,
                   "ext1": args.ext1, "ext2": args.ext2},
        "tolerance": args.tol,
        "z_matrix": res.Z,
        "d_theta": res.theta.d_theta,
        "residuals": res.residuals(),
        "normality": res.normality.as_dict(),
        "skipped": skipped,
        "pass": bool(res.ok),
    }
    return _finish(report, args, t0)


def cmd_check_invariant(args) -> int:
    t0 = time.time()
    model = load_category(args.bundle)
    Z = read_matrix(args.matrix)
    if Z.shape != (model.rank, model.rank):
        raise BundleError(f"matrix shape {Z.shape} does not match rank {model.rank}")
    pair = compute_st(model)
    skipped = []
    if not pair.modular:
        print("warning: degenerate braiding, modular checks skipped", file=sys.stderr)
        residuals = {"ZS_SZ": None, "ZT_TZ": None}
        skipped.append("modular commutators (degenerate braiding)")
        ok = True
    else:
        residuals = check_modular_invariant(Z, pair)
        ok = all(v < args.tol for v in residuals.values())
    _print_residuals(residuals, args.tol)
    print(f"  pass: {ok}")
    report = {
        "command": "check-invariant",
        "inputs": {"bundle": str(args.bundle), "matrix": str(args.matrix)},
        "tolerance": args.tol,
        "z_matrix": Z,
        "residuals": residuals,
        "skipped": skipped,
        "pass": bool(ok),
    }
    return _finish(report, args, t0)


def cmd_enumerate_invariants(args) -> int:
    t0 = time.time()
    model = load_category(args.bundle)
    pair = compute_st(model)
    skipped = []
    if not pair.modular:
        print("warning: degenerate braiding, enumeration skipped", file=sys.stderr)
        found = []
        skipped.append("enumeration (degenerate braiding)")
    else:
        try:
            found = enumerate_commutant(pair, args.bound, tol=args.tol)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        for i, Z in enumerate(found):
            print(f"invariant {i}:")
            for row in Z:
                print("   ", " ".join(f"{v:2d}" for v in row))
            norm = check_normality(Z, model.fusion, model.fusion)
            print(f"    n2={norm.n2} n3={norm.n3} pi={norm.pi}")
    report = {
        "command": "enumerate-invariants",
        "inputs": {"bundle": str(args.bundle), "bound": args.bound},
        "tolerance": args.tol,
        "count": len(found),
        "invariants": [Z.tolist() for Z in found],
        "skipped": skipped,
        "pass": True,
    }
    return _finish(report, args, t0)


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite number above zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and above zero: {text!r}")
    return value


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qsys",
        description="Q-systems, alpha-induction and tensor-product subfactor checks "
                    "over fusion-category bundles.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, tol):
        sp.add_argument("bundle", help="category bundle (JSON)")
        sp.add_argument("--tol", type=_tolerance, default=tol, help=f"tolerance (default {tol:g})")
        sp.add_argument("--report", default=None, help="write a JSON report here")

    sp = sub.add_parser("verify-category", help="fusion axioms, pentagon/hexagon, duality")
    common(sp, 1e-9)
    sp.set_defaults(fn=cmd_verify_category)

    sp = sub.add_parser("lr-qsystem", help="build and validate the diagonal Q-system")
    common(sp, 1e-9)
    sp.set_defaults(fn=cmd_lr_qsystem)

    sp = sub.add_parser("build-ctps", help="two-chirality Q-system from an algebra bundle")
    common(sp, 1e-8)
    sp.add_argument("--alg", default=None, help="algebra bundle (JSON); omit for trivial extensions")
    sp.add_argument("--ext1", choices=["plus", "minus", "trivial"], default="plus")
    sp.add_argument("--ext2", choices=["plus", "minus", "trivial"], default="minus")
    sp.set_defaults(fn=cmd_build_ctps)

    sp = sub.add_parser("check-invariant", help="commutation of an integer matrix with S and T")
    common(sp, 1e-9)
    sp.add_argument("--matrix", required=True, help="integer grid file")
    sp.set_defaults(fn=cmd_check_invariant)

    sp = sub.add_parser("enumerate-invariants",
                        help="nonnegative integer matrices commuting with S and T")
    common(sp, 1e-9)
    sp.add_argument("--bound", type=int, default=3, help="max matrix entry")
    sp.set_defaults(fn=cmd_enumerate_invariants)
    return p


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (BundleError, StructureError, FileNotFoundError, UnsupportedOperationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
