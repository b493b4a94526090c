"""Command-line front end: tabulation, verification, spectra and transforms.

Reports are deterministic (no timestamps); identical configuration produces
byte-identical bodies.  Exit codes: 0 all checks pass, 2 verification
failure, 3 domain/configuration error, 4 precision (non-convergence) error.
"""

import argparse
import io
import json
import math
import os
import sys

from .context import QContext
from .errors import DomainError, PrecisionError
from . import qspecial
from .qarith import _qnum
from .basistrans import build_transform, completeness_check
from .relations import default_families, verify_relations, RELATION_GROUPS
from .repspace import casimir_eigenvalue, t2_block_levels

SCHEMA = "qspace3/1"


def _golden_forms(q):
    two = _qnum(2, q)
    three = _qnum(3, q)
    four = _qnum(4, q)
    five = _qnum(5, q)
    return {
        (0, 0): lambda x: 1.0,
        (1, 0): lambda x: x,
        (2, 0): lambda x: (three * x * x - q**-2) / (q * two),
        (3, 0): lambda x: x * (five * q * q * x * x - three) / (q**5 * two),
        (1, 1): lambda x: 1.0,
        (2, 1): lambda x: x,
        (3, 1): lambda x: (q**4 * five * x * x - 1.0) / (q**5 * four),
    }


_SHARED = {
    "--depth": dict(type=int, default=60,
                    help="lattice depth per truncated direction"),
    "--lmax": dict(type=int, default=40, help="largest Casimir label"),
    "--kwidth": dict(type=int, default=60, help="width of the m_k direction"),
    "--format": dict(choices=("json", "csv", "text"), default="json"),
}


def _shared(sub, tol, *flags):
    """--q, --tol (default tol), --out and the shared flags the verb reads."""
    sub.add_argument("--q", type=float, default=1.5,
                     help="deformation parameter (> 1)")
    sub.add_argument("--tol", type=float, default=tol,
                     help="pass/fail tolerance (default %(default)g)")
    for flag in flags:
        sub.add_argument(flag, **_SHARED[flag])
    sub.add_argument("--out", default=None,
                     help="output path (default stdout)")


def _build_parser():
    p = argparse.ArgumentParser(
        prog="qspace3",
        description="q-deformed special functions and operator verification "
                    "for the three-dimensional quantum Euclidean space")
    sp = p.add_subparsers(dest="verb", required=True)

    poly = sp.add_parser("poly", help="tabulate the polynomials and their "
                                      "weighted forms")
    poly.add_argument("--l", type=int, required=True)
    poly.add_argument("--m", type=int, required=True)
    points = poly.add_mutually_exclusive_group(required=True)
    points.add_argument("--x", type=str,
                        help="comma-separated evaluation points")
    points.add_argument("--lattice", action="store_true",
                        help="evaluate on the support lattice")
    poly.add_argument("--nmin", type=int,
                      help="deepest lattice index, read only with --lattice "
                           "(default -10)")
    poly.add_argument("--golden", action="store_true",
                      help="compare degree <= 3 values against closed forms")
    _shared(poly, 1e-12, "--format")

    ver = sp.add_parser("verify", help="run the relation suite")
    ver.add_argument("--relations", default="all",
                     help="all or comma-separated groups: "
                          + ",".join(RELATION_GROUPS))
    _shared(ver, 1e-10, "--depth", "--kwidth", "--format")

    spect = sp.add_parser("spectrum", help="emit eigenvalue tables")
    spect.add_argument("observable", choices=("x3", "r2", "t3", "t2"))
    spect.add_argument("--M", type=int, default=0)
    spect.add_argument("--z0", type=float, default=1.0)
    spect.add_argument("--sigma", type=int, default=1, choices=(1, -1))
    spect.add_argument("--m", type=int, default=0,
                       help="fixed total weight for the t2 block")
    _shared(spect, 1e-10, "--depth", "--lmax", "--kwidth", "--format")

    tr = sp.add_parser("transform", help="build a basis-transform table")
    tr.add_argument("--direction", type=int, required=True, choices=(1, 2))
    tr.add_argument("--m", type=int, required=True)
    tr.add_argument("--M", type=int, default=0)
    tr.add_argument("--z0", type=float, default=1.0)
    _shared(tr, 1e-6, "--depth", "--lmax")

    ortho = sp.add_parser("ortho", help="orthonormality defects of the "
                                        "weighted functions")
    ortho.add_argument("--m", type=int, required=True)
    ortho.add_argument("--lspan", type=int, default=6,
                       help="check degrees l, l' in [|m|, |m| + lspan]")
    _shared(ortho, 1e-8, "--depth", "--format")

    comp = sp.add_parser("complete", help="completeness defects of the "
                                          "weighted functions")
    comp.add_argument("--m", type=int, required=True)
    _shared(comp, 1e-5, "--lmax", "--format")
    return p


def _ctx(args):
    precision = os.environ.get("QSPACE3_PRECISION", "double")
    if precision not in ("double", "extended"):
        raise DomainError(
            f"QSPACE3_PRECISION must be double or extended, got {precision!r}")
    return QContext(q=args.q, tol_rel=args.tol, precision=precision)


def _emit(args, report, rows_key="rows"):
    body = _render(args.format, report, rows_key)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(body)
    else:
        sys.stdout.write(body)


def _render(fmt, report, rows_key):
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    rows = report.get(rows_key, [])
    if fmt == "csv":
        out = io.StringIO()
        import csv as _csv
        w = _csv.writer(out)
        if rows:
            cols = list(rows[0].keys())
            w.writerow(cols)
            for r in rows:
                w.writerow([_fmt_cell(r.get(c)) for c in cols])
        return out.getvalue()
    lines = []
    for k, v in report.items():
        if k == rows_key or isinstance(v, (list, dict)):
            continue
        lines.append(f"{k}: {_fmt_cell(v)}")
    if rows:
        cols = list(rows[0].keys())
        lines.append("\t".join(cols))
        for r in rows:
            lines.append("\t".join(_fmt_cell(r.get(c)) for c in cols))
    return "\n".join(lines) + "\n"


def _fmt_cell(v):
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _cmd_poly(args):
    ctx = _ctx(args)
    q = float(ctx.q)
    if args.lattice:
        nmin = -10 if args.nmin is None else args.nmin
        if nmin > 0:
            raise DomainError(f"--nmin must be <= 0, got {nmin}")
        xs = [qspecial._lattice_point(n, args.m, s, q)
              for n in range(0, nmin - 1, -1) for s in (1, -1)]
    elif args.nmin is not None:
        raise DomainError("--nmin is read only with --lattice")
    else:
        try:
            xs = [float(t) for t in args.x.split(",")]
        except ValueError as e:
            raise DomainError(f"--x takes numbers: {e}") from None
    golden = _golden_forms(q) if args.golden else None
    if golden is not None and (args.l, args.m) not in golden:
        raise DomainError(
            f"--golden covers degree <= 3 table entries, not "
            f"(l={args.l}, m={args.m})")
    rows = []
    worst = 0.0
    for x in xs:
        P = qspecial.p_lm(args.l, args.m, x, ctx)
        try:
            Pt = qspecial.p_tilde(args.l, args.m, x, ctx)
        except DomainError:
            Pt = None
        row = {"x": float(x), "P": float(P)}
        row["P_tilde"] = None if Pt is None else float(Pt)
        if golden is not None:
            g = float(golden[(args.l, args.m)](x))
            err = abs(float(P) - g) / max(1.0, abs(g))
            worst = max(worst, err)
            row["golden"] = g
            row["golden_rel_err"] = err
        rows.append(row)
    report = {"schema": SCHEMA, "verb": "poly", "q": q, "l": args.l,
              "m": args.m, "rows": rows}
    if golden is not None:
        report["max_golden_rel_err"] = worst
        report["pass"] = bool(worst < args.tol)
    _emit(args, report)
    if golden is not None and worst >= args.tol:
        return 2
    return 0


def _cmd_verify(args):
    ctx = _ctx(args)
    groups = "all" if args.relations == "all" \
        else tuple(args.relations.split(","))
    suite = default_families(ctx, n_depth=args.depth, k_width=args.kwidth)
    rep = verify_relations(suite, groups, ctx)
    report = rep.to_dict()
    report["verb"] = "verify"
    report["config"] = {"depth": args.depth, "kwidth": args.kwidth,
                        "groups": list(RELATION_GROUPS) if groups == "all"
                        else list(groups)}
    report["rows"] = report.pop("relations")
    _emit(args, report)
    return 0 if rep.passed else 2


def _check_z0(args, power):
    """DomainError (exit 3) unless --z0 of spectrum or transform is finite,
    and so is the largest level a verb derives from it, (|z0| q^(2M+1))^power:
    power 1 bounds X3 (eigenvalues sigma |z0| q^(2 nu), nu <= M) and the
    transform targets, power 2 the R2 level q^(4M+2) z0^2."""
    try:
        top = (abs(args.z0) * args.q**(2 * args.M + 1))**power
    except OverflowError:
        top = math.inf
    if not (math.isfinite(args.z0) and math.isfinite(top)):
        raise DomainError(
            f"--z0 must be finite with levels inside binary64, got "
            f"{args.z0} at --M {args.M}, --q {args.q}")


def _cmd_spectrum(args):
    ctx = _ctx(args)
    _check_z0(args, 2 if args.observable == "r2" else 1)
    q = float(ctx.q)
    rows = []
    if args.observable == "x3":
        for k in range(args.depth + 1):
            nu = args.M - k
            rows.append({"nu": nu,
                         "eigenvalue": args.sigma * abs(args.z0) * q**(2 * nu)})
    elif args.observable == "r2":
        for k in range(args.depth + 1):
            nu = args.M - k
            rows.append({"nu": nu,
                         "eigenvalue": q**(4 * args.M + 2) * args.z0**2})
    elif args.observable == "t3":
        lam = ctx.lam
        for mtot in range(-args.depth, args.kwidth + 1):
            rows.append({"m": mtot, "eigenvalue": (1 - q**(-4 * mtot)) / lam})
    else:
        levels = t2_block_levels(args.m, args.depth, ctx,
                                 n_levels=max(1, (args.lmax - abs(args.m)) // 2))
        for l, ev, rel in levels:
            rows.append({"l": l, "eigenvalue": ev,
                         "target": casimir_eigenvalue(l, ctx),
                         "rel_err": rel})
    if not rows:
        window = f"--depth {args.depth}" + (
            f" --kwidth {args.kwidth}" if args.observable == "t3" else "")
        raise DomainError(f"spectrum {args.observable} has no level in the "
                          f"window {window}")
    report = {"schema": SCHEMA, "verb": "spectrum",
              "observable": args.observable, "q": q, "M": args.M,
              "z0": args.z0, "rows": rows}
    _emit(args, report)
    return 0


def _cmd_transform(args):
    ctx = _ctx(args)
    _check_z0(args, 1)
    table = build_transform(args.direction, args.m, ctx, M=args.M,
                            l_max=args.lmax, depth=args.depth, z0=args.z0)
    summary = table.to_json_dict()
    summary["verb"] = "transform"
    summary["pass"] = bool(table.gram_defect < args.tol
                           and table.congruence_defect < args.tol)
    if args.out:
        with open(args.out + ".json", "w", encoding="utf-8") as fh:
            fh.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
        with open(args.out + ".csv", "w", encoding="utf-8", newline="") as fh:
            table.write_csv(fh)
        sys.stdout.write(json.dumps(
            {"gram_defect": table.gram_defect,
             "congruence_defect": table.congruence_defect,
             "files": [args.out + ".json", args.out + ".csv"]},
            sort_keys=True) + "\n")
    else:
        sys.stdout.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return 0 if summary["pass"] else 2


def _cmd_ortho(args):
    ctx = _ctx(args)
    if args.lspan < 0:
        raise DomainError(f"--lspan must be >= 0, got {args.lspan}")
    ls = list(range(args.m, args.m + args.lspan + 1))
    gram = qspecial._ortho_gram(ls, args.m, ctx, -args.depth)
    worst = 0.0
    rows = []
    for i, l in enumerate(ls):
        for j, lp in enumerate(ls):
            s = gram[i, j]
            d = float(abs(s - (1.0 if l == lp else 0.0)))
            worst = max(worst, d)
            rows.append({"l": l, "lp": lp, "sum": float(s), "defect": d})
    report = {"schema": SCHEMA, "verb": "ortho", "q": float(ctx.q),
              "m": args.m, "n_min": -args.depth, "max_defect": worst,
              "pass": bool(worst < args.tol), "rows": rows}
    _emit(args, report)
    return 0 if worst < args.tol else 2


def _cmd_complete(args):
    ctx = _ctx(args)
    rep = completeness_check(args.m, ctx, l_max=args.lmax)
    rep["verb"] = "complete"
    rep["pass"] = bool(rep["max_defect"] < args.tol)
    rep["rows"] = rep.pop("samples")
    _emit(args, rep)
    return 0 if rep["pass"] else 2


_DISPATCH = {
    "poly": _cmd_poly,
    "verify": _cmd_verify,
    "spectrum": _cmd_spectrum,
    "transform": _cmd_transform,
    "ortho": _cmd_ortho,
    "complete": _cmd_complete,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 3
    try:
        return _DISPATCH[args.verb](args)
    except DomainError as e:
        sys.stderr.write(f"domain error: {e}\n")
        return 3
    except OSError as e:              # an unwritable --out path
        sys.stderr.write(f"output error: {e}\n")
        return 3
    except PrecisionError as e:
        sys.stderr.write(f"precision error: {e}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
