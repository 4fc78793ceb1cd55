"""Command line front end.

Subcommands: homology, periods, novikov, check-inequalities, validate,
perturb.  Each takes a document, either a file path or the name of a
bundled corpus example.  Exit codes: 0 success, 1 usage or document
problems or a standard output closed before the report was written, 2
mathematical validation failures (including a failed inequality
verdict), 3 honest refusals (caps, rank two torsion).

Output is deterministic for fixed inputs and flags; --json switches to
a machine readable report with sorted keys.
"""

import argparse
import functools
import json
import os
import sys
from importlib import resources

from .actions import SimplicialAction, quotient_complex
from .cochains import descend_cochain, is_invariant
from .complexes import euler_characteristic, integer_homology
from .documents import format_fraction, load_document, loads_document
from .errors import (DocumentError, UnsupportedOperationError,
                     ValidationError)
from .inequalities import check_inequalities
from .nerve import identity_failures, nerve_model
from .periods import (H1Presentation, gamma_basis, is_integral,
                      period_homomorphism)
from .snf import smith_normal_form
from .twisted import (check_cover_degree, cyclic_cover_oracle, integralize,
                      novikov_numbers, rank1_perturb)

__all__ = ["main", "corpus_names", "resolve_document"]


def corpus_names():
    """Names of the bundled example documents."""
    root = resources.files("orbinov").joinpath("corpus")
    try:
        return sorted(entry.name[:-5] for entry in root.iterdir()
                      if entry.name.endswith(".json"))
    except FileNotFoundError:
        return []


def resolve_document(spec):
    """Load a document from a path, or from the corpus by name."""
    if os.path.exists(spec):
        return load_document(spec)
    if "/" not in spec and "\\" not in spec:
        candidate = resources.files("orbinov").joinpath(
            "corpus", spec + ".json")
        if candidate.is_file():
            return loads_document(candidate.read_text(encoding="utf-8"))
    raise DocumentError(
        "%r is neither a file nor a corpus example (corpus: %s)"
        % (spec, ", ".join(corpus_names())))


def _orbit_space(doc):
    """Orbit complex, subdivision stage count, and the map that moves a
    cocycle of the document down to the orbit complex."""
    if doc.action is None:
        return doc.space, None, lambda om: om
    qres = quotient_complex(doc.action)
    return qres.complex, qres.stages, lambda om: descend_cochain(qres, om)


def _emit(args, payload, lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print("\n".join(lines))


def cmd_homology(args):
    doc = resolve_document(args.document)
    X, stages, _ = _orbit_space(doc)
    ih = integer_homology(X)
    payload = {"command": "homology", "document": doc.name,
               "betti": list(ih.betti),
               "torsion": [list(t) for t in ih.torsion],
               "euler": euler_characteristic(X),
               "subdivision_stages": stages}
    lines = ["%s: integer homology of the orbit space" % (doc.name,)]
    if stages:
        lines.append("  (action regularized by %d subdivision%s)"
                     % (stages, "" if stages == 1 else "s"))
    for q, b in enumerate(ih.betti):
        extra = ""
        if ih.torsion[q]:
            extra = ", torsion %s" % (" ".join(str(d)
                                               for d in ih.torsion[q]),)
        lines.append("  degree %d: betti %d%s" % (q, b, extra))
    lines.append("  euler characteristic: %d" % (payload["euler"],))
    if args.transforms:
        blocks = {}
        for q in range(1, X.dim + 1):
            snf = smith_normal_form(X.boundary_matrix(q),
                                    shape=(X.n_cells(q - 1), X.n_cells(q)),
                                    want_transforms=True)
            S, _, T = snf.transforms
            blocks["boundary_%d" % (q,)] = {
                "diagonal": list(snf.diagonal),
                "row_transform": [list(r) for r in S],
                "col_transform": [list(r) for r in T]}
        payload["transforms"] = blocks
        lines.append("  transforms: included in --json output only")
    _emit(args, payload, lines)
    return 0


def cmd_periods(args):
    doc = resolve_document(args.document)
    om = doc.cochain(args.cocycle)
    X, _, down = _orbit_space(doc)
    ph = period_homomorphism(H1Presentation(X), down(om))
    basis = gamma_basis(ph)
    free = [om.space.format(p) for p in ph.free_periods()]
    payload = {"command": "periods", "document": doc.name,
               "cocycle": args.cocycle,
               "h1_free_rank": ph.h1.free_rank,
               "h1_torsion_orders": ph.h1.torsion_orders,
               "free_generator_periods": free,
               "gamma_basis": [[format_fraction(x) for x in vec]
                               for vec in basis],
               "rank": len(basis),
               "integral": is_integral(basis)}
    lines = ["%s, cocycle %s: periods" % (doc.name, args.cocycle),
             "  h1 free rank %d, torsion orders %r"
             % (payload["h1_free_rank"], payload["h1_torsion_orders"])]
    for per in free:
        lines.append("  free generator period: %s" % (per,))
    for vec in payload["gamma_basis"]:
        lines.append("  period lattice basis vector: %s" % (" ".join(vec),))
    lines.append("  rank: %d" % (payload["rank"],))
    lines.append("  integral: %s" % ("yes" if payload["integral"] else "no"))
    _emit(args, payload, lines)
    return 0


def _check_blocks(doc, numbers, lines):
    """Check the numbers against every critical block of the document.

    Appends the text report to lines; returns the json blocks by name
    and whether every block holds.
    """
    blocks = {}
    all_hold = True
    for name in doc.critical_names():
        report = check_inequalities(numbers, doc.critical(name))
        blocks[name] = {"mode": report.mode, "holds": report.holds,
                        "rows": [{"family": row.family, "degree": row.degree,
                                  "lhs": row.lhs, "rhs": row.rhs,
                                  "slack": row.slack, "ok": row.ok}
                                 for row in report.rows]}
        all_hold = all_hold and report.holds
        lines.append("  against %r (%s): %s"
                     % (name, report.mode,
                        "holds" if report.holds else "VIOLATED"))
        lines.extend("    %s" % (row,) for row in report.rows)
    return blocks, all_hold


def cmd_novikov(args):
    doc = resolve_document(args.document)
    om = doc.cochain(args.cocycle)
    _, _, down = _orbit_space(doc)
    numbers = novikov_numbers(down(om))
    payload = {"command": "novikov", "document": doc.name,
               "cocycle": args.cocycle, "rank": numbers.rank,
               "route": numbers.route,
               "integral": is_integral(numbers.lift.basis),
               "betti": list(numbers.betti),
               "torsion": (None if numbers.torsion is None
                           else list(numbers.torsion)),
               "note": numbers.note, "euler": numbers.euler()}
    lines = ["%s, cocycle %s: novikov numbers (rank %d, %s route)"
             % (doc.name, args.cocycle, numbers.rank, numbers.route)]
    for q, b in enumerate(numbers.betti):
        if numbers.torsion is None:
            lines.append("  degree %d: betti %d, torsion unavailable"
                         % (q, b))
        else:
            lines.append("  degree %d: betti %d, torsion %d"
                         % (q, b, numbers.torsion[q]))
    lines.append("  euler characteristic: %d" % (payload["euler"],))
    if numbers.note:
        lines.append("  note: %s" % (numbers.note,))
    payload["inequalities"], _ = _check_blocks(doc, numbers, lines)
    _emit(args, payload, lines)
    return 3 if numbers.rank >= 2 else 0


def cmd_check(args):
    doc = resolve_document(args.document)
    if not doc.critical_blocks:
        raise DocumentError("document %r carries no critical_data"
                            % (doc.name,))
    om = doc.cochain(args.cocycle)
    _, _, down = _orbit_space(doc)
    numbers = novikov_numbers(down(om))
    payload = {"command": "check-inequalities", "document": doc.name,
               "cocycle": args.cocycle, "rank": numbers.rank,
               "betti": list(numbers.betti),
               "torsion": (None if numbers.torsion is None
                           else list(numbers.torsion))}
    lines = ["%s, cocycle %s: inequality check"
             % (doc.name, args.cocycle)]
    payload["blocks"], payload["all_hold"] = _check_blocks(doc, numbers,
                                                           lines)
    lines.append("  verdict: %s"
                 % ("all hold" if payload["all_hold"] else "VIOLATED"))
    _emit(args, payload, lines)
    return 0 if payload["all_hold"] else 2


def cmd_validate(args):
    if args.cyclic is not None:
        check_cover_degree(args.cyclic)
    doc = resolve_document(args.document)
    qres = None
    checks = []

    def record(name, status, detail=""):
        checks.append({"check": name, "status": status, "detail": detail})

    for cname in doc.cocycle_names():
        label = "cocycle %s" % (cname,)
        try:
            om = doc.cochain(cname)
        except ValidationError as exc:
            record(label + ": closed", "fail", str(exc))
            continue
        record(label + ": closed", "pass")
        if qres is None:
            qres = quotient_complex(doc.action if doc.action is not None
                                    else SimplicialAction.trivial(doc.space))
        try:
            down = descend_cochain(qres, om)
        except ValidationError:
            # the descent is the basic-class test; a cochain that is
            # invariant and still fails to descend trips a result guard
            if doc.action is None or is_invariant(doc.action, om):
                raise
            record(label + ": invariant", "fail",
                   "some group element moves the cochain")
            continue
        if doc.action is not None:
            record(label + ": invariant", "pass")
        lift = integralize(down)
        model = nerve_model(qres, lift, depth=args.depth)
        fails = identity_failures(model)
        record(label + ": nerve identities (depth %d)" % (args.depth,),
               "fail" if fails else "pass", "; ".join(fails[:3]))
        if args.cyclic is not None:
            if lift.rank != 1:
                record(label + ": cyclic cover p=%d" % (args.cyclic,),
                       "skip", "rank %d class, oracle needs rank 1"
                       % (lift.rank,))
            else:
                check = cyclic_cover_oracle(lift, args.cyclic)
                record(label + ": cyclic cover p=%d" % (args.cyclic,),
                       "pass" if check.consistent else "fail",
                       "" if check.consistent
                       else "cover boundaries disagree")
    passed = all(c["status"] != "fail" for c in checks)
    payload = {"command": "validate", "document": doc.name,
               "depth": args.depth, "seed": args.seed,
               "cyclic": args.cyclic, "checks": checks, "passed": passed}
    lines = ["%s: validation (depth %d, seed %d)"
             % (doc.name, args.depth, args.seed)]
    for c in checks:
        line = "  [%s] %s" % (c["status"], c["check"])
        if c["detail"]:
            line += " (%s)" % (c["detail"],)
        lines.append(line)
    lines.append("  result: %s" % ("all checks pass" if passed
                                   else "FAILED"))
    _emit(args, payload, lines)
    return 0 if passed else 2


def cmd_perturb(args):
    doc = resolve_document(args.document)
    om = doc.cochain(args.cocycle)
    flat = rank1_perturb(om, precision=args.precision)
    key = doc.space.vertex_index.__getitem__
    edges = sorted(flat.values.items(),
                   key=lambda item: (key(item[0][0]), key(item[0][1])))
    spec = {"symbols": [], "shadows": {},
            "edges": [[u, v, [format_fraction(x) for x in vec]]
                      for (u, v), vec in edges]}
    payload = {"command": "perturb", "document": doc.name,
               "cocycle": args.cocycle, "precision": args.precision,
               "unchanged": flat is om, "result": spec}
    lines = ["%s, cocycle %s: rank one perturbation (precision %d)"
             % (doc.name, args.cocycle, args.precision)]
    if flat is om:
        lines.append("  already rank one with rational periods; unchanged")
    for u, v, vec in spec["edges"]:
        lines.append("  %s %s %s" % (u, v, " ".join(vec)))
    _emit(args, payload, lines)
    return 0


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def nonnegative(text):
    # argparse names this function in "invalid nonnegative value: 'x'"
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be at least 0, got %d"
                                         % (value,))
    return value


@functools.cache
def build_parser():
    """The argument parser, built once per process on first use."""
    parser = _Parser(
        prog="orbinov",
        description="Exact Novikov numbers and inequality checks for "
                    "finitely presented orbifolds.")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    document_help = ("document file or corpus name (%s)"
                     % (", ".join(corpus_names()) or "none bundled"))

    def add(name, func, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("document", help=document_help)
        p.add_argument("--json", action="store_true",
                       help="machine readable output")
        p.set_defaults(func=func)
        return p

    p = add("homology", cmd_homology,
            "integer homology of the orbit space")
    p.add_argument("--transforms", action="store_true",
                   help="retain the diagonalizing transforms (json only)")
    p = add("periods", cmd_periods,
            "period homomorphism of a named cocycle")
    p.add_argument("--class", dest="cocycle", required=True, metavar="NAME")
    p = add("novikov", cmd_novikov,
            "novikov betti and torsion numbers of a named cocycle")
    p.add_argument("--class", dest="cocycle", required=True, metavar="NAME")
    p = add("check-inequalities", cmd_check,
            "verify critical data against the novikov numbers")
    p.add_argument("--class", dest="cocycle", required=True, metavar="NAME")
    p = add("validate", cmd_validate,
            "document, identity, and cover oracle checks")
    p.add_argument("--depth", type=nonnegative, default=4,
                   help="nerve truncation depth (default 4)")
    p.add_argument("--cyclic", type=int, default=None, metavar="P",
                   help="also run the degree P cyclic cover oracle")
    p.add_argument("--seed", type=int, default=0,
                   help="unused: the identity check is exhaustive; kept so "
                        "existing command lines parse")
    p = add("perturb", cmd_perturb,
            "rational rank one stand-in for a higher rank cocycle")
    p.add_argument("--class", dest="cocycle", required=True, metavar="NAME")
    p.add_argument("--precision", type=nonnegative, default=6,
                   help="digits kept from each declared shadow (default 6)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early (say `| head -1`); what is left
        # in the buffer goes to devnull, so the interpreter's final
        # flush raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except DocumentError as exc:
        print("document error: %s" % (exc,), file=sys.stderr)
        return 1
    except ValidationError as exc:
        print("validation error: %s" % (exc,), file=sys.stderr)
        return 2
    except UnsupportedOperationError as exc:
        print("unsupported: %s" % (exc,), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
