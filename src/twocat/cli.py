"""Command-line surface: construction summaries, homology queries, and the
bundled verification suites.

Exit codes: 0 all checks pass, 1 verification failure, 2 input error.
A construction command asks `verify.Gates` for the one gate on its input,
the same gate the suites use, before it builds anything.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from importlib import resources

from .core import TwoCatError, identity_functor, validate, validate_diagram
from .comma import OVER, UNDER, comma
from .grothendieck import grothendieck
from .hocolim import hocolim
from .homology import homology, normalized_chain_complex
from .manifest import Manifest, ManifestError, parse
from .nerves import diag_nn, is_category, nerve_category, wbar_double_nerve
from .simplicial import BudgetError, simplex_budget
from .verify import LEAST_TRUNC, SUITES, Gates, run_suite


def bundled_manifest_path():
    return resources.files("twocat").joinpath("data/corpus.manifest.json")


def load_manifest(args) -> Manifest:
    path = args.manifest or str(bundled_manifest_path())
    return parse(path)


def emit(args, report: dict) -> int:
    text = json.dumps(report, indent=1, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if report.get("status", "pass") == "pass" else 1


def _input_error(message: str) -> int:
    print(json.dumps({"status": "input-error", "errors": [message]}))
    return 2


def _require(m: Manifest, kind: str, name: str):
    pool = getattr(m, kind)
    if name not in pool:
        raise ManifestError([f"no {kind} entry named {name!r}"])
    return pool[name]


def cmd_validate(args):
    m = load_manifest(args)
    checks = []
    names = [args.name] if args.name else sorted(m.two_categories)
    for name in names:
        rep = validate(_require(m, "two_categories", name))
        checks.append({"name": f"validate[{name}]",
                       "status": "pass" if rep.ok else "fail",
                       "detail": "ok" if rep.ok else "; ".join(map(str, rep.violations[:5]))})
    for name in (sorted(m.diagrams) if not args.name else []):
        rep = validate_diagram(m.diagrams[name])
        checks.append({"name": f"diagram[{name}]",
                       "status": "pass" if rep.ok else "fail",
                       "detail": "ok" if rep.ok else "; ".join(map(str, rep.violations[:5]))})
    status = "pass" if all(c["status"] == "pass" for c in checks) else "fail"
    return emit(args, {"suite": "validate", "truncation": args.trunc,
                       "checks": checks, "status": status})


def _report(args, suite, names, bad, checks):
    """The command's report, one check per name in `names`.  If `bad`, the
    `precondition:` detail of a failed gate, every check fails with it and
    nothing is built; otherwise `checks()` gives each check's (status,
    detail)."""
    results = [("fail", bad)] * len(names) if bad else checks()
    return emit(args, {"suite": suite, "truncation": args.trunc,
                       "checks": [{"name": name, "status": status, "detail": detail}
                                  for name, (status, detail) in zip(names, results)],
                       "status": "pass" if all(s == "pass" for s, _ in results) else "fail"})


def _levels(args, suite, build):
    """The level sizes of build(C, truncation), C the named 2-category."""
    C = _require(load_manifest(args), "two_categories", args.name)
    return _report(args, suite, [f"levels[{args.name}]"], Gates().category(C),
                   lambda: [("pass", str(build(C, args.trunc).sizes()))])


def cmd_nerve(args):
    return _levels(args, "nerve", lambda C, n: (nerve_category if is_category(C)
                                                 else diag_nn)(C, n))


def cmd_wbar(args):
    return _levels(args, "wbar", wbar_double_nerve)


def cmd_diag(args):
    return _levels(args, "diag", diag_nn)


def cmd_groth(args):
    D = _require(load_manifest(args), "diagrams", args.name)

    def checks():
        G = grothendieck(D)
        rep = validate(G)
        return [("pass", f"cells {G.counts()}") if rep.ok
                else ("fail", "; ".join(map(str, rep.violations[:5])))]

    return _report(args, "groth", [f"groth[{args.name}]"], Gates().diagram(D), checks)


def cmd_hocolim(args):
    D = _require(load_manifest(args), "diagrams", args.name)
    return _report(args, "hocolim", [f"hocolim[{args.name}]"], Gates().diagram(D),
                   lambda: [("pass", str([L.counts() for L in hocolim(D, args.trunc).levels]))])


def _comma(m: Manifest, parts):
    """(F, OBJECT, SIDE) of parts = [FUNCTOR, OBJECT, SIDE], FUNCTOR a
    functor name or id:CAT.  A malformed spec, a side other than over or
    under, or an object not in the functor's target is an input error."""
    if len(parts) != 3:
        raise ManifestError([f"--comma {':'.join(parts)!r} is not FUNCTOR:OBJECT:SIDE"])
    functor, obj, side = parts
    F = (identity_functor(_require(m, "two_categories", functor[3:]))
         if functor.startswith("id:") else _require(m, "two_functors", functor))
    if side not in (OVER, UNDER):
        raise ManifestError([f"comma side {side!r} is neither {OVER} nor {UNDER}"])
    if obj not in F.target.objects:
        raise ManifestError([f"no object {obj!r} in {F.target.name}, the target of {functor}"])
    return F, obj, side


def cmd_comma(args):
    F, obj, side = _comma(load_manifest(args), [args.functor, args.object, args.side])

    def checks():
        K = comma(F, obj, side)
        return [("pass" if validate(K).ok else "fail", f"cells {K.counts()}")]

    return _report(args, "comma", [f"comma[{args.functor},{args.object},{args.side}]"],
                   Gates().functor(F), checks)


def cmd_homology(args):
    m = load_manifest(args)
    if args.comma:
        F, obj, side = _comma(m, args.comma.rsplit(":", 2))
        bad, label = Gates().functor(F), args.comma
        build = lambda: comma(F, obj, side)
    else:
        C = _require(m, "two_categories", args.name)
        bad, label = Gates().category(C), args.name
        build = lambda: C
    degrees = [args.degree] if args.degree is not None else list(range(args.trunc))

    def checks():
        cc = normalized_chain_complex(diag_nn(build(), args.trunc))
        return [("pass", str(homology(cc, i))) for i in degrees]

    return _report(args, "homology", [f"H_{i}[{label}]" for i in degrees], bad, checks)


def cmd_verify(args):
    m = load_manifest(args)
    return emit(args, run_suite(m, args.suite, args.trunc))


def _least_trunc(args) -> tuple:
    """(least truncation, what needs it) for the homology the command
    claims; (0, None) when it claims none."""
    if args.command == "homology":
        return 1, "homology"
    if args.command == "verify" and args.suite in LEAST_TRUNC:
        return LEAST_TRUNC[args.suite], f"verify {args.suite}"
    return 0, None


def main(argv=None) -> int:
    # the global options go before or after the subcommand; with suppressed
    # defaults, a subcommand that is not given one keeps the value before it
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--manifest", help="manifest path (default: bundled corpus)")
    common.add_argument("--trunc", type=int,
                        help="truncation bound (suite defaults: 3 for isos, 4 for homology)")
    common.add_argument("--out", help="write the JSON report to this path")
    common.add_argument("--budget", type=int,
                        help="abort when any simplex level exceeds this size")
    ap = argparse.ArgumentParser(prog="twocat", parents=[common],
                                 description="Finite strict 2-category toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    add_parser = functools.partial(sub.add_parser, parents=[common])

    p = add_parser("validate", help="validate named 2-categories and diagrams")
    p.add_argument("--name")
    p.set_defaults(fn=cmd_validate, default_trunc=3)

    for cname, fn in (("nerve", cmd_nerve), ("wbar", cmd_wbar), ("diag", cmd_diag)):
        p = add_parser(cname, help=f"{cname} level sizes of a named 2-category")
        p.add_argument("--name", required=True)
        p.set_defaults(fn=fn, default_trunc=3)

    p = add_parser("groth", help="assemble a named diagram and validate it")
    p.add_argument("--name", required=True)
    p.set_defaults(fn=cmd_groth, default_trunc=3)

    p = add_parser("hocolim", help="level summaries of the colimit of a named diagram")
    p.add_argument("--name", required=True)
    p.set_defaults(fn=cmd_hocolim, default_trunc=3)

    p = add_parser("comma", help="homotopy fibre of a named 2-functor")
    p.add_argument("--functor", required=True,
                   help="functor name, or id:CAT for an identity")
    p.add_argument("--object", required=True)
    p.add_argument("--side", choices=(OVER, UNDER), default=OVER)
    p.set_defaults(fn=cmd_comma, default_trunc=3)

    p = add_parser("homology", help="truncated integral homology of a diagonal nerve")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--name", help="2-category name")
    which.add_argument("--comma", help="FUNCTOR:OBJECT:SIDE (FUNCTOR may be id:CAT)")
    p.add_argument("--degree", type=int)
    p.set_defaults(fn=cmd_homology, default_trunc=4)

    p = add_parser("verify", help="run a bundled verification suite")
    p.add_argument("suite", nargs="?", choices=SUITES, default="all")
    p.set_defaults(fn=cmd_verify, default_trunc=None)

    args = ap.parse_args(argv, argparse.Namespace(manifest=None, trunc=None,
                                                  out=None, budget=None))
    if args.trunc is None:
        args.trunc = getattr(args, "default_trunc", 3)
    if args.trunc is not None and args.trunc < 0:
        return _input_error(f"--trunc {args.trunc} is negative")
    degree = getattr(args, "degree", None)
    if degree is not None and not 0 <= degree < args.trunc:
        return _input_error(f"--degree {degree} outside 0..{args.trunc - 1}")
    least, what = _least_trunc(args)
    if args.trunc is not None and args.trunc < least:
        return _input_error(f"--trunc {args.trunc} is below {least}, the least "
                            f"truncation for {what}")
    try:
        with simplex_budget(args.budget):
            return args.fn(args)
    except ManifestError as exc:
        print(json.dumps({"status": "input-error", "errors": exc.errors[:20]},
                         indent=1, sort_keys=True))
        return 2
    except (BudgetError, FileNotFoundError) as exc:
        return _input_error(str(exc))
    except TwoCatError as exc:
        print(json.dumps({"status": "fail", "errors": [str(exc)]}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
