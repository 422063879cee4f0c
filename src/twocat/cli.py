"""Command-line surface: construction summaries, homology queries, and the
bundled verification suites.

Exit codes: 0 all checks pass, 1 verification failure, 2 input error.
Every command runs its checks through one `verify.Runner`, as the suites
do: a construction command's check passes the gate on its input, the same
gate the suites use, before it builds anything, and a crash of the library
inside a check is an `error` check with exit 1, not a traceback.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from importlib import resources

from .core import identity_functor, validate, validate_diagram
from .comma import OVER, UNDER, comma
from .grothendieck import grothendieck
from .hocolim import hocolim
from .homology import homology, normalized_chain_complex
from .manifest import Manifest, ManifestError, parse
from .nerves import diag_nn, is_category, nerve_category, wbar_double_nerve
from .simplicial import BudgetError, simplex_budget
from .verify import LEAST_TRUNC, SUITES, Runner, gated, run_suite


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


def _violations(rep):
    """(ok, detail) of a validation report, naming its first five violations."""
    return rep.ok, "ok" if rep.ok else "; ".join(map(str, rep.violations[:5]))


def cmd_validate(args):
    m, r = load_manifest(args), Runner()
    for name in [args.name] if args.name else sorted(m.two_categories):
        C = _require(m, "two_categories", name)
        r.run(f"validate[{name}]", lambda C=C: _violations(validate(C)))
    for name, D in [] if args.name else sorted(m.diagrams.items()):
        r.run(f"diagram[{name}]", lambda D=D: _violations(validate_diagram(D)))
    return emit(args, r.report("validate", args.trunc))


def _run(args, suite, gate, checks):
    """The command's report: one `Runner` runs each (name, check) of
    `checks` behind `gate`, as the suites do; both take the runner.  If the
    gate finds the input invalid, every check fails with its `precondition:`
    detail and nothing is built."""
    r = Runner()
    for name, check in checks:
        r.run(name, gated(lambda: gate(r), lambda check=check: check(r)))
    return emit(args, r.report(suite, args.trunc))


def _levels(args, suite, build):
    """The level sizes of build(C, truncation), C the named 2-category."""
    C = _require(load_manifest(args), "two_categories", args.name)
    return _run(args, suite, lambda r: r.category(C), [
        (f"levels[{args.name}]", lambda r: (True, str(build(C, args.trunc).sizes())))])


def cmd_groth(args):
    D = _require(load_manifest(args), "diagrams", args.name)

    def check(r):
        G = grothendieck(D)
        ok, detail = _violations(validate(G))
        return ok, f"cells {G.counts()}" if ok else detail

    return _run(args, "groth", lambda r: r.diagram(D), [(f"groth[{args.name}]", check)])


def cmd_hocolim(args):
    D = _require(load_manifest(args), "diagrams", args.name)
    return _run(args, "hocolim", lambda r: r.diagram(D), [(f"hocolim[{args.name}]", lambda r: (
        True, str([L.counts() for L in hocolim(D, args.trunc).levels])))])


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

    def check(r):
        K = comma(F, obj, side)
        return validate(K).ok, f"cells {K.counts()}"

    return _run(args, "comma", lambda r: r.functor(F),
                [(f"comma[{args.functor},{args.object},{args.side}]", check)])


def cmd_homology(args):
    m = load_manifest(args)
    if args.comma:
        parts = args.comma.rsplit(":", 2)
        # a leading "id" is the id: of an id:CAT short of its OBJECT or SIDE
        F, obj, side = _comma(m, [args.comma] if parts[0] == "id" else parts)
        gate, label = (lambda r: r.functor(F)), args.comma
        build = lambda r: r.made(comma, F, obj, side)
    else:
        C = _require(m, "two_categories", args.name)
        gate, label = (lambda r: r.category(C)), args.name
        build = lambda r: C
    degrees = [args.degree] if args.degree is not None else list(range(args.trunc))
    chains = lambda r: r.made(normalized_chain_complex, r.made(diag_nn, build(r), args.trunc))
    return _run(args, "homology", gate, [
        (f"H_{i}[{label}]", lambda r, i=i: (True, str(homology(chains(r), i)))) for i in degrees])


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

    nerve = lambda C, n: (nerve_category if is_category(C) else diag_nn)(C, n)
    for cname, build in (("nerve", nerve), ("wbar", wbar_double_nerve), ("diag", diag_nn)):
        p = add_parser(cname, help=f"{cname} level sizes of a named 2-category")
        p.add_argument("--name", required=True)
        p.set_defaults(fn=functools.partial(_levels, suite=cname, build=build), default_trunc=3)

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
    if args.budget is not None and args.budget < 0:
        return _input_error(f"--budget {args.budget} is negative")
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
    except (BudgetError, OSError) as exc:
        return _input_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
