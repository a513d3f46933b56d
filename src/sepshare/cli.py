"""Command-line front end.

Reads instance documents (game JSON, optionally bundling "profile",
named "profiles", and a "protocol"), runs transforms or verifiers, and
writes machine-readable `run_report` JSON.  Reports carry exact rationals;
--approx-display adds decimal renderings for humans.  Exit codes: 0
success, 1 verification failure, 2 input error, 3 enumeration budget
exceeded (only `optimum` enumerates).
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .errors import BudgetExceeded, InputError, SepshareError
from .game import GameModel, Profile, Step, total_cost
from .gen import gen_matroid, gen_sp, gen_tree, gen_ufl, random_bases_profile
from .matroids import transform_matroid
from .nsepa import counterexample_fixture, is_enforceable, nsepa_transform
from .oracle import DEFAULT_BUDGET, brute_force_optimum, enforcing_protocol
from .protocol import SeparableProtocol, verify_budget_balance, verify_pne
from .rationals import approx, format_rational
from .schema import (
    dumps,
    game_from_json,
    game_to_json,
    jsonable,
    loads,
    profile_from_json,
    profile_to_json,
    protocol_from_json,
    protocol_to_json,
    step_to_json,
)
from .singlesource import transform_single_source


def run_report(command: str, approx_display: bool, input_cost: int | Fraction = 0,
               output_cost: int | Fraction = 0, iterations: int = 0, phases: int = 0,
               enforceable: bool = False, pne_verified: bool = False,
               budget_balanced: bool = False, **extra) -> dict:
    """The JSON report of one run: the costs formatted exactly, each key of
    `extra` encoded by `jsonable`, and under `approx_display` the costs
    rendered as decimals too."""
    out = {
        "command": command,
        "input_cost": format_rational(input_cost),
        "output_cost": format_rational(output_cost),
        "iterations": iterations,
        "phases": phases,
        "enforceable": enforceable,
        "pne_verified": pne_verified,
        "budget_balanced": budget_balanced,
        "timings": {},  # always empty; kept so reports stay byte-stable
    }
    if approx_display:
        out["input_cost_approx"] = approx(input_cost)
        out["output_cost_approx"] = approx(output_cost)
    for k, v in extra.items():
        out[k] = jsonable(v)
    return out


def _read_text(path: Optional[str]) -> str:
    try:
        if path in (None, "-"):
            # standard input may decode with surrogateescape, which keeps
            # bytes that are not UTF-8 as lone surrogates; encoding refuses them
            text = sys.stdin.read()
            text.encode("utf-8")
            return text
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeError) as ex:
        raise InputError(f"cannot read {path or 'standard input'}: {ex}") from ex


def _write_text(path: Optional[str], text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as ex:
        raise InputError(f"cannot write {path}: {ex}") from ex


def _load_instance(args) -> tuple[GameModel, dict]:
    doc = loads(_read_text(getattr(args, "infile", None)))
    if not isinstance(doc, dict):
        raise InputError("instance document must be a JSON object")
    return game_from_json(doc), doc


def _pick_profile(doc: dict, game: GameModel, selector: Optional[str]) -> Profile:
    if selector:
        named = doc.get("profiles", {})
        if not isinstance(named, dict):
            raise InputError("'profiles' must be an object of named profiles")
        if selector in named:
            return profile_from_json({"profile": named[selector]}, game)
        if selector == "embedded":
            pass  # fall through to the bundled profile
        else:
            return profile_from_json(loads(_read_text(selector)), game)
    if "profile" in doc:
        return profile_from_json({"profile": doc["profile"]}, game)
    if game.n == 0:
        return Profile([])  # the only profile of a game without players
    raise InputError("no profile: bundle one in the instance or pass --profile")


def _emit_trace(path: Optional[str], steps: Sequence[Step]) -> None:
    if path is None:
        return
    text = "".join(dumps(step_to_json(step), indent=None) + "\n" for step in steps)
    _write_text(path, text)


def _derive_protocol(
    game: GameModel, profile: Profile, doc: dict, args
) -> tuple[bool, Optional[SeparableProtocol]]:
    """Enforceability verdict plus a protocol to verify: an explicit
    protocol (document or --protocol) as-is, else the one
    `enforcing_protocol` finds."""
    explicit = None
    if getattr(args, "protocol", None):
        explicit = protocol_from_json(loads(_read_text(args.protocol)), game)
    elif "protocol" in doc:
        explicit = protocol_from_json(doc["protocol"], game)
    found = enforcing_protocol(game, profile)
    return found is not None, found if explicit is None else explicit


def _verify_booleans(
    game: GameModel, protocol: Optional[SeparableProtocol], profile: Profile
) -> tuple[bool, bool]:
    if protocol is None:
        return False, False
    bb = verify_budget_balance(game, protocol, profile).ok
    pne = verify_pne(game, protocol).ok
    return pne, bb


# -- commands --------------------------------------------------------------


def _matroid_family(game: GameModel, profile: Profile):
    result = transform_matroid(game, profile)
    return result, result.protocol, result.moves, len(result.moves), 0, {}


def _tree_family(game: GameModel, profile: Profile):
    result = transform_single_source(game, profile)
    repairs = [(e, i, format_rational(amount)) for e, i, amount in result.repairs]
    return (result, result.protocol, result.events, len(result.events),
            sum(step.kind == "drop" for step in result.events), {"repairs": repairs})


def _nsepa_family(game: GameModel, profile: Profile):
    result = nsepa_transform(game, profile)
    extra = {
        "lp_value": format_rational(result.lp_value),
        "input_enforceable": result.input_enforceable,
        "repairs": len(result.repairs),
    }
    return (result, result.protocol, result.repairs + result.substitutions,
            len(result.substitutions), result.phases, extra)


def _cmd_transform(command: str, family, args) -> tuple[dict, Sequence[Step], bool]:
    """One transform command.  `family(game, profile)` runs the transform and
    returns its result, the protocol on the output profile, the trace steps,
    the iteration and phase counts, and the report keys of its own."""
    game, doc = _load_instance(args)
    profile = _pick_profile(doc, game, args.profile)
    result, protocol, steps, iterations, phases, extra = family(game, profile)
    pne, bb = _verify_booleans(game, protocol, result.profile)
    enforceable = pne and bb
    if command == "nsepa-transform":
        # path games also re-decide the output with the enforceability LP
        enforceable = is_enforceable(game, result.profile).enforceable
    report = run_report(
        command,
        args.approx_display,
        input_cost=result.input_cost,
        output_cost=result.output_cost,
        iterations=iterations,
        phases=phases,
        enforceable=enforceable,
        pne_verified=pne,
        budget_balanced=bb,
        profile=result.profile,
        protocol=protocol_to_json(protocol),
        **extra,
    )
    ok = enforceable and pne and bb and result.output_cost <= result.input_cost
    return report, steps, ok


def _cmd_nsepa_check(args) -> tuple[dict, Sequence[Step], bool]:
    game, doc = _load_instance(args)
    profile = _pick_profile(doc, game, args.profile)
    rep = is_enforceable(game, profile)
    cost = total_cost(game, profile)
    protocol = SeparableProtocol(game, profile, rep.shares) if rep.enforceable else None
    pne, bb = _verify_booleans(game, protocol, profile)
    report = run_report(
        "nsepa-check",
        args.approx_display,
        input_cost=cost,
        output_cost=cost,
        enforceable=rep.enforceable,
        pne_verified=pne,
        budget_balanced=bb,
        lp_status=rep.status,
        lp_value=None if rep.lp_value is None else format_rational(rep.lp_value),
        used_cost=format_rational(rep.used_cost),
    )
    return report, [], rep.enforceable and pne and bb


def _cmd_verify(args) -> tuple[dict, Sequence[Step], bool]:
    game, doc = _load_instance(args)
    profile = _pick_profile(doc, game, args.profile)
    cost = total_cost(game, profile)
    enforceable, protocol = _derive_protocol(game, profile, doc, args)
    pne, bb = _verify_booleans(game, protocol, profile)
    extra = {} if protocol is None else {"protocol": protocol_to_json(protocol)}
    report = run_report(
        "verify",
        args.approx_display,
        input_cost=cost,
        output_cost=cost,
        enforceable=enforceable,
        pne_verified=pne,
        budget_balanced=bb,
        **extra,
    )
    return report, [], enforceable and pne and bb


def _cmd_optimum(args) -> tuple[dict, Sequence[Step], bool]:
    limits = {"max_profiles": args.max_profiles, "max_paths_per_player": args.max_paths}
    for flag, value in zip(("--max-profiles", "--max-paths"), limits.values()):
        if value is not None and value < 1:
            raise InputError(f"{flag} must be at least 1, not {value}")
    game, doc = _load_instance(args)
    budget = DEFAULT_BUDGET._replace(**{k: v for k, v in limits.items() if v is not None})
    result = brute_force_optimum(game, budget=budget)
    enforceable = enforcing_protocol(game, result.profile) is not None
    report = run_report(
        "optimum",
        args.approx_display,
        input_cost=result.cost,
        output_cost=result.cost,
        enforceable=enforceable,
        optimum_profile=result.profile,
        unique=result.unique,
    )
    return report, [], enforceable


def _cmd_gen(args) -> tuple[dict, Sequence[Step], bool]:
    rng = random.Random(args.seed)
    if args.family == "ufl":
        game = gen_ufl(rng, players=args.players, facilities=args.facilities)
        profile = random_bases_profile(rng, game)
    elif args.family == "matroid":
        game = gen_matroid(rng, players=args.players, resources=args.resources)
        profile = random_bases_profile(rng, game)
    elif args.family == "tree":
        game, profile = gen_tree(rng, vertices=args.vertices, players=args.players)
    else:
        game, profile = gen_sp(rng, players=args.players, max_edges=args.max_edges)
    doc = game_to_json(game)
    doc["profile"] = profile_to_json(profile)["profile"]
    doc["seed"] = args.seed
    return doc, [], True


def _cmd_fixture(args) -> tuple[dict, Sequence[Step], bool]:
    game, opt = counterexample_fixture()
    doc = game_to_json(game)
    rows = profile_to_json(opt)["profile"]
    doc["profile"] = rows
    doc["profiles"] = {"opt": rows}
    return doc, [], True


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepshare",
        description="Cost-sharing transforms and verifiers for congestion games",
    )

    def io_flags(p, profile_flag: bool = True) -> None:
        p.add_argument("--in", dest="infile", default=None,
                       help="instance JSON (default: stdin)")
        p.add_argument("--out", dest="outfile", default=None,
                       help="report JSON destination (default: stdout)")
        p.add_argument("--trace", default=None,
                       help="write per-step JSON lines to this file")
        p.add_argument("--approx-display", action="store_true",
                       help="add decimal renderings next to exact rationals")
        if profile_flag:
            p.add_argument("--profile", default=None,
                           help="named bundled profile, 'embedded', or a JSON file")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform-matroid", help="rewrite matroid profiles until enforceable")
    io_flags(p)
    p.set_defaults(handler=functools.partial(_cmd_transform, "transform-matroid", _matroid_family))

    p = sub.add_parser("transform-tree", help="single-source tree transform with sharing")
    io_flags(p)
    p.set_defaults(handler=functools.partial(_cmd_transform, "transform-tree", _tree_family))

    p = sub.add_parser("nsepa", help="series-parallel path game operations")
    nsub = p.add_subparsers(dest="nsepa_command", required=True)
    pt = nsub.add_parser("transform", help="LP-guided substitution transform")
    io_flags(pt)
    pt.set_defaults(handler=functools.partial(_cmd_transform, "nsepa-transform", _nsepa_family))
    pc = nsub.add_parser("check", help="LP enforceability check")
    io_flags(pc)
    pc.set_defaults(handler=_cmd_nsepa_check)

    p = sub.add_parser("verify", help="enforceability plus protocol verification")
    io_flags(p)
    p.add_argument("--protocol", default=None, help="protocol JSON file")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("optimum", help="exact social optimum by enumeration")
    io_flags(p, profile_flag=False)
    p.add_argument("--max-profiles", type=int, default=None)
    p.add_argument("--max-paths", type=int, default=None)
    p.set_defaults(handler=_cmd_optimum)

    p = sub.add_parser("gen", help="seeded random instances")
    gsub = p.add_subparsers(dest="family", required=True)
    gu = gsub.add_parser("ufl", help="facility location: uniform opening costs "
                                     "1..20, connection delays 0..9")
    gu.add_argument("--players", type=int, default=3)
    gu.add_argument("--facilities", type=int, default=4)
    gm = gsub.add_parser("matroid", help="mixed matroid families, fixed or "
                                         "subadditive-table costs 1..20")
    gm.add_argument("--players", type=int, default=None)
    gm.add_argument("--resources", type=int, default=None)
    gt = gsub.add_parser("tree", help="connected graph: spanning tree plus "
                                      "random chords, costs 1..20")
    gt.add_argument("--players", type=int, default=None)
    gt.add_argument("--vertices", type=int, default=None)
    gs = gsub.add_parser("sp", help="chain of parallel bundles; player pairs "
                                    "on cut vertices; sparse delays 1..5")
    gs.add_argument("--players", type=int, default=None)
    gs.add_argument("--max-edges", type=int, default=12,
                    help="cap on the chain length, not a target: the chain "
                         "stops at random after each bundle and near the cap, "
                         "at most one edge past it")
    for gp in (gu, gm, gt, gs):
        gp.add_argument("--seed", type=int, default=0)
        gp.add_argument("--out", dest="outfile", default=None)
        gp.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("fixture", help="pinned hard instances")
    fsub = p.add_subparsers(dest="fixture_name", required=True)
    ft = fsub.add_parser("theorem5", help="three-pair instance whose unique "
                                          "optimum is not enforceable")
    ft.add_argument("--out", dest="outfile", default=None)
    ft.set_defaults(handler=_cmd_fixture)

    return parser


def run(argv: Optional[list[str]] = None) -> int:
    """Run argv's subcommand, whose handler returns the document to write,
    the trace steps and whether the run passed; return the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        document, steps, ok = args.handler(args)
        _emit_trace(getattr(args, "trace", None), steps)
        _write_text(args.outfile, dumps(document) + "\n")
    except BudgetExceeded as ex:
        print(f"budget exceeded: {ex}", file=sys.stderr)
        return 3
    except InputError as ex:
        print(f"input error: {ex}", file=sys.stderr)
        return 2
    except SepshareError as ex:
        print(f"{type(ex).__name__}: {ex}", file=sys.stderr)
        return 1
    return 0 if ok else 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
