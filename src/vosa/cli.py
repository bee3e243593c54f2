"""Command line interface: exact computations with deterministic output.

Subcommands: zhu (build/certify the twisted Zhu algebra), verify (run an
identity suite), basis (graded dimensions), omega (lowest-weight space of
the canonical twisted module), induce (truncated induction from a seed
module).  All results are rational and byte-identical across runs; JSON
reports carry the schema tag "vosa-zhu/1".  Completed zhu runs are cached
under a content hash of the inputs and the code version.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction

from . import __version__

SCHEMA = "vosa-zhu/1"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNCERTIFIED = 2


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        why = "zero denominator in"
    except ValueError:
        why = "not a rational number:"
    raise argparse.ArgumentTypeError(f"{why} {text!r}")


def _context(args):
    from .zhu import ctx_identity, ctx_sigma, ctx_tau

    if args.twist == "sigma":
        return ctx_sigma(args.l)
    if args.twist == "id":
        return ctx_identity(args.l)
    if args.twist == "tau":
        if args.l != 2:
            raise ValueError("the pair-swap twist is defined for --l 2")
        return ctx_tau()
    raise ValueError(f"unknown twist {args.twist}")


def _cache_dir(args):
    d = args.cache_dir or os.environ.get("VOSA_CACHE_DIR")
    return d


def _cache_key(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _is_count(x) -> bool:
    return type(x) is int and x >= 0


def _is_flag(x) -> bool:
    return type(x) is bool


# the type of each field _zhu_report writes, as JSON reads it back
_ENTRY_TYPES = {
    "dim": _is_count,
    "dim_lower": _is_count,
    "certified": _is_flag,
    "stabilized": _is_flag,
    "blocks": lambda x: x is None or (type(x) is list and all(
        type(b) is int and b > 0 for b in x)),
    "center_dim": lambda x: x is None or _is_count(x),
    "radical_dim": lambda x: x is None or _is_count(x),
}


def _cache_get(cache_dir, key, args):
    """The cached zhu report for args, or None on a miss.

    An entry that is not the report _zhu_report writes for args (a
    truncated write, a foreign file, another schema, other fields, a
    field of another type, another twist or l) is a miss too; the
    recomputed report replaces it.
    """
    if not cache_dir:
        return None
    path = os.path.join(cache_dir, key + ".json")
    try:
        with open(path) as f:
            entry = json.load(f)
    except (FileNotFoundError, ValueError):
        return None
    fields = {"dim", "certified", "blocks", "center_dim", "radical_dim"}
    if args.certify:
        fields |= {"dim_lower", "stabilized"}
    want = {"schema": SCHEMA, "command": "zhu", "twist": args.twist,
            "l": args.l}
    if (not isinstance(entry, dict) or entry.keys() != fields | want.keys()
            or any(type(entry[k]) is not type(v) or entry[k] != v
                   for k, v in want.items())
            or not all(_ENTRY_TYPES[k](entry[k]) for k in fields)):
        return None
    return entry


def _cache_put(cache_dir, key, result: dict) -> None:
    if not cache_dir:
        return
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, key + ".json")
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(result, f, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(result: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(result, sort_keys=True, indent=2) + "\n"
    else:
        lines = []
        for k in sorted(result):
            v = result[k]
            if isinstance(v, dict):
                v = ", ".join(f"{kk}: {vv}" for kk, vv in sorted(v.items()))
            lines.append(f"{k:<16} {v}")
        text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def cmd_zhu(args) -> int:
    ctx = _context(args)
    key = _cache_key({
        "cmd": "zhu",
        "sector": ctx.sector.describe(),
        "twist": ctx.name,
        "max_weight": str(args.max_weight),
        "margin": str(args.margin),
        "certify": bool(args.certify),
        "version": __version__,
    })
    result = _cache_get(_cache_dir(args), key, args)
    if result is None:
        result = _zhu_report(ctx, args)
        _cache_put(_cache_dir(args), key, result)
    _emit(result, args)
    if args.certify and not result["certified"]:
        return EXIT_UNCERTIFIED
    return EXIT_OK


def _zhu_report(ctx, args) -> dict:
    from .modules import certified_zhu
    from .zhu import ZhuAlgebra, block_profile

    result = {"schema": SCHEMA, "command": "zhu", "twist": args.twist,
              "l": args.l}
    if args.certify:
        rep = certified_zhu(ctx, args.max_weight, args.margin)
        alg = rep["algebra"]
        result.update(dim=rep["dim_upper"], dim_lower=rep["dim_lower"],
                      stabilized=rep["stabilized"],
                      certified=rep["certified"])
    else:
        alg = ZhuAlgebra(ctx, args.max_weight, args.margin)
        result.update(dim=alg.dim, certified=False)
    try:
        prof = block_profile(alg)
    except ValueError:
        if result["certified"]:
            raise
        # an uncertified truncation need not close under the star
        # product (a class escapes it), so it has no blocks to report;
        # a RuntimeError is a failed consistency check and stays an error
        prof = dict.fromkeys(("blocks", "center_dim", "radical_dim"))
    result["blocks"] = prof["blocks"]
    result["center_dim"] = prof["center_dim"]
    result["radical_dim"] = prof["radical_dim"]
    return result


def _suite_virasoro(ctx, args) -> dict:
    from .fields import Virasoro, verify_translation

    vir = Virasoro(ctx.sector)
    c = vir.central_charge()
    ok = c == Fraction(args.l, 2)
    details = {"central_charge": str(c), "expected": str(Fraction(args.l, 2))}
    b = {((Fraction(-1, 2), 0),): Fraction(1)}
    samples = [(n, {(): Fraction(1)}) for n in
               (Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2))]
    tr = verify_translation(ctx.sector, vir.omega, b, samples)
    ok = ok and tr["ok"]
    details["translation"] = tr["ok"]
    return {"ok": ok, "details": details}


def _suite_jacobi(ctx, args) -> dict:
    from .fields import verify_commutator, verify_skew_symmetry, Virasoro
    from .modules import twisted_module

    sector = ctx.sector
    space = twisted_module(ctx)
    vir = Virasoro(sector)
    gens = [{((Fraction(-1, 2), g),): Fraction(1)} for g in sector.gids]
    checked = 0
    supp = ctx.support
    targets = [{m: Fraction(1)} for m in space.basis(Fraction(3, 2))]
    for gi, u in enumerate(gens):
        for gj, v in enumerate(gens):
            ms = [supp[gi] - 1, supp[gi], supp[gi] + 1]
            ns = [supp[gj] - 1, supp[gj]]
            samples = [(m - Fraction(1, 2), n - Fraction(1, 2), w)
                       for m in ms for n in ns for w in targets[:4]]
            rep = verify_commutator(space, u, v, samples)
            if not rep["ok"]:
                return {"ok": False, "details": rep}
            checked += rep["checked"]
        sk = verify_skew_symmetry(sector, vir.omega, u, gens[0])
        if not sk["ok"]:
            return {"ok": False, "details": sk}
        checked += sk["checked"]
    return {"ok": True, "details": {"checked": checked}}


def _suite_zhu_axioms(ctx, args) -> dict:
    from .zhu import ZhuAlgebra
    from .fields import Virasoro

    alg = ZhuAlgebra(ctx, args.max_weight, args.margin)
    basis = [{i: 1} for i in range(alg.dim)]
    try:
        assoc = alg.check_associative()
        wcl = alg.reduce(Virasoro(ctx.sector).omega)
        central = all(alg.product(wcl, e) == alg.product(e, wcl)
                      for e in basis)
        unit = alg.unit_coords()
        unit_ok = all(alg.product(unit, e) == e == alg.product(e, unit)
                      for e in basis)
    except ValueError as exc:
        # a truncation that does not close lets a class escape it
        return {"ok": False, "details": {"failure": str(exc)}}
    ok = assoc and central and unit_ok
    return {"ok": ok, "details": {"associative": assoc, "omega_central":
                                  central, "unit": unit_ok}}


def _suite_lie(ctx, args) -> dict:
    from .fields import verify_commutator
    from .liealg import symbol, verify_hom_to_zhu, verify_jacobi
    from .modules import twisted_module
    from .zhu import ZhuAlgebra

    alg = ZhuAlgebra(ctx, args.max_weight, args.margin)
    try:
        hom = verify_hom_to_zhu(alg)
    except ValueError as exc:
        # a truncation that does not close lets a class escape it
        return {"ok": False, "details": {"failure": str(exc)}}
    if not hom["ok"]:
        return {"ok": False, "details": hom}
    space = twisted_module(ctx)
    sector = ctx.sector
    targets = [{m: Fraction(1)} for m in space.basis(Fraction(1))]
    gens = [{((Fraction(-1, 2), g),): Fraction(1)} for g in sector.gids]
    index = [ctx.support[g] + Fraction(1, 2) for g in sector.gids]
    syms = [symbol(u, k) for u, k in zip(gens, index)]
    for g, u in enumerate(gens):
        for h, v in enumerate(gens):
            br = verify_commutator(space, u, v,
                                   [(index[g], index[h], w) for w in targets])
            if not br["ok"]:
                return {"ok": False, "details": br}
            jc = verify_jacobi(sector, space, syms[g], syms[h], syms[0],
                               targets)
            if not jc["ok"]:
                return {"ok": False, "details": jc}
    return {"ok": True, "details": {"hom_pairs": hom["pairs"]}}


def _suite_omega(ctx, args) -> dict:
    from .modules import certified_zhu, zhu_action_report

    rep = certified_zhu(ctx, args.max_weight, args.margin)
    if not rep["certified"]:
        # an uncertified truncation need not close under the star
        # product, so the action checks are not run on it
        return {"ok": False, "details": {"omega_dim": rep["omega"].dim,
                                         "certified": False}}
    act = zhu_action_report(rep["algebra"], rep["omega"])
    return {"ok": act["ok"], "details": {"omega_dim": rep["omega"].dim,
                                         "action": act, "certified": True}}


SUITES = {
    "virasoro": _suite_virasoro,
    "jacobi": _suite_jacobi,
    "zhu-axioms": _suite_zhu_axioms,
    "lie": _suite_lie,
    "omega": _suite_omega,
}


def cmd_verify(args) -> int:
    ctx = _context(args)
    rep = SUITES[args.suite](ctx, args)
    result = {
        "schema": SCHEMA,
        "command": "verify",
        "suite": args.suite,
        "twist": args.twist,
        "l": args.l,
        "ok": rep["ok"],
        "details": _jsonable(rep["details"]),
    }
    _emit(result, args)
    return EXIT_OK if rep["ok"] else EXIT_UNCERTIFIED


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    return obj


def cmd_basis(args) -> int:
    ctx = _context(args)
    dims = ctx.sector.graded_dims(args.max_weight)
    result = {
        "schema": SCHEMA,
        "command": "basis",
        "twist": args.twist,
        "l": args.l,
        "graded_dims": {str(k): v for k, v in sorted(dims.items())},
    }
    _emit(result, args)
    return EXIT_OK


def cmd_omega(args) -> int:
    from .modules import OmegaSpace, twisted_module

    ctx = _context(args)
    space = twisted_module(ctx)
    om = OmegaSpace(space, args.max_weight)
    degs: dict = {}
    for d in om.degrees():
        degs[str(d)] = degs.get(str(d), 0) + 1
    result = {
        "schema": SCHEMA,
        "command": "omega",
        "twist": args.twist,
        "l": args.l,
        "dim": om.dim,
        "dims_by_degree": degs,
        "lowest_only": all(d == 0 for d in om.degrees()),
    }
    _emit(result, args)
    return EXIT_OK


def cmd_induce(args) -> int:
    from .modules import certified_zhu, induce_truncated, omega_umats

    ctx = _context(args)
    rep = certified_zhu(ctx, args.max_weight, args.margin)
    result = {
        "schema": SCHEMA,
        "command": "induce",
        "twist": args.twist,
        "l": args.l,
        "seed": args.seed,
        "certified": rep["certified"],
        "seed_dim": None,
        "graded_dims": None,
        "omega_is_seed": None,
    }
    if rep["certified"]:
        # an uncertified truncation is not a module for A_g(V), so it
        # seeds no induction
        alg = rep["algebra"]
        if args.seed == "regular":
            umats, udim = alg.left_multiplications(), alg.dim
        else:
            umats, udim = omega_umats(alg, rep["omega"])
        res = induce_truncated(alg, umats, udim, args.depth)
        result.update(
            seed_dim=udim,
            graded_dims={str(k): v
                         for k, v in sorted(res["graded_dims"].items())},
            omega_is_seed=res["omega_is_seed"])
    _emit(result, args)
    return EXIT_OK if result["omega_is_seed"] else EXIT_UNCERTIFIED


def _add_common(p) -> None:
    p.add_argument("--l", type=int, default=2,
                   help="number of fermionic generators")
    p.add_argument("--twist", choices=["id", "sigma", "tau"],
                   default="sigma")
    p.add_argument("--max-weight", dest="max_weight", type=_frac,
                   default=Fraction(2), help="weight cutoff, e.g. 5/2")
    p.add_argument("--margin", type=_frac, default=Fraction(1))
    p.add_argument("--config", help="JSON file with default flag values")
    p.add_argument("--cache-dir", dest="cache_dir")
    p.add_argument("--output", help="write the report to a file")
    p.add_argument("--format", choices=["json", "table"], default="json")


class _Parser(argparse.ArgumentParser):
    """Raises bad input as ValueError for main to report; subparsers
    inherit the class."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="vosa",
        description="exact twisted Zhu algebras of free-fermion "
                    "vertex superalgebras",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zhu", help="build and certify the Zhu algebra")
    _add_common(p)
    p.add_argument("--certify", action="store_true")
    p.set_defaults(func=cmd_zhu)

    p = sub.add_parser("verify", help="run an identity suite")
    _add_common(p)
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("basis", help="graded dimensions of the Fock space")
    _add_common(p)
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("omega", help="lowest-weight space of the module")
    _add_common(p)
    p.set_defaults(func=cmd_omega)

    p = sub.add_parser("induce", help="truncated induction from a seed")
    _add_common(p)
    p.add_argument("--seed", choices=["omega", "regular"], default="omega")
    p.add_argument("--depth", type=_frac, default=Fraction(3, 2),
                   help="degree cutoff of the induced module")
    p.set_defaults(func=cmd_induce)
    return ap


def _apply_config(args, argv, parser):
    """Config file supplies defaults; explicit flags win.

    The file holds one JSON object keyed by flag name.  Each value is
    checked as the flag's command-line value would be, by the flag's
    type and choices; a switch takes true or false, an integer flag a
    JSON integer.  Keys that name no flag of the command are ignored.
    The values become the command's defaults and argv is parsed again,
    so a flag counts as given whenever argparse matched it, abbreviated
    or not.  Returns the arguments to run with.
    """
    if not getattr(args, "config", None):
        return args
    with open(args.config) as f:
        conf = json.load(f)
    if not isinstance(conf, dict):
        raise ValueError(f"{args.config}: a config file holds a JSON object")
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    command = sub.choices[args.command]
    actions = {a.dest: a for a in command._actions}
    defaults = {}
    for key, val in conf.items():
        attr = key.replace("-", "_")
        if attr in actions:
            defaults[attr] = _config_value(actions[attr], val,
                                           f"{args.config}: {key}")
    command.set_defaults(**defaults)
    return parser.parse_args(argv)


def _config_value(action, val, where: str):
    """A config value through its flag's type and choices."""
    bad = ValueError(f"{where}: invalid value {json.dumps(val)}")
    if action.nargs == 0:  # a switch such as --certify
        if not isinstance(val, bool):
            raise bad
        return val
    if (isinstance(val, bool) or not isinstance(val, (int, float, str))
            or (action.type is int and not isinstance(val, int))
            or (action.type is None and not isinstance(val, str))):
        raise bad
    try:
        value = action.type(str(val)) if action.type else val
    except (ValueError, argparse.ArgumentTypeError):
        raise bad from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"{where}: invalid choice {json.dumps(val)} "
                         f"(choose from {', '.join(action.choices)})")
    return value


def _check_ranges(args) -> None:
    if args.l < 1:
        raise ValueError("--l must be at least 1")
    if args.max_weight < 0:
        raise ValueError("--max-weight must be nonnegative")
    if args.margin <= 0:
        raise ValueError("--margin must be positive")
    if getattr(args, "depth", 0) < 0:
        raise ValueError("--depth must be nonnegative")


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _apply_config(parser.parse_args(argv), argv, parser)
        _check_ranges(args)
        return args.func(args)
    except (ValueError, OSError, RuntimeError, AssertionError) as exc:
        # RuntimeError and AssertionError are failed internal consistency
        # checks of the engine
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
