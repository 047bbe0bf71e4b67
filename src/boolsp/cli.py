"""Command-line surface: analyze | region | classify | stability | predict |
compose | census | orbit | graph | thresholds.

Conventions
-----------
* rho, alpha, delta are exact rationals given as "p/q" strings (never floats).
* epsilon accepts a decimal like "1e-9" or a rational "1/1000000000".
* Exit codes: 0 success, 1 domain error (bad file, rho out of range,
  capacity), 2 usage error.
* JSON reports are byte-identical across runs for a fixed config: an envelope
  {"tool", "version", "command", "config", "inputs": {path: sha256}, "result"}
  with sorted keys and canonical rationals {"num", "den", "approx"}.
* Each report object in a result is the fields of its library result, written
  by serialize.to_json.  SpClassification's lev and lev_zero_count are written
  as level and level_zero_count.  Two fields are dropped: n of an SpRegion
  (the result carries n) and rho of the stability report (the result carries
  rho).
* Function files: see the formats documented in the epilog of --help.
"""

import argparse
import functools
import os
import sys
from decimal import Decimal, InvalidOperation
from fractions import Fraction

import numpy as np

from . import serialize as ser
from .config import VERSION
from .constructs import character_compose, product_compose
from .errors import BoolspError, InvalidArgument
from .experiments import (
    check_census_args,
    graph_scan,
    predictor_orbit,
    sp_fraction,
    threshold_constants,
)
from .functions import (
    dominating_boundary_count,
    dominating_boundary_points,
    properties,
)
from .noise import (
    _prediction_gain,
    check_rho,
    closeness_to_sp,
    optimal_predictor,
    stability_report,
)
from .sp import (
    DEFAULT_EPSILON,
    classify,
    necessary_checks,
    sp_region,
    sufficient_thresholds,
)
from .spectrum import _spectral_summary, wht

_EPILOG = """\
file formats (all JSON):
  boolsp-fn-v1    {"format","n","table_hex"}  truth table; hex digit k holds
                  inputs 4k..4k+3 (little-endian nibbles), bit set = value +1
  boolsp-ltf-v1   {"format","a0","a":[ints]}  sign of a0 + sum a_i x_i
  boolsp-ptf-v1   {"format","n","terms":[{"coords":[1-based],"coeff":int}]}
  boolsp-plan-v1  {"format","outer":<any function object>,"blocks":[[1-based]]}

census CSV columns:
  exhaustive: rho_num,rho_den,fraction_num,fraction_den
  sample:     rho_num,rho_den,estimate,stderr,samples
census takes at most 10001 rho values: --grid + 1, plus each --rho.

environment: BOOLSP_CAP_N, the largest n whose dense 2^n tables are built
  (default 24, at most 31).
"""

_CENSUS_MAX_RHOS = 10_001  # about 1 KiB of held rows per rho


def _parse_epsilon(text):
    try:
        eps = Fraction(text) if "/" in text else Decimal(text)
        if not 0 < eps < 1:
            raise InvalidArgument("epsilon must lie in (0, 1)")
    except (ValueError, InvalidOperation, ZeroDivisionError):
        raise InvalidArgument(f"bad epsilon {text!r}") from None
    ser.check_renderable(eps)  # the output is written with it: refuse before the work
    return Fraction(eps)


def _load_function(args, inputs):
    given = [
        (name, getattr(args, name))
        for name in ("fn", "ltf", "ptf")
        if getattr(args, name, None)
    ]
    if len(given) != 1:
        raise InvalidArgument("exactly one of --fn / --ltf / --ptf is required")
    kind, path = given[0]
    expected = {
        "fn": ser.FN_FORMAT,
        "ltf": ser.LTF_FORMAT,
        "ptf": ser.PTF_FORMAT,
    }[kind]
    obj = ser.load_json(path, inputs)
    found = obj.get("format") if isinstance(obj, dict) else None
    if found != expected:
        raise InvalidArgument(f"{path}: expected format {expected}, found {found!r}")
    return ser.function_from_obj(obj)


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidArgument(f"cannot write {path}: {exc}") from None


def _check_writable(path):
    """Refuse an --out path that cannot be written, before any work: its
    directory must exist and be writable, and the path must not be a
    directory."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        reason = "is a directory"
    elif not os.path.isdir(parent):
        reason = f"no directory {parent}"
    elif not os.access(parent, os.W_OK) or (
        os.path.exists(path) and not os.access(path, os.W_OK)
    ):
        reason = "permission denied"
    else:
        return
    raise InvalidArgument(f"cannot write {path}: {reason}")


def _write_function(path, f):
    _write_text(path, ser.canonical_json(ser.function_to_json(f)))


# ---------------------------------------------------------------------------
# subcommand handlers (args, inputs -> result; each input file read is
# recorded in inputs by its sha256)


def _cmd_analyze(args, inputs):
    f = _load_function(args, inputs)
    props = properties(f)
    result = {
        "n": f.n,
        "properties": ser.to_json(props),
        "summary": ser.to_json(_spectral_summary(f, props.monotone)),
        "spectrum": ser.spectrum_to_json(wht(f)),
    }
    if props.monotone and f.n <= 12:
        boundary = dominating_boundary_points(f)
        result["dominating_boundary_count"] = len(boundary)
        result["dominating_boundary"] = boundary
    elif props.monotone:  # 2^n ints would be built only to be counted
        result["dominating_boundary_count"] = dominating_boundary_count(f)
    return result


def _cmd_region(args, inputs):
    f = _load_function(args, inputs)
    region = sp_region(f, _parse_epsilon(args.epsilon))
    return {"n": f.n, "region": ser.to_json(region)}


def _cmd_classify(args, inputs):
    f = _load_function(args, inputs)
    c = classify(f, _parse_epsilon(args.epsilon))
    return {"n": f.n, "classification": ser.to_json(c)}


def _cmd_stability(args, inputs):
    f = _load_function(args, inputs)
    rho = check_rho(ser.parse_rational(args.rho, "rho"))
    rep = stability_report(f, rho)  # both read the one kept T_rho sign stream
    close = closeness_to_sp(f, rho, ties_agree=True)
    stability = ser.to_json(rep)
    del stability["rho"]  # the result's own rho carries it
    return {
        "n": f.n,
        "rho": ser.rational(rho),
        "stability": stability,
        "closeness": ser.to_json(close),
        "necessary": ser.to_json(necessary_checks(f, rho)),
        "gain": ser.to_json(_prediction_gain(f, rep) if rep.stab != 0 else None),
    }


def _cmd_predict(args, inputs):
    if args.out:
        _check_writable(args.out)
    f = _load_function(args, inputs)
    rho = ser.parse_rational(args.rho, "rho")
    pred = optimal_predictor(f, rho, tie_rule=args.tie_rule)
    ties = int((pred.values == 0).sum())
    value_sum = int(pred.values.sum())
    result = {
        "n": f.n,
        "rho": ser.rational(rho),
        "tie_rule": args.tie_rule,
        "ties": ties,
        "value_sum": value_sum,
        "balanced": value_sum == 0,
    }
    if ties == 0:
        g = pred.to_boolean()
        result["function"] = ser.function_to_json(g)
        if args.out:
            _write_function(args.out, g)
    else:
        result["function"] = None
        result["ternary"] = pred.values.tolist()
        if args.out:
            raise InvalidArgument(
                "predictor has ties under the zero rule; no Boolean table to write"
            )
    return result


def _cmd_compose(args, inputs):
    if args.out:
        _check_writable(args.out)
    if args.plan:
        if args.left or args.right:
            raise InvalidArgument("--plan excludes --left/--right")
        outer, plan = ser.load_plan(args.plan, digests=inputs)
        g = character_compose(outer, plan)
        kind = "character"
    else:
        if not (args.left and args.right):
            raise InvalidArgument("compose needs --plan or both --left and --right")
        left = ser.function_from_obj(ser.load_json(args.left, inputs))
        right = ser.function_from_obj(ser.load_json(args.right, inputs))
        g = product_compose(left, right)
        kind = "product"
    if args.out:
        _write_function(args.out, g)
    return {
        "kind": kind,
        "n": g.n,
        "function": ser.to_json(g),
        "properties": ser.to_json(properties(g)),
    }


def _census_key(rho):
    return f"{rho.numerator}/{rho.denominator}"


def _load_checkpoint(path, meta):
    if not path or not os.path.exists(path):
        return {}
    obj = ser.load_json(path)
    if not isinstance(obj, dict) or obj.get("format") != "boolsp-census-checkpoint-v1":
        raise InvalidArgument(f"{path} is not a census checkpoint")
    if obj.get("meta") != meta:
        raise InvalidArgument(
            f"{path} was produced by a different census configuration"
        )
    rows = obj.get("rows", {})
    if not isinstance(rows, dict) or not all(
        _checkpoint_row_ok(row, meta["mode"]) for row in rows.values()
    ):
        raise InvalidArgument(f"{path}: malformed census checkpoint rows")
    return rows


def _checkpoint_row_ok(row, mode):
    """Does row hold the fields _cmd_census writes and renders for mode?"""
    extra = "stderr" if mode == "sample" else "fraction"
    if not isinstance(row, dict) or row.keys() != {"total", "sp_count", "estimate", extra}:
        return False
    fraction = row.get("fraction")
    return mode == "sample" or (
        isinstance(fraction, dict) and fraction.keys() == {"num", "den", "approx"}
    )


def _save_checkpoint(path, meta, rows):
    _write_text(
        path,
        ser.canonical_json(
            {"format": "boolsp-census-checkpoint-v1", "meta": meta, "rows": rows}
        ),
    )


def _cmd_census(args, inputs):
    if args.mode == "exhaustive" and (args.samples is not None or args.seed is not None):
        raise InvalidArgument("--samples and --seed apply to --mode sample only")
    check_census_args(args.n, args.mode, args.samples, args.seed)  # before the grid is built
    if args.grid is not None and args.grid < 1:
        raise InvalidArgument("--grid must be >= 1")
    grid = () if args.grid is None else range(args.grid + 1)
    count = len(grid) + len(args.rho or [])
    if count > _CENSUS_MAX_RHOS:  # every row is held until the report is written
        raise InvalidArgument(f"census takes at most {_CENSUS_MAX_RHOS} rho values, got {count}")
    rhos = [Fraction(k, args.grid) for k in grid]
    rhos += [ser.parse_rational(text, "rho") for text in args.rho or []]
    rhos = sorted(set(rhos))
    if not rhos:
        raise InvalidArgument("census needs --grid or at least one --rho")
    meta = {
        "n": args.n,
        "mode": args.mode,
        "samples": args.samples,
        "seed": args.seed,
    }
    rows = _load_checkpoint(args.checkpoint, meta)
    if args.checkpoint and any(_census_key(rho) not in rows for rho in rhos):
        _save_checkpoint(args.checkpoint, meta, rows)  # fails here, before any row is computed
    out_rows = []
    for rho in rhos:
        key = _census_key(rho)
        if key not in rows:
            sf = sp_fraction(
                args.n,
                rho,
                mode=args.mode,
                samples=args.samples,
                seed=args.seed,
            )
            row = {"total": sf.total, "sp_count": sf.sp_count, "estimate": sf.estimate}
            if sf.fraction is not None:
                row["fraction"] = ser.rational(sf.fraction)
            if args.mode == "sample":
                row["stderr"] = sf.stderr
            rows[key] = row
            if args.checkpoint:
                _save_checkpoint(args.checkpoint, meta, rows)
        out_rows.append({"rho": ser.rational(rho), **rows[key]})
    return {
        "n": args.n,
        "mode": args.mode,
        "samples": args.samples,
        "seed": args.seed,
        "rows": out_rows,
    }


def _census_csv(result):
    lines = [
        f"# boolsp {VERSION} census",
        f"# n={result['n']} mode={result['mode']}"
        + (
            f" samples={result['samples']} seed={result['seed']}"
            if result["mode"] == "sample"
            else ""
        ),
    ]
    if result["mode"] == "exhaustive":
        lines.append("# rho_num,rho_den,fraction_num,fraction_den")
        for row in result["rows"]:
            fr = row["fraction"]
            lines.append(
                f"{row['rho']['num']},{row['rho']['den']},{fr['num']},{fr['den']}"
            )
    else:
        lines.append("# rho_num,rho_den,estimate,stderr,samples")
        for row in result["rows"]:
            lines.append(
                f"{row['rho']['num']},{row['rho']['den']},"
                f"{row['estimate']!r},{row['stderr']!r},{result['samples']}"
            )
    return "\n".join(lines) + "\n"


def _cmd_orbit(args, inputs):
    f = _load_function(args, inputs)
    rho = ser.parse_rational(args.rho, "rho")
    result = ser.to_json(predictor_orbit(f, rho, max_steps=args.max_steps))
    # no orbit cycles (see graph_scan); the null keys stay while the benchmark
    # references and the query corpus pin the report's key set
    result["cycle_start"] = result["cycle_length"] = None
    return result


def _cmd_graph(args, inputs):
    result = ser.to_json(graph_scan(args.n, ser.parse_rational(args.rho, "rho")))
    # one component per fixpoint and no cycles (see graph_scan); the constant
    # keys stay while the benchmark references pin the report's key set
    result["num_components"], result["cycles"] = result["num_fixpoints"], []
    return result


def _cmd_thresholds(args, inputs):
    # every value the envelope echoes is checked before any work
    has_function = bool(args.fn or args.ltf or args.ptf)
    has_constants = args.alpha is not None or args.delta is not None
    if not (has_function or has_constants):
        raise InvalidArgument(
            "thresholds needs a function (--fn/--ltf/--ptf) or --alpha/--delta"
        )
    epsilon = _parse_epsilon(args.epsilon)
    rho = None
    if args.rho is not None:
        if not has_function:
            raise InvalidArgument("--rho needs a function (--fn/--ltf/--ptf) to apply to")
        rho = check_rho(ser.parse_rational(args.rho, "rho"))
    result = {}
    if has_constants:  # cheap, and it checks alpha and delta: before the function
        tc = threshold_constants(
            alpha=None if args.alpha is None else ser.parse_rational(args.alpha, "alpha"),
            delta=None if args.delta is None else ser.parse_rational(args.delta, "delta"),
        )
        result["constants"] = ser.to_json(tc)
    if has_function:
        f = _load_function(args, inputs)
        result["n"] = f.n
        result["sufficient"] = ser.to_json(sufficient_thresholds(f, epsilon))
        if rho is not None:
            result["necessary"] = ser.to_json(necessary_checks(f, rho))
    return result


# ---------------------------------------------------------------------------
# parser assembly


def _add_function_args(sp):
    sp.add_argument("--fn", help="boolsp-fn-v1 truth-table file")
    sp.add_argument("--ltf", help="boolsp-ltf-v1 threshold-form file")
    sp.add_argument("--ptf", help="boolsp-ptf-v1 polynomial-form file")


def _add_common(sp, formats=("json", "text")):
    sp.add_argument("--format", choices=formats, default="json")


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="boolsp",
        description="Self-predictability analysis of Boolean functions.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"boolsp {VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="structural properties and spectrum")
    _add_function_args(sp)
    _add_common(sp)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("region", help="exact SP region as closed intervals")
    _add_function_args(sp)
    sp.add_argument("--epsilon", default="1e-9", help="endpoint enclosure width")
    _add_common(sp)
    sp.set_defaults(func=_cmd_region)

    sp = sub.add_parser("classify", help="USP/LCSP/WST/SST flags plus the region")
    _add_function_args(sp)
    sp.add_argument("--epsilon", default="1e-9")
    _add_common(sp)
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("stability", help="stability, noise sensitivity, closeness")
    _add_function_args(sp)
    sp.add_argument("--rho", required=True, help='correlation as "p/q"')
    _add_common(sp)
    sp.set_defaults(func=_cmd_stability)

    sp = sub.add_parser("predict", help="optimal predictor sgn T_rho f")
    _add_function_args(sp)
    sp.add_argument("--rho", required=True)
    sp.add_argument("--tie-rule", dest="tie_rule", choices=("zero", "keep"),
                    default="zero")
    sp.add_argument("--out", help="write the predictor as a boolsp-fn-v1 file")
    _add_common(sp)
    sp.set_defaults(func=_cmd_predict)

    sp = sub.add_parser("compose", help="disjoint product or character composition")
    sp.add_argument("--plan", help="boolsp-plan-v1 file (character composition)")
    sp.add_argument("--left", help="function file (disjoint product)")
    sp.add_argument("--right", help="function file (disjoint product)")
    sp.add_argument("--out", help="write the composite as a boolsp-fn-v1 file")
    _add_common(sp)
    sp.set_defaults(func=_cmd_compose)

    sp = sub.add_parser("census", help="fraction of rho-SP functions at small n")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--rho", action="append", help="repeatable; exact \"p/q\"")
    sp.add_argument("--grid", type=int, help="also include k/GRID for k=0..GRID")
    sp.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
    sp.add_argument("--samples", type=int)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--checkpoint", help="JSON checkpoint for resumable scans")
    _add_common(sp, formats=("json", "csv", "text"))
    sp.set_defaults(func=_cmd_census)

    sp = sub.add_parser("orbit", help="iterate the keep-rule predictor to a fixpoint")
    _add_function_args(sp)
    sp.add_argument("--rho", required=True)
    sp.add_argument("--max-steps", dest="max_steps", type=int, default=256)
    _add_common(sp)
    sp.set_defaults(func=_cmd_orbit)

    sp = sub.add_parser("graph", help="predictor functional graph over all functions")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--rho", required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_graph)

    sp = sub.add_parser("thresholds", help="sufficient/necessary SP thresholds; "
                        "sharp-threshold constants via --alpha/--delta")
    _add_function_args(sp)
    sp.add_argument("--rho", help="evaluate the necessary conditions at this rho")
    sp.add_argument("--epsilon", default="1e-9")
    sp.add_argument("--alpha", help='rational > 1, e.g. "3/2"')
    sp.add_argument("--delta", help='rational in (0, 1/2), e.g. "9/100"')
    _add_common(sp)
    sp.set_defaults(func=_cmd_thresholds)

    return parser


# ---------------------------------------------------------------------------
# rendering


def _text_lines(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, np.ndarray):  # one line per item, as for its list
        obj = obj.tolist()
    if isinstance(obj, dict):
        for key in sorted(obj):
            val = obj[key]
            if isinstance(val, (dict, list, np.ndarray)):
                lines.append(f"{pad}{key}:")
                lines.extend(_text_lines(val, indent + 1))
            else:
                lines.append(f"{pad}{key} = {val}")
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, (dict, list, np.ndarray)):
                lines.append(f"{pad}-")
                lines.extend(_text_lines(val, indent + 1))
            else:
                lines.append(f"{pad}- {val}")
    else:
        lines.append(f"{pad}{obj}")
    return lines


def _envelope(args, inputs, result):
    skip = {"func", "format", "command"}
    config = {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }
    return {
        "tool": "boolsp",
        "version": VERSION,
        "command": args.command,
        "config": config,
        "inputs": inputs,
        "result": result,
    }


def main(argv=None):
    args = _build_parser().parse_args(argv)
    inputs = {}
    try:
        result = args.func(args, inputs)
    except BoolspError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if getattr(args, "format", "json") == "csv":
        sys.stdout.write(_census_csv(result))
        return 0
    envelope = _envelope(args, inputs, result)
    if args.format == "text":
        print(f"boolsp {VERSION} — {args.command}")
        for path, digest in sorted(inputs.items()):
            print(f"input {path} sha256={digest}")
        print("\n".join(_text_lines(result)))
    else:
        ser.write_json(envelope, sys.stdout.write)
    return 0


if __name__ == "__main__":
    sys.exit(main())
