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
* Function files: see the formats documented in the epilog of --help.
"""

import argparse
import functools
import os
import sys
from dataclasses import asdict
from decimal import Decimal, InvalidOperation
from fractions import Fraction

import numpy as np

from . import serialize as ser
from .config import VERSION, check_cap
from .constructs import character_compose, product_compose
from .errors import BoolspError, InvalidArgument
from .experiments import graph_scan, predictor_orbit, sp_fraction, threshold_constants
from .functions import dominating_boundary_points, properties
from .noise import (
    _closeness_to_sp,
    _prediction_gain,
    _scaled_signs,
    _stability_report,
    check_rho,
    optimal_predictor,
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

environment: BOOLSP_CAP_N (the --cap-n flag takes precedence).
"""


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
    obj = ser.load_json(path)
    found = obj.get("format") if isinstance(obj, dict) else None
    if found != expected:
        raise InvalidArgument(f"{path}: expected format {expected}, found {found!r}")
    inputs[path] = ser.file_digest(path)
    return ser.function_from_obj(obj, cap=args.cap_n)


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
# payload builders


def _summary_json(s):
    return {
        "weights": [ser.rational(w) for w in s.weights],
        "degree": s.degree,
        "level": s.level,
        "spectral_norm": ser.rational(s.spectral_norm),
        "chow": [ser.rational(c) for c in s.chow],
        "gap": ser.rational(s.gap),
        "influences": None
        if s.influences is None
        else [ser.rational(x) for x in s.influences],
    }


def _endpoint_json(ep):
    return None if ep is None else ser.endpoint_to_json(ep)


def _classification_json(c):
    return {
        "usp": c.usp,
        "lcsp": c.lcsp,
        "wst": c.wst,
        "sst": c.sst,
        "monotonically_sp": c.monotonically_sp,
        "rho0": _endpoint_json(c.rho0),
        "level": c.lev,
        "level_zero_count": c.lev_zero_count,
        "witnesses": dict(sorted(c.witnesses.items())),
        "region": ser.region_to_json(c.region),
    }


def _stability_json(rep):
    return {
        "stab": ser.rational(rep.stab),
        "stab_star": ser.rational(rep.stab_star),
        "ns": ser.rational(rep.ns),
        "ns_star": ser.rational(rep.ns_star),
    }


def _sufficient_json(t):
    return {
        "no_flip": _endpoint_json(t.no_flip),
        "degree_bound": ser.rational(t.degree_bound),
        "sparsity_bound": _endpoint_json(t.sparsity_bound),
    }


def _necessary_json(nc):
    return {
        "rho": ser.rational(nc.rho),
        "basic_ok": nc.basic_ok,
        "hyper_ok": nc.hyper_ok,  # null = indeterminate within the e^-2 band
        "stab": ser.rational(nc.stab),
        "max_term": ser.rational(nc.max_term),
        "hyper_rhs_lo": ser.rational(nc.hyper_rhs_lo),
        "hyper_rhs_hi": ser.rational(nc.hyper_rhs_hi),
    }


def _constants_json(tc):
    return {
        "alpha": None if tc.alpha is None else ser.rational(tc.alpha),
        "eta_alpha": None if tc.eta_alpha is None else ser.rational(tc.eta_alpha),
        "delta": None if tc.delta is None else ser.rational(tc.delta),
        "eta_delta": tc.eta_delta,
        "eta_delta_defined": tc.eta_delta_defined,
        "eta_delta_reason": tc.eta_delta_reason,
        "delta_max": tc.delta_max,
    }


# ---------------------------------------------------------------------------
# subcommand handlers (args -> (result, inputs))


def _cmd_analyze(args):
    inputs = {}
    f = _load_function(args, inputs)
    props = asdict(properties(f))
    result = {
        "n": f.n,
        "properties": props,
        "summary": _summary_json(_spectral_summary(f, props["monotone"])),
        "spectrum": ser.spectrum_to_json(wht(f)),
    }
    if props["monotone"]:
        boundary = dominating_boundary_points(f)
        result["dominating_boundary_count"] = len(boundary)
        if f.n <= 12:
            result["dominating_boundary"] = boundary
    return result, inputs


def _cmd_region(args):
    inputs = {}
    f = _load_function(args, inputs)
    region = sp_region(f, _parse_epsilon(args.epsilon))
    return {"n": f.n, "region": ser.region_to_json(region)}, inputs


def _cmd_classify(args):
    inputs = {}
    f = _load_function(args, inputs)
    c = classify(f, _parse_epsilon(args.epsilon))
    result = {"n": f.n, "classification": _classification_json(c)}
    return result, inputs


def _cmd_stability(args):
    inputs = {}
    f = _load_function(args, inputs)
    rho = check_rho(ser.parse_rational(args.rho, "rho"))
    signs = _scaled_signs(f, rho)  # one T_rho sign stream serves all three reports
    rep = _stability_report(f, rho, signs)
    close = _closeness_to_sp(f, rho, signs, ties_agree=True)
    result = {
        "n": f.n,
        "rho": ser.rational(rho),
        "stability": _stability_json(rep),
        "closeness": {
            "distance": ser.rational(close.distance),
            "bound": ser.rational(close.bound),
        },
        "necessary": _necessary_json(necessary_checks(f, rho)),
    }
    if rep.stab != 0:
        gain = _prediction_gain(f, rep)
        result["gain"] = {
            "ratio": ser.rational(gain.ratio),
            "l1_level1": ser.rational(gain.l1_level1),
            "w1": ser.rational(gain.w1),
            "khintchine_ok": gain.khintchine_ok,
        }
    else:
        result["gain"] = None
    return result, inputs


def _cmd_predict(args):
    if args.out:
        _check_writable(args.out)
    inputs = {}
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
    return result, inputs


def _cmd_compose(args):
    if args.out:
        _check_writable(args.out)
    inputs = {}
    if args.plan:
        if args.left or args.right:
            raise InvalidArgument("--plan excludes --left/--right")
        outer, plan = ser.load_plan(args.plan, cap=args.cap_n)
        inputs[args.plan] = ser.file_digest(args.plan)
        g = character_compose(outer, plan, cap=args.cap_n)
        kind = "character"
    else:
        if not (args.left and args.right):
            raise InvalidArgument("compose needs --plan or both --left and --right")
        left = ser.load_function(args.left, cap=args.cap_n)
        right = ser.load_function(args.right, cap=args.cap_n)
        inputs[args.left] = ser.file_digest(args.left)
        inputs[args.right] = ser.file_digest(args.right)
        g = product_compose(left, right, cap=args.cap_n)
        kind = "product"
    if args.out:
        _write_function(args.out, g)
    return {
        "kind": kind,
        "n": g.n,
        "function": ser.function_to_json(g),
        "properties": asdict(properties(g)),
    }, inputs


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


def _cmd_census(args):
    rhos = []
    if args.grid is not None:
        if args.grid < 1:
            raise InvalidArgument("--grid must be >= 1")
        rhos.extend(Fraction(k, args.grid) for k in range(args.grid + 1))
    for text in args.rho or []:
        rhos.append(ser.parse_rational(text, "rho"))
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
    }, {}


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


def _cmd_orbit(args):
    inputs = {}
    f = _load_function(args, inputs)
    rho = ser.parse_rational(args.rho, "rho")
    rep = predictor_orbit(f, rho, max_steps=args.max_steps)
    result = {
        "rho": ser.rational(rho),
        "status": rep.status,
        "trajectory_length": rep.trajectory_length,
        "terminal": None if rep.terminal is None else ser.function_to_json(rep.terminal),
        "cycle_start": rep.cycle_start,
        "cycle_length": rep.cycle_length,
    }
    if rep.status == "cycle":
        result["note"] = "CYCLE FOUND: counterexample to the no-cycles conjecture"
    return result, inputs


def _cmd_graph(args):
    rho = ser.parse_rational(args.rho, "rho")
    scan = graph_scan(args.n, rho)
    return {
        "n": scan.n,
        "rho": ser.rational(rho),
        "num_functions": scan.num_functions,
        "num_fixpoints": scan.num_fixpoints,
        "num_components": scan.num_components,
        "max_depth": scan.max_depth,
        "cycles": [list(c) for c in scan.cycles],  # members are table-bit ids
    }, {}


def _cmd_thresholds(args):
    inputs = {}
    result = {}
    if args.fn or args.ltf or args.ptf:
        f = _load_function(args, inputs)
        result["n"] = f.n
        result["sufficient"] = _sufficient_json(
            sufficient_thresholds(f, _parse_epsilon(args.epsilon))
        )
        if args.rho:
            result["necessary"] = _necessary_json(
                necessary_checks(f, ser.parse_rational(args.rho, "rho"))
            )
    if args.alpha or args.delta:
        tc = threshold_constants(
            alpha=ser.parse_rational(args.alpha, "alpha") if args.alpha else None,
            delta=ser.parse_rational(args.delta, "delta") if args.delta else None,
        )
        result["constants"] = _constants_json(tc)
    if not result:
        raise InvalidArgument(
            "thresholds needs a function (--fn/--ltf/--ptf) or --alpha/--delta"
        )
    return result, inputs


# ---------------------------------------------------------------------------
# parser assembly


def _add_function_args(sp):
    sp.add_argument("--fn", help="boolsp-fn-v1 truth-table file")
    sp.add_argument("--ltf", help="boolsp-ltf-v1 threshold-form file")
    sp.add_argument("--ptf", help="boolsp-ptf-v1 polynomial-form file")


def _add_common(sp, formats=("json", "text")):
    sp.add_argument("--format", choices=formats, default="json")
    sp.add_argument("--cap-n", dest="cap_n", type=int, default=None,
                    help="dense-table cap override, at most 31 "
                         "(default: BOOLSP_CAP_N or 24)")


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
    if getattr(args, "cap_n", None) is not None:
        try:
            check_cap(1, args.cap_n)
        except BoolspError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    try:
        result, inputs = args.func(args)
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
        sys.stdout.write(ser.canonical_json(envelope))
    return 0


if __name__ == "__main__":
    sys.exit(main())
