"""Command-line front end.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 invalid
input, 3 resource refusal (a conditions matrix beyond the desk-scale
budget; only nagata takes --force to run it anyway).  Identical
configuration and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import (HypothesisFailed, IdentityFailure, LimitSeriesError,
                     ResourceLimit)
from .horace import (LineSystemModel, OracleScene, SpecializationPlan,
                     apply_theorem, hypothesis_check, limit_inclusion_check,
                     nagata_certificate, validate_plan)
from .interp import verify_nagata_theorem
from .linalg import DEFAULT_PRIME, is_prime
from .staircase import Staircase, StaircaseTuple, make_staircase, \
    is_quasi_regular, is_right_specialized, vertical_collision

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_RESOURCE = 3


def _add_output(parser):
    parser.add_argument("--json", action="store_true", dest="json_out")
    parser.add_argument("--output", default=None, help="write output to a file")


def _add_seed(parser):
    # argparse converts a string default with type, so a bad env value
    # is refused like a bad --seed
    parser.add_argument("--seed", type=int,
                        default=os.environ.get("LIMITSERIES_SEED") or "0",
                        help="RNG seed (fallback: LIMITSERIES_SEED, then 0)")


def _check_primes(args) -> None:
    for flag, p in (("--prime", args.prime), ("--prime2", args.prime2)):
        if p is not None and not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p is not None and p >= 2**62:
            raise ValueError(f"{flag} must be below 2^62")
    if args.prime2 == args.prime:
        raise ValueError("--prime2 must differ from --prime")


def _emit(args, text: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _dump(data) -> str:
    return json.dumps(data, indent=2)


def _parse_heights(text: str) -> Staircase:
    return make_staircase([int(v) for v in text.split(",") if v != ""])


def _load_staircase(args, attr="heights") -> Staircase:
    """Inline heights, or a file: JSON if it opens with { or [, else "i:h"."""
    inline = getattr(args, attr, None)
    if inline:
        return _parse_heights(inline)
    if getattr(args, "file", None):
        with open(args.file) as fh:
            data = fh.read()
        if data.lstrip().startswith(("{", "[")):
            return Staircase.from_json(json.loads(data))
        return Staircase.from_text(data)
    raise ValueError(f"--{attr} or --file is required")


def _heights_csv(E: Staircase) -> str:
    if E.dim == 1:
        return str(E.height(()))
    if E.is_empty:
        return ""
    ymax = max(k[0] for k in E.heights)
    return ",".join(str(E.height((y,))) for y in range(ymax + 1))


# ---------------------------------------------------------------------------
# staircase subcommand
# ---------------------------------------------------------------------------


def _cmd_staircase(args) -> int:
    if args.op == "suppress":
        E = _load_staircase(args)
        out = E.suppress(args.t)
        payload = {"op": "suppress", "t": args.t, "result": out.to_json()}
        text = _heights_csv(out)
    elif args.op == "slice":
        E = _load_staircase(args)
        out = E.slice(args.k)
        payload = {"op": "slice", "k": args.k, "result": out.to_json(),
                   "size": out.degree}
        text = str(out.degree)
    elif args.op == "collide":
        if args.a is None or args.b is None:
            raise ValueError("collide needs both --a and --b")
        A = _parse_heights(args.a)
        B = _parse_heights(args.b)
        out = vertical_collision(A, B)
        payload = {"op": "collide", "result": out.to_json()}
        text = _heights_csv(out)
    else:  # check; argparse restricts the choices
        E = _load_staircase(args)
        qr, m = is_quasi_regular(E)
        payload = {"op": "check", "staircase": E.to_json(),
                   "degree": E.degree, "quasi_regular": qr,
                   "witness_m": m,
                   "right_specialized": is_right_specialized(E)}
        text = "\n".join(f"{k}: {v}" for k, v in payload.items()
                         if k != "op")
    _emit(args, _dump(payload) if args.json_out else text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# nagata subcommand
# ---------------------------------------------------------------------------


def _cmd_nagata(args) -> int:
    _check_primes(args)
    run_oracle = args.oracle or not args.certificate
    if not run_oracle and (args.d_max is not None or args.trials is not None):
        raise ValueError("--d-max and --trials apply to the oracle table; "
                         "add --oracle")
    payload = {"k": args.k, "m": args.m, "seed": args.seed,
               "prime": args.prime}
    ok = True
    if run_oracle:
        report = verify_nagata_theorem(
            args.k, args.m, d_max=args.d_max,
            trials=3 if args.trials is None else args.trials,
            seed=args.seed, prime=args.prime, prime2=args.prime2,
            force=args.force)
        payload["oracle"] = report.to_json()
        ok = ok and report.passed
    if args.certificate:
        cert = nagata_certificate(args.k, args.m, seed=args.seed,
                                  prime=args.prime)
        payload["certificate"] = cert
        ok = ok and all(cert["identities"].values())
    if args.json_out:
        _emit(args, _dump(payload))
    else:
        lines = []
        if run_oracle:
            lines.append(report.to_csv().rstrip("\n"))
            lines.append(f"pass: {str(report.passed).lower()}")
        if args.certificate:
            lines.append(f"certificate identities: "
                         f"{payload['certificate']['identities']}")
        _emit(args, "\n".join(str(x) for x in lines))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# limit subcommand
# ---------------------------------------------------------------------------


def _schema_errors(value, schema, where="plan"):
    """Yield where value breaks schema, read in the draft-07 subset that
    plan.schema.json uses: type, minimum, minItems, required, properties,
    items (one schema for every item) and oneOf."""
    kind = schema.get("type")
    if kind and (isinstance(value, bool) or not isinstance(
            value, {"object": dict, "array": list, "integer": int}[kind])):
        yield f"{where} must be of type {kind}"
        return
    alts = schema.get("oneOf", ())
    if alts and sum(not any(_schema_errors(value, a, where))
                    for a in alts) != 1:
        yield f"{where} must match exactly one of its forms"
    if isinstance(value, int) and value < schema.get("minimum", value):
        yield f"{where} must be >= {schema['minimum']}"
    if isinstance(value, list) and len(value) < schema.get("minItems", 0):
        yield f"{where} needs at least {schema['minItems']} items"
    for i, item in enumerate(value if isinstance(value, list) else ()):
        yield from _schema_errors(item, schema.get("items", {}),
                                  f"{where}[{i}]")
    if isinstance(value, dict):
        yield from (f"{where} needs {key}"
                    for key in schema.get("required", ()) if key not in value)
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                yield from _schema_errors(value[key], sub, f"{where}.{key}")


def _load_plan_file(path):
    """Read a plan file; one that breaks plan.schema.json raises ValueError.
    A number with a zero fraction reads as an integer, as draft-07 counts
    it."""
    with open(os.path.join(os.path.dirname(__file__), "schemas",
                           "plan.schema.json")) as fh:
        schema = json.load(fh)
    with open(path) as fh:
        data = json.load(fh, parse_float=lambda text: int(float(text))
                         if float(text).is_integer() else float(text))
    problem = next(_schema_errors(data, schema), None)
    if problem:
        raise ValueError(f"invalid plan file: {problem}")
    spec, sc = data["model"], data.get("scene", {})
    shapes = [Staircase.from_json(E) if isinstance(E, dict)
              else make_staircase(E) for E in data["shapes"]]
    plan = SpecializationPlan(StaircaseTuple(shapes),
                              tuple(data["speeds"]), tuple(data["levels"]))
    model = LineSystemModel(degree=spec["degree"],
                            line_base_degrees=tuple(spec["line_base_degrees"]))
    scene = None
    if "scene" in data:
        scene = OracleScene(divisor_base=tuple(sc.get("divisor_base", ())),
                            ambient_base=tuple(sc.get("ambient_base", ())),
                            prime=sc.get("prime", DEFAULT_PRIME),
                            seed=sc.get("seed", 0))
    return plan, model, scene


def _cmd_limit(args) -> int:
    plan, model, scene = _load_plan_file(args.plan_file)
    if args.verify_limit and scene is None:
        raise ValueError("--verify-limit needs a scene in the plan file")
    findings = validate_plan(plan)
    payload = {"plan": plan.to_json(),
               "findings": [f.to_json() for f in findings]}
    mode = "oracle" if args.oracle else "degree-count"
    try:
        cert = apply_theorem(plan, model, mode=mode, scene=scene,
                             allow_boundary=args.allow_boundary,
                             seed=args.seed)
        payload["verdicts"] = cert.verdicts
        payload["certificate"] = cert.to_json()
        if args.verify_limit:
            contained, details = limit_inclusion_check(plan, model, scene,
                                                       seed=args.seed)
            payload["limit_inclusion"] = details
            if not contained:
                _report_limit(args, payload)
                return EXIT_CHECK_FAILED
    except (HypothesisFailed, IdentityFailure) as exc:
        # the certificate carries the verdicts; a refused plan has none
        payload["verdicts"] = hypothesis_check(plan, model, mode=mode,
                                               scene=scene, seed=args.seed)
        payload["error"] = str(exc)
        _report_limit(args, payload)
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    _report_limit(args, payload)
    return EXIT_OK


def _report_limit(args, payload) -> None:
    if args.json_out:
        _emit(args, _dump(payload))
        return
    lines = []
    for f in payload.get("findings", []):
        lines.append(f"[{f['severity']}] {f['code']}: {f['message']}")
    for v in payload.get("verdicts", []):
        lines.append(f"level {v['level']}: "
                     f"{'ok' if v['ok'] else 'FAILED'} ({v['mode']})")
    cert = payload.get("certificate")
    if cert:
        lines.append(f"r = {cert['r']}")
        lines.append(f"residual = {cert['residual']}")
    li = payload.get("limit_inclusion")
    if li:
        lines.append(f"limit inclusion: {li['contained']} "
                     f"(dim limit {li['dim_limit']}, target {li['dim_target']})")
    if "error" in payload:
        lines.append(f"error: {payload['error']}")
    _emit(args, "\n".join(lines) if lines else "ok")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limitseries",
        description="staircase combinatorics, interpolation oracles and "
                    "specialization certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("staircase", help="staircase operations")
    sp.add_argument("op", choices=["suppress", "slice", "collide", "check"])
    sp.add_argument("--heights", help="comma-separated heights, e.g. 3,2,1")
    sp.add_argument("--file", help="staircase file (text i:h lines or JSON)")
    sp.add_argument("--t", type=_nonnegative_int, default=0,
                    help="slice index to suppress")
    sp.add_argument("--k", type=_nonnegative_int, default=0,
                    help="slice index to take")
    sp.add_argument("--a", help="first staircase (collide)")
    sp.add_argument("--b", help="second staircase (collide)")
    _add_output(sp)
    sp.set_defaults(func=_cmd_staircase)

    np = sub.add_parser("nagata", help="verify the k^2 fat-point statement")
    np.add_argument("--k", type=int, required=True)
    np.add_argument("--m", type=int, required=True)
    np.add_argument("--oracle", action="store_true",
                    help="run the interpolation oracle table")
    np.add_argument("--certificate", action="store_true",
                    help="emit the replayable certificate chain")
    np.add_argument("--d-max", type=int, default=None)
    np.add_argument("--trials", type=int, default=None,
                    help="oracle trials per degree (default 3)")
    _add_seed(np)
    np.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    np.add_argument("--prime2", type=int, default=None,
                    help="second prime for a cross-check")
    np.add_argument("--force", action="store_true",
                    help="run an oracle table beyond the desk-scale budget")
    _add_output(np)
    np.set_defaults(func=_cmd_nagata)

    lp = sub.add_parser("limit", help="validate and apply a specialization plan")
    lp.add_argument("plan_file")
    lp.add_argument("--verify-limit", action="store_true",
                    help="run the direct flat-limit containment check")
    lp.add_argument("--oracle", action="store_true",
                    help="check hypotheses by oracle instead of degree count")
    lp.add_argument("--allow-boundary", action="store_true")
    _add_seed(lp)
    _add_output(lp)
    lp.set_defaults(func=_cmd_limit)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimit as exc:
        print(f"resource refusal: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except LimitSeriesError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
