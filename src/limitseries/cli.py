"""Command-line front end.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 invalid
input, 3 resource refusal (desk-scale limit hit without --force).
Identical configuration and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .errors import (DomainError, HypothesisFailed, LimitSeriesError,
                     MonotonicityViolation, PrimeTooSmall, ResourceLimit)
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


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (fallback: LIMITSERIES_SEED, then 0)")
    parser.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    parser.add_argument("--prime2", type=int, default=None,
                        help="second prime for a cross-check")
    parser.add_argument("--x-cap", type=int, default=24,
                        help="x-degree budget; computations needing more "
                             "are refused without --force")
    parser.add_argument("--json", action="store_true", dest="json_out")
    parser.add_argument("--force", action="store_true")
    parser.add_argument("--output", default=None, help="write output to a file")


@dataclass(frozen=True)
class RunConfig:
    """Validated command-line configuration."""

    seed: int
    prime: int
    prime2: int | None
    x_cap: int
    json_out: bool
    force: bool
    output: str | None

    @classmethod
    def from_args(cls, args) -> "RunConfig":
        seed = args.seed
        if seed is None:
            env = os.environ.get("LIMITSERIES_SEED")
            seed = int(env) if env else 0
        if not is_prime(args.prime):
            raise ValueError(f"{args.prime} is not prime")
        if args.prime >= 2**62:
            raise ValueError("prime must be below 2^62")
        if args.prime2 is not None and not is_prime(args.prime2):
            raise ValueError(f"{args.prime2} is not prime")
        if args.x_cap < 1:
            raise ValueError("caps must be positive")
        return cls(seed, args.prime, args.prime2, args.x_cap, args.json_out,
                   args.force, args.output)


def _config(args) -> RunConfig | None:
    try:
        return RunConfig.from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


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
    """Inline heights, or a file in the text ("i:h" lines) or JSON format."""
    inline = getattr(args, attr, None)
    if inline:
        return _parse_heights(inline)
    if getattr(args, "file", None):
        with open(args.file) as fh:
            data = fh.read()
        if data.lstrip().startswith("{"):
            return Staircase.from_json(data)
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
    if _config(args) is None:
        return EXIT_INVALID
    try:
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
        elif args.op == "check":
            E = _load_staircase(args)
            qr, m = is_quasi_regular(E)
            payload = {"op": "check", "staircase": E.to_json(),
                       "degree": E.degree, "quasi_regular": qr,
                       "witness_m": m,
                       "right_specialized": is_right_specialized(E)}
            text = "\n".join(f"{k}: {v}" for k, v in payload.items()
                             if k != "op")
        else:  # pragma: no cover - argparse restricts choices
            raise ValueError(f"unknown staircase op {args.op}")
    except (MonotonicityViolation, ValueError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    _emit(args, _dump(payload) if args.json_out else text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# nagata subcommand
# ---------------------------------------------------------------------------


def _cmd_nagata(args) -> int:
    cfg = _config(args)
    if cfg is None:
        return EXIT_INVALID
    run_oracle = args.oracle or not args.certificate
    payload = {"k": args.k, "m": args.m, "seed": cfg.seed, "prime": cfg.prime}
    ok = True
    try:
        if run_oracle:
            report = verify_nagata_theorem(
                args.k, args.m, d_max=args.d_max, trials=args.trials,
                seed=cfg.seed, prime=cfg.prime, prime2=cfg.prime2,
                force=cfg.force)
            payload["oracle"] = report.to_json()
            ok = ok and report.passed
        if args.certificate:
            cert = nagata_certificate(args.k, args.m, seed=cfg.seed,
                                      prime=cfg.prime)
            payload["certificate"] = cert
            ok = ok and all(cert["identities"].values())
    except ResourceLimit as exc:
        print(f"resource refusal: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, DomainError, PrimeTooSmall) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (HypothesisFailed, LimitSeriesError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
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


def _load_plan_file(path):
    with open(path) as fh:
        data = json.load(fh)
    shapes = []
    for entry in data["shapes"]:
        if isinstance(entry, dict):
            shapes.append(Staircase.from_json(entry))
        else:
            shapes.append(make_staircase(entry))
    plan = SpecializationPlan(StaircaseTuple(shapes),
                              tuple(data["speeds"]), tuple(data["levels"]))
    model = LineSystemModel(degree=data["model"]["degree"],
                            line_base_degrees=tuple(
                                data["model"]["line_base_degrees"]))
    scene = None
    if "scene" in data:
        sc = data["scene"]
        scene = OracleScene(divisor_base=tuple(sc.get("divisor_base", ())),
                            ambient_base=tuple(sc.get("ambient_base", ())),
                            prime=sc.get("prime", DEFAULT_PRIME),
                            seed=sc.get("seed", 0))
    return plan, model, scene


def _cmd_limit(args) -> int:
    cfg = _config(args)
    if cfg is None:
        return EXIT_INVALID
    try:
        plan, model, scene = _load_plan_file(args.plan_file)
    except (OSError, KeyError, ValueError, MonotonicityViolation,
            json.JSONDecodeError) as exc:
        print(f"invalid plan file: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if model.degree > cfg.x_cap and not cfg.force:
        print(f"resource refusal: degree {model.degree} exceeds --x-cap "
              f"{cfg.x_cap}", file=sys.stderr)
        return EXIT_RESOURCE
    findings = validate_plan(plan)
    payload = {"plan": plan.to_json(),
               "findings": [f.to_json() for f in findings]}
    mode = "oracle" if args.oracle else "degree-count"
    try:
        verdicts = hypothesis_check(plan, model, mode=mode, scene=scene,
                                    seed=cfg.seed)
        payload["verdicts"] = verdicts
        cert = apply_theorem(plan, model, mode=mode, scene=scene,
                             allow_boundary=args.allow_boundary, seed=cfg.seed)
        payload["certificate"] = cert.to_json()
        if args.verify_limit:
            if scene is None:
                print("error: --verify-limit needs a scene in the plan file",
                      file=sys.stderr)
                return EXIT_INVALID
            contained, details = limit_inclusion_check(plan, model, scene,
                                                       seed=cfg.seed)
            payload["limit_inclusion"] = details
            if not contained:
                _report_limit(args, payload)
                return EXIT_CHECK_FAILED
    except ResourceLimit as exc:
        print(f"resource refusal: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except PrimeTooSmall as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (HypothesisFailed, LimitSeriesError) as exc:
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
    _add_common(sp)
    sp.set_defaults(func=_cmd_staircase)

    np = sub.add_parser("nagata", help="verify the k^2 fat-point statement")
    np.add_argument("--k", type=int, required=True)
    np.add_argument("--m", type=int, required=True)
    np.add_argument("--oracle", action="store_true",
                    help="run the interpolation oracle table")
    np.add_argument("--certificate", action="store_true",
                    help="emit the replayable certificate chain")
    np.add_argument("--d-max", type=int, default=None)
    np.add_argument("--trials", type=int, default=3)
    _add_common(np)
    np.set_defaults(func=_cmd_nagata)

    lp = sub.add_parser("limit", help="validate and apply a specialization plan")
    lp.add_argument("plan_file")
    lp.add_argument("--verify-limit", action="store_true",
                    help="run the direct flat-limit containment check")
    lp.add_argument("--oracle", action="store_true",
                    help="check hypotheses by oracle instead of degree count")
    lp.add_argument("--allow-boundary", action="store_true")
    _add_common(lp)
    lp.set_defaults(func=_cmd_limit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
