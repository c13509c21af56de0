"""Command-line front end: quadrature, joint, and selftest subcommands."""
from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext

from . import io as lio
from . import joint as joint_ops
from .basis import Family
from .datagen import generate, load_scenario
from .errors import ConditioningError, ConfigurationError, InputDataError, RhoMismatchError
from .pipeline import DEFAULT_ORDER, analyze
from .selftest import run_selftest
from .spectral import DEFAULT_EPSILON

EXIT_INPUT = 2
EXIT_CONDITIONING = 3
EXIT_MISMATCH = 4


def _add_common(parser):
    src = parser.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="CSV file with header x,w,f,g (w, g optional)")
    src.add_argument("--scenario", help="built-in scenario name or scenario file path")
    parser.add_argument("--n", type=int, default=DEFAULT_ORDER, help="quadrature order")
    parser.add_argument("--basis", default="chebyshev", choices=[f.value for f in Family],
                        help="polynomial family of the JSON alpha coefficients only; every "
                             "solve and every CSV output is the same for all three")
    parser.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON,
                        help="Gram rank threshold, relative to lambda_max")
    parser.add_argument("--format", default="json", choices=["json", "csv"])
    parser.add_argument("--output", help="output file (default: stdout)")
    parser.add_argument("--seed", type=int, help="override the scenario seed")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lebquad",
        description="Lebesgue integral quadratures and joint distribution "
                    "estimation from weighted samples of two processes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_quad = sub.add_parser("quadrature", help="compute Lebesgue quadratures")
    _add_common(p_quad)

    p_joint = sub.add_parser("joint", help="compute joint distribution matrices")
    _add_common(p_joint)
    p_joint.add_argument("--kinds", default="value,probability",
                         help="comma list from: " + ",".join(joint_ops.KINDS))
    p_joint.add_argument("--rho", default="unit",
                         help="density operator: unit | identity | spectral:<path>")

    sub.add_parser("selftest", help="run the built-in identity suite")
    return parser


def _load_samples(args):
    if args.input:
        if args.seed is not None:
            raise ConfigurationError("--seed applies only to --scenario")
        return lio.read_samples_csv(args.input)
    spec = load_scenario(args.scenario)
    if args.seed is not None:
        from dataclasses import replace
        spec = replace(spec, seed=args.seed)
    return generate(spec)


def _write(args, result, joint_matrices=()):
    """Writes the results to --output, opened once any JSON document is built, or to stdout."""
    doc = (lio.result_document(result, args.epsilon, joint_matrices)
           if args.format == "json" else None)
    try:
        with (open(args.output, "w", encoding="utf-8") if args.output
              else nullcontext(sys.stdout)) as out:
            if doc is not None:
                lio.write_json(out, doc)
            else:
                lio.write_csv(out, result, joint_matrices)
            out.flush()
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise InputDataError(f"cannot write {args.output or 'standard output'}: {exc}") from None


def cmd_quadrature(args) -> int:
    samples = _load_samples(args)
    result = analyze(samples, n=args.n, family=args.basis, epsilon=args.epsilon)
    _write(args, result)
    return 0


def _resolve_rho(args, result):
    if args.rho == "unit":
        return joint_ops.density_from_pure_unit(result.quad_f)
    if args.rho == "identity":
        return joint_ops.density_identity(result.n)
    if args.rho.startswith("spectral:"):
        lam, vectors = lio.read_spectral_rho(args.rho.removeprefix("spectral:"))
        try:
            rho = joint_ops.density_from_spectral(lam, vectors)
        except InputDataError as exc:
            raise RhoMismatchError(str(exc)) from None
        if rho.n != result.n:
            raise RhoMismatchError(f"rho has order {rho.n}, run has order {result.n}")
        return rho
    raise ConfigurationError(f"unknown rho source {args.rho!r}")


def cmd_joint(args) -> int:
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    if not kinds:
        raise ConfigurationError("no correlation kinds requested")
    for kind in kinds:
        if kind not in joint_ops.KINDS:
            raise ConfigurationError(f"unknown correlation kind {kind!r}")
        if kinds.count(kind) > 1:
            raise ConfigurationError(f"correlation kind {kind!r} listed more than once")
    samples = _load_samples(args)
    if not samples.has_g:
        raise InputDataError("joint estimation needs a g column")
    result = analyze(samples, n=args.n, family=args.basis, epsilon=args.epsilon)
    S = result.projection()
    rho = _resolve_rho(args, result)
    matrices = [result.correlation(kind, rho=rho, S=S) for kind in kinds]
    _write(args, result, matrices)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "selftest":
        return run_selftest()
    try:
        if args.command == "quadrature":
            return cmd_quadrature(args)
        return cmd_joint(args)
    except (InputDataError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConditioningError as exc:
        print(f"conditioning error: {exc}", file=sys.stderr)
        return EXIT_CONDITIONING
    except RhoMismatchError as exc:
        print(f"rho mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
