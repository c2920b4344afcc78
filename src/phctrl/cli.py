"""Command-line entry point wiring all modules together.

Configuration layering, later wins: built-in defaults, the PHGEN_SEED
environment variable (seed only), an optional --config JSON file, then
explicit flags.  The effective configuration is echoed into every
report, and rerunning from an echoed configuration reproduces the
report byte for byte except for wall_time.

One table drives the parser and the layering: a catalogue declares each
config key once (its flag, spelled --<key with - for _>, its help, and
the JSON types a config file may give it), and a command table lists per
subcommand its handler, its I/O flags and the keys it takes with their
defaults.  Config-file values are checked against the catalogue, never
converted, so a bad one is a usage error.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable, NamedTuple, Sequence

from .core import (
    DEFAULT_SYMMETRY_TOL,
    Dims,
    ScalarField,
    dumps_system,
    system_from_dict,
    system_to_dict,
    validate_ph,
)
from .ctrb import (
    DEFAULT_PBH_TOL,
    canonical_witness,
    kalman_matrix,
    pbh_check,
    rank_svd,
)
from .errors import PhctrlError
from .experiments import (
    CHUNK,
    GridSpec,
    PI_SQUARED_THIRD,
    csv_table,
    distance_to_uncontrollability,
    prop1_membership,
    prop1_partial_measure,
    report_json,
    run_genericity_trial,
    run_nowhere_density_probe,
)
from .sample import (
    SamplerSpec,
    ShiftedGram,
    Wishart,
    sample_ph,
    sample_pht,
    sample_uncontrollable,
    stream,
    streams,
)
from .vectorize import dumps_packed, pack, packed_from_dict, unpack

DEFAULT_EPS_GRID = [0.0, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1]


class _UsageError(Exception):
    pass


def _read_json_input(path: str | None):
    if path in (None, "-"):
        return json.load(sys.stdin)
    with open(path) as fp:
        return json.load(fp)


def _write_text(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fp:
            fp.write(text)


# ---------------------------------------------------------------------------
# option catalogue: every config key once
# ---------------------------------------------------------------------------


def _finite(value) -> bool:
    """A number, or every number of a list, is neither NaN nor +-Inf."""
    items = value if type(value) is list else [value]
    try:
        return all(math.isfinite(x) for x in items)
    except OverflowError:  # an int beyond the float range
        return False


class _Key(NamedTuple):
    json_types: tuple  # what a config file may give; checked, never converted
    flag: dict         # argparse keywords of --<key with - for _>
    help: str
    # (test, wording) every effective non-null value must pass, whatever
    # layer it came from
    rule: tuple[Callable[[object], bool], str] | None = None


def _at_least(low: int) -> tuple[Callable[[object], bool], str]:
    return (lambda value: value >= low, f"at least {low}")


_FINITE = (_finite, "finite")
_POSITIVE_COUNT = _at_least(1)
_INT = (int,)
_NUMBER = (int, float)
_OR_NULL = (type(None),)
_BOOL = (bool,)
_FLOAT_FLAG = {"type": float}
_INT_FLAG = {"type": int}
_SWITCH = {"action": argparse.BooleanOptionalAction}

_KEYS = {
    "n": _Key(_INT, _INT_FLAG, "state dimension", _POSITIVE_COUNT),
    "m": _Key(_INT, _INT_FLAG, "input dimension", _POSITIVE_COUNT),
    "field": _Key((str,), {"choices": ("real", "complex")}, "scalar field"),
    "kind": _Key((str,), {"choices": ("ph", "pht", "uncontrollable")},
                 "H positive definite, H indefinite, or k unreachable states"),
    "k": _Key(_INT, _INT_FLAG, "unreachable states (kind=uncontrollable)",
              _POSITIVE_COUNT),
    "h_law": _Key((str,), {"choices": ("wishart", "shifted-gram")},
                  "law of H (a config file may also write shifted_gram)"),
    "wishart_p": _Key(_INT + _OR_NULL, _INT_FLAG, "Wishart degrees of freedom (n if unset)"),
    "gram_eps": _Key(_NUMBER, _FLOAT_FLAG, "spectral floor of the shifted-Gram law", _FINITE),
    "j_scale": _Key(_NUMBER, _FLOAT_FLAG, "scale of J", _FINITE),
    "b_scale": _Key(_NUMBER, _FLOAT_FLAG, "scale of B", _FINITE),
    "seed": _Key(_INT, _INT_FLAG, "master seed"),
    "count": _Key(_INT, _INT_FLAG, "number of systems, at least 1", _POSITIVE_COUNT),
    "trials": _Key(_INT, _INT_FLAG, "number of draws", _POSITIVE_COUNT),
    "cross_check": _Key(_BOOL, _SWITCH, "also run the PBH test on every draw"),
    "rank_rel_tol": _Key(_NUMBER + _OR_NULL, _FLOAT_FLAG,
                         "SVD rank threshold relative to sigma_max", _FINITE),
    "eps_grid": _Key((str, list), {},
                     "comma-separated step sizes, e.g. 0,1e-8,1e-4 (a config "
                     "file may give a list)", _FINITE),
    "trials_per_eps": _Key(_INT, _INT_FLAG, "perturbations per step size", _POSITIVE_COUNT),
    "max_retries": _Key(_INT, _INT_FLAG, "step halvings allowed per perturbation",
                        _at_least(0)),
    "tol": _Key(_NUMBER, _FLOAT_FLAG, "symmetry residual gate", _FINITE),
    "ph": _Key(_BOOL, _SWITCH, "also require H positive definite"),
    "delta": _Key(_NUMBER + _OR_NULL, _FLOAT_FLAG, "positive definiteness margin", _FINITE),
    "pbh_tol": _Key(_NUMBER, _FLOAT_FLAG, "PBH threshold relative to ||JH|| + ||B||", _FINITE),
    "grid_points": _Key(_INT, _INT_FLAG, "grid points per axis", _at_least(3)),
    "refine_levels": _Key(_INT, _INT_FLAG, "grid refinement levels", _at_least(0)),
    "margin": _Key(_NUMBER, _FLOAT_FLAG, "grid half-width beyond ||JH||", _FINITE),
    "i_max": _Key(_INT, _INT_FLAG, "number of intervals", _POSITIVE_COUNT),
    "x": _Key(_NUMBER + _OR_NULL, _FLOAT_FLAG, "point to test for coverage", _FINITE),
}

# input/output flags, which are not config keys
_IO_FLAGS = {
    "in": (("--in",), {"dest": "infile", "help": "input path, - for stdin"}),
    "out": (("--out", "-o"), {"help": "output path, - for stdout"}),
    "json": (("--json",), {"dest": "json_out", "metavar": "PATH",
                           "help": "write the JSON report to PATH"}),
    "csv": (("--csv",), {"dest": "csv_out", "metavar": "PATH",
                         "help": "write the CSV table to PATH"}),
}


def _check_config_value(path: str, key: str, value) -> None:
    spec = _KEYS[key]
    ok = type(value) in spec.json_types
    if ok and "choices" in spec.flag:
        ok = value.replace("_", "-") in spec.flag["choices"]
    if ok and type(value) is list:
        ok = all(type(x) in _NUMBER for x in value)
    if not ok:
        raise _UsageError(f"config file {path}: invalid value {value!r} for {key}")


def _effective_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge defaults, PHGEN_SEED, the --config file, and explicit flags."""
    cfg = dict(defaults)
    env_seed = os.environ.get("PHGEN_SEED")
    if env_seed is not None and "seed" in cfg:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise _UsageError(f"PHGEN_SEED must be an integer, got {env_seed!r}")
    config_path = args.config
    if config_path:
        with open(config_path) as fp:
            try:
                data = json.load(fp)
            except json.JSONDecodeError as e:
                raise _UsageError(f"config file {config_path}: {e}")
        if not isinstance(data, dict):
            raise _UsageError(f"config file {config_path} must hold a JSON object")
        unknown = set(data) - set(defaults)
        if unknown:
            raise _UsageError(
                f"config file {config_path} has unknown keys: {sorted(unknown)}"
            )
        for key, value in data.items():
            _check_config_value(config_path, key, value)
        cfg.update(data)
    for key in defaults:
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    if "h_law" in cfg:
        cfg["h_law"] = cfg["h_law"].replace("-", "_")
    if isinstance(cfg.get("eps_grid"), str):
        try:
            cfg["eps_grid"] = [float(tok) for tok in cfg["eps_grid"].split(",") if tok.strip()]
        except ValueError:
            raise _UsageError(f"cannot parse eps grid {cfg['eps_grid']!r}")
    for key, value in cfg.items():
        rule = _KEYS[key].rule
        if rule is not None and value is not None and not rule[0](value):
            raise _UsageError(f"{key} must be {rule[1]}, got {value!r}")
    return cfg


def _sampler_spec(cfg: dict) -> SamplerSpec:
    if cfg["h_law"] == "wishart":
        law = Wishart(cfg["wishart_p"])
    else:
        law = ShiftedGram(cfg["gram_eps"])
    return SamplerSpec(
        dims=Dims(cfg["n"], cfg["m"]),
        field=ScalarField(cfg["field"]),
        j_scale=cfg["j_scale"],
        h_law=law,
        b_scale=cfg["b_scale"],
        seed=cfg["seed"],
    )


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_witness(args: argparse.Namespace, cfg: dict) -> int:
    system = canonical_witness(cfg["n"], cfg["m"])
    _write_text(args.out, dumps_system(system, indent=2) + "\n")
    return 0


def _cmd_validate(args: argparse.Namespace, cfg: dict) -> int:
    system = system_from_dict(_read_json_input(args.infile), tol=cfg["tol"])
    message = "valid structured system (J skew-adjoint, H self-adjoint)"
    if cfg["ph"]:
        ph = validate_ph(system, cfg["delta"])
        message = f"valid port-Hamiltonian system, pd_margin {ph.pd_margin!r}"
    _write_text(args.out, dumps_system(system, indent=2) + "\n")
    print(message, file=sys.stderr)
    return 0


def _cmd_pack(args: argparse.Namespace, cfg: dict) -> int:
    system = system_from_dict(_read_json_input(args.infile), tol=cfg["tol"])
    _write_text(args.out, dumps_packed(pack(system), indent=2) + "\n")
    return 0


def _cmd_unpack(args: argparse.Namespace, cfg: dict) -> int:
    v = packed_from_dict(_read_json_input(args.infile))
    _write_text(args.out, dumps_system(unpack(v), indent=2) + "\n")
    return 0


def _cmd_sample(args: argparse.Namespace, cfg: dict) -> int:
    spec = _sampler_spec(cfg)
    count = cfg["count"]
    lines = []
    for start in range(0, count, CHUNK):  # one chunk of generators alive at a time
        for rng in streams(cfg["seed"], (), range(start, min(start + CHUNK, count))):
            if cfg["kind"] == "ph":
                system = sample_ph(spec, rng)
            elif cfg["kind"] == "pht":
                system = sample_pht(spec, rng)
            else:
                system = sample_uncontrollable(
                    spec.dims, cfg["k"], rng, spec.field,
                    j_scale=cfg["j_scale"], b_scale=cfg["b_scale"],
                )
            lines.append(json.dumps(system_to_dict(system), separators=(",", ":")))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_check(args: argparse.Namespace, cfg: dict) -> int:
    system = system_from_dict(_read_json_input(args.infile), tol=cfg["tol"])
    report = rank_svd(kalman_matrix(system), cfg["rank_rel_tol"])
    pbh = pbh_check(system, cfg["pbh_tol"])
    out = {
        "rank": report.rank,
        "sv": list(report.singular_values),
        "tol": report.tol_used,
        "controllable": report.controllable,
        "pbh_agrees": pbh == report.controllable,
    }
    _write_text(args.out, json.dumps(out, indent=2) + "\n")
    return 0


def _cmd_mc_genericity(args: argparse.Namespace, cfg: dict) -> int:
    spec = _sampler_spec(cfg)
    echo = {"subcommand": "mc-genericity", **cfg}
    report = run_genericity_trial(
        spec, cfg["trials"],
        cross_check=cfg["cross_check"],
        rank_rel_tol=cfg["rank_rel_tol"],
        config_echo=echo,
    )
    stats = report.sigma_n_stats
    print(
        f"mc-genericity: n={cfg['n']} m={cfg['m']} field={cfg['field']} "
        f"trials={report.trials} seed={cfg['seed']}"
    )
    print(
        f"controllable fraction: {report.fraction!r} "
        f"({report.controllable_count}/{report.trials})"
    )
    print(
        f"sigma_n of reachability matrix: min {stats['min']:.6e} "
        f"median {stats['median']:.6e} max {stats['max']:.6e}"
    )
    if report.pbh_agreements is not None:
        print(f"PBH cross-check agreements: {report.pbh_agreements}/{report.trials}")
    if args.json_out:
        _write_text(args.json_out, report.to_json() + "\n")
    if args.csv_out:
        row = {"n": cfg["n"], "m": cfg["m"], "field": cfg["field"], "trials": report.trials,
               "controllable_count": report.controllable_count, "fraction": report.fraction,
               "min_sigma_n": report.min_sigma_n, "seed": cfg["seed"]}
        _write_text(args.csv_out, csv_table(row, [row.values()]))
    return 0


def _cmd_perturb_probe(args: argparse.Namespace, cfg: dict) -> int:
    base = sample_uncontrollable(
        Dims(cfg["n"], cfg["m"]), cfg["k"], stream(cfg["seed"]),
        ScalarField(cfg["field"]),
    )
    echo = {"subcommand": "perturb-probe", **cfg}
    report = run_nowhere_density_probe(
        base, cfg["eps_grid"], cfg["trials_per_eps"],
        seed=cfg["seed"],
        rank_rel_tol=cfg["rank_rel_tol"],
        max_retries=cfg["max_retries"],
        config_echo=echo,
    )
    print(
        f"perturb-probe: n={cfg['n']} k={cfg['k']} m={cfg['m']} "
        f"base rank {report.base_rank}, seed {cfg['seed']}"
    )
    for row in report.rows:
        print(
            f"  eps={row.eps:11.4e}  fraction={row.fraction:6.4f}  "
            f"mean_rank={row.mean_rank:6.3f}  mean_sigma_n={row.mean_sigma_n:.6e}"
        )
    if args.json_out:
        _write_text(args.json_out, report.to_json() + "\n")
    if args.csv_out:
        _write_text(args.csv_out, report.to_csv())
    return 0


def _cmd_dist_unctrb(args: argparse.Namespace, cfg: dict) -> int:
    system = system_from_dict(_read_json_input(args.infile), tol=cfg["tol"])
    estimate = distance_to_uncontrollability(
        system,
        GridSpec(
            points_per_axis=cfg["grid_points"],
            refine_levels=cfg["refine_levels"],
            margin=cfg["margin"],
        ),
    )
    print(
        f"distance to uncontrollability <= {estimate.value:.6e} "
        f"at lambda = {estimate.lam.real:+.6e}{estimate.lam.imag:+.6e}j "
        f"({estimate.evaluations} pencil evaluations; upper bound)"
    )
    if args.json_out:
        payload = {
            "config": {"subcommand": "dist-unctrb", **cfg},
            "distance": estimate.value,
            "lambda": [estimate.lam.real, estimate.lam.imag],
            "evaluations": estimate.evaluations,
        }
        _write_text(args.json_out, report_json(payload) + "\n")
    return 0


def _cmd_prop1(args: argparse.Namespace, cfg: dict) -> int:
    measure = prop1_partial_measure(cfg["i_max"])
    print(f"partial measure of the first {cfg['i_max']} intervals: {measure!r}")
    print(f"limit pi^2/3 = {PI_SQUARED_THIRD!r} (gap {PI_SQUARED_THIRD - measure:.6e})")
    membership = None
    if cfg["x"] is not None:
        result = prop1_membership(cfg["x"], cfg["i_max"])
        membership = {
            "x": cfg["x"],
            "covered": result.covered,
            "witness_index": result.witness_index,
        }
        print(
            f"x = {cfg['x']!r}: covered={result.covered} "
            f"witness_index={result.witness_index}"
        )
    if args.json_out:
        payload = {
            "config": {"subcommand": "prop1", **cfg},
            "partial_measure": measure,
            "limit": PI_SQUARED_THIRD,
            "membership": membership,
        }
        _write_text(args.json_out, report_json(payload) + "\n")
    return 0


# ---------------------------------------------------------------------------
# command table and parser
# ---------------------------------------------------------------------------

# defaults of the sampler keys that sample and mc-genericity share
_SAMPLER_DEFAULTS = {
    "field": "real", "h_law": "wishart", "wishart_p": None, "gram_eps": 1.0,
    "j_scale": 1.0, "b_scale": 1.0, "seed": 0,
}


class _Command(NamedTuple):
    handler: Callable[[argparse.Namespace, dict], int]
    help: str
    io: tuple[str, ...]
    defaults: dict  # the config keys the command takes, in flag order


_COMMANDS = {
    "witness": _Command(_cmd_witness, "emit the canonical controllable system",
                        ("out",), {"n": 2, "m": 1}),
    "validate": _Command(_cmd_validate,
                         "validate a system JSON and emit its normalized form",
                         ("in", "out"),
                         {"tol": DEFAULT_SYMMETRY_TOL, "ph": False, "delta": None}),
    "pack": _Command(_cmd_pack, "system JSON to flat coordinate vector",
                     ("in", "out"), {"tol": DEFAULT_SYMMETRY_TOL}),
    "unpack": _Command(_cmd_unpack, "flat coordinate vector to system JSON",
                       ("in", "out"), {}),
    "sample": _Command(_cmd_sample, "draw random systems as JSON lines", ("out",), {
        "n": 2, "m": 1, "kind": "ph", "k": 1, **_SAMPLER_DEFAULTS, "count": 1,
    }),
    "check": _Command(_cmd_check, "controllability verdict for a system JSON",
                      ("in", "out"), {"tol": DEFAULT_SYMMETRY_TOL,
                                      "rank_rel_tol": None, "pbh_tol": DEFAULT_PBH_TOL}),
    "mc-genericity": _Command(
        _cmd_mc_genericity, "Monte Carlo controllable fraction under random draws",
        ("json", "csv"), {"n": 4, "m": 2, **_SAMPLER_DEFAULTS, "trials": 1000,
                          "cross_check": False, "rank_rel_tol": None}),
    "perturb-probe": _Command(
        _cmd_perturb_probe, "perturb an uncontrollable base across step sizes",
        ("json", "csv"), {"n": 3, "k": 1, "m": 1, "field": "real",
                          "eps_grid": DEFAULT_EPS_GRID, "trials_per_eps": 500,
                          "seed": 0, "max_retries": 60, "rank_rel_tol": None}),
    "dist-unctrb": _Command(
        _cmd_dist_unctrb, "grid estimate of the distance to uncontrollability",
        ("in", "json"), {"tol": DEFAULT_SYMMETRY_TOL, "grid_points": 41,
                         "refine_levels": 16, "margin": 1.0}),
    "prop1": _Command(
        _cmd_prop1, "interval union around the rationals: partial measure and "
                    "membership",
        ("json",), {"i_max": 1000, "x": None}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phctrl",
        description="Port-Hamiltonian system toolbox: structure validation, "
                    "controllability certificates, and genericity experiments.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON file overriding defaults (flags win)")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        for key in command.defaults:
            spec = _KEYS[key]
            p.add_argument("--" + key.replace("_", "-"), help=spec.help, **spec.flag)
        for io in command.io:
            flags, kwargs = _IO_FLAGS[io]
            p.add_argument(*flags, **kwargs)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    command = _COMMANDS[args.subcommand]
    try:
        return command.handler(args, _effective_config(args, command.defaults))
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except PhctrlError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
