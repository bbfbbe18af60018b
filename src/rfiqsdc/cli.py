"""Command-line front end: config parsing, dispatch, CSV/JSON emission.

Config files are flat ``key = value`` text with ``#`` comments. Command-line
``--set key=value`` overrides win over file values. Unknown keys are rejected.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import platform
import sys
import traceback
from dataclasses import dataclass, fields
from itertools import combinations

import numpy as np
import scipy

from . import __version__, decoy, security
from .photonics import ChannelSpec
from .pipeline import (
    EstimatorSpec,
    MuSearchSpec,
    PointResult,
    ScanConfig,
    evaluate_point,
    max_attenuation,
    optimize_mu,
    scan,
)

__all__ = ["RunConfig", "ConfigError", "load_config", "run", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTERNAL = 3

CSV_COLUMNS = (
    "attenuation_db",
    "distance_km",
    "beta_deg",
    "mu",
    "capacity_bit_per_pulse",
    "c_lower",
    "q_value",
    "q_bab",
    "e_bab",
    "q_ba_signal",
    "y1_min",
    "y1_max",
    "qn1_bae",
    "qn2_bae",
    "flags",
)


class ConfigError(ValueError):
    """A malformed, unknown, or out-of-range configuration entry."""


def _parse_float(key, raw):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{key}: not a number: {raw!r}") from None
    # n_pulses = inf is the asymptotic model; no other key has a meaningful inf
    if not (math.isfinite(value) or (key == "n_pulses" and value == math.inf)):
        raise ConfigError(f"{key}: not a finite number: {raw!r}")
    return value


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key}: not an integer: {raw!r}") from None


def _parse_float_list(key, raw):
    parts = [p.strip() for p in str(raw).split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key}: empty list")
    return tuple(_parse_float(key, p) for p in parts)


@dataclass
class RunConfig:
    """Fully-resolved run parameters; defaults are the standard simulation set."""

    # channel
    alpha_db_per_km: float = ChannelSpec.alpha_db_per_km
    eta_opt_ba: float = ChannelSpec.eta_opt_ba
    eta_opt_bab: float = ChannelSpec.eta_opt_bab
    eta_d: float = ChannelSpec.eta_d
    pd: float = ChannelSpec.pd
    ed_a: float = ChannelSpec.ed_a
    ed_b: float = ChannelSpec.ed_b
    beta_deg: tuple = (0.0,)
    # statistical fluctuation of the decoy observations
    n_pulses: float = ChannelSpec.n_pulses
    u_sigma: float = ChannelSpec.u_sigma
    # grids
    attenuation_db: float = 10.0  # point mode
    atten_start_db: float = ScanConfig.atten_start_db
    atten_stop_db: float = ScanConfig.atten_stop_db
    atten_step_db: float = ScanConfig.atten_step_db
    atten_hi_db: float = 20.0  # cutoff bracket
    # intensities
    mu: tuple = ()  # fixed-mode signal intensities; empty means optimize
    decoy_ratio1: float = EstimatorSpec.decoy_ratios[0]
    decoy_ratio2: float = EstimatorSpec.decoy_ratios[1]
    mu_lo: float = MuSearchSpec.mu_lo
    mu_hi: float = MuSearchSpec.mu_hi
    mu_coarse_points: int = MuSearchSpec.coarse_points
    mu_rel_tol: float = MuSearchSpec.rel_tol
    # estimation
    n_cut: int = EstimatorSpec.n_cut
    tight_z_bounds: bool = EstimatorSpec.tight_z_bounds
    y0_from_model: bool = EstimatorSpec.y0_from_model

    def channel(self, beta_rad: float = 0.0) -> ChannelSpec:
        return ChannelSpec(
            attenuation_db=0.0,
            alpha_db_per_km=self.alpha_db_per_km,
            eta_opt_ba=self.eta_opt_ba,
            eta_opt_bab=self.eta_opt_bab,
            eta_d=self.eta_d,
            pd=self.pd,
            ed_a=self.ed_a,
            ed_b=self.ed_b,
            beta_rad=beta_rad,
            n_pulses=self.n_pulses,
            u_sigma=self.u_sigma,
        )

    def mu_search(self) -> MuSearchSpec:
        return MuSearchSpec(
            mu_lo=self.mu_lo,
            mu_hi=self.mu_hi,
            coarse_points=self.mu_coarse_points,
            rel_tol=self.mu_rel_tol,
        )

    def estimator(self) -> EstimatorSpec:
        return EstimatorSpec(
            n_cut=self.n_cut,
            decoy_ratios=(self.decoy_ratio1, self.decoy_ratio2),
            tight_z_bounds=self.tight_z_bounds,
            y0_from_model=self.y0_from_model,
        )

    def betas_rad(self) -> tuple:
        return tuple(math.radians(b) for b in self.beta_deg)

    def scan_config(self, mode: str) -> ScanConfig:
        """The scan of this run; building it builds every other library spec too,
        and any spec's ``ValueError`` is raised as a ``ConfigError``."""
        try:
            return ScanConfig(
                channel=self.channel(),
                atten_start_db=self.atten_start_db,
                atten_stop_db=self.atten_stop_db,
                atten_step_db=self.atten_step_db,
                betas_rad=self.betas_rad(),
                mu_search=self.mu_search(),
                fixed_mus=self.mu,
                mode=mode,
                estimator=self.estimator(),
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


_FLOAT_KEYS = {
    "alpha_db_per_km", "eta_opt_ba", "eta_opt_bab", "eta_d", "pd", "ed_a",
    "ed_b", "attenuation_db", "atten_start_db", "atten_stop_db",
    "atten_step_db", "atten_hi_db", "decoy_ratio1", "decoy_ratio2", "mu_lo",
    "mu_hi", "mu_rel_tol", "n_pulses", "u_sigma",
}
_INT_KEYS = {"mu_coarse_points", "n_cut"}
_BOOL_KEYS = {"tight_z_bounds", "y0_from_model"}
_LIST_KEYS = {"beta_deg", "mu"}


def _apply_entry(config: RunConfig, key: str, raw: str):
    if key in _FLOAT_KEYS:
        setattr(config, key, _parse_float(key, raw))
    elif key in _INT_KEYS:
        setattr(config, key, _parse_int(key, raw))
    elif key in _BOOL_KEYS:
        low = str(raw).strip().lower()
        if low not in ("true", "false", "1", "0", "yes", "no"):
            raise ConfigError(f"{key}: not a boolean: {raw!r}")
        setattr(config, key, low in ("true", "1", "yes"))
    elif key in _LIST_KEYS:
        setattr(config, key, _parse_float_list(key, raw))
    else:
        raise ConfigError(f"unknown configuration key: {key}")


def _validate(config: RunConfig):
    """The checks that no library spec makes; ``load_config`` runs the specs' own."""
    for key in ("attenuation_db", "atten_start_db", "atten_hi_db"):
        if getattr(config, key) < 0:
            raise ConfigError(f"{key}: must be >= 0, got {getattr(config, key)}")
    if config.atten_stop_db < config.atten_start_db:
        raise ConfigError("atten_stop_db: must be >= atten_start_db")
    if any(m <= 0 for m in config.mu):
        raise ConfigError(f"mu: intensities must be > 0, got {config.mu}")
    if not config.beta_deg:
        raise ConfigError("beta_deg: at least one angle required")


def load_config(path: str | None, overrides: list[str]) -> RunConfig:
    """Resolve a RunConfig from an optional file plus key=value overrides."""
    config = RunConfig()
    entries = []
    if path is not None:
        try:
            with open(path, encoding="utf-8") as handle:
                for lineno, line in enumerate(handle, start=1):
                    text = line.split("#", 1)[0].strip()
                    if not text:
                        continue
                    if "=" not in text:
                        raise ConfigError(f"{path}:{lineno}: expected key = value, got {text!r}")
                    key, _, raw = text.partition("=")
                    entries.append((key.strip(), raw.strip()))
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        entries.append((key.strip(), raw.strip()))
    for key, raw in entries:
        _apply_entry(config, key, raw)
    _validate(config)
    # builds every library spec, so their checks run here
    config.scan_config("fixed" if config.mu else "optimized")
    return config


def _format_number(value: float) -> str:
    return f"{value:.8e}"


def _point_row(point: PointResult) -> list[str]:
    return [
        _format_number(point.attenuation_db),
        _format_number(point.distance_km),
        _format_number(point.beta_deg),
        _format_number(point.mu),
        _format_number(max(point.capacity, 0.0)),
        _format_number(point.c_lower),
        _format_number(point.q_value),
        _format_number(point.q_bab),
        _format_number(point.e_bab),
        _format_number(point.q_ba_signal),
        _format_number(point.y1_min),
        _format_number(point.y1_max),
        _format_number(point.qn1_bae),
        _format_number(point.qn2_bae),
        ";".join(point.flags),
    ]


def write_csv(points: list[PointResult], path: str):
    """Stable CSV: fixed column order, scientific 9-significant-digit floats, LF."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(CSV_COLUMNS) + "\n")
        for point in points:
            handle.write(",".join(_point_row(point)) + "\n")


def _point_dict(point: PointResult) -> dict:
    return {
        "attenuation_db": point.attenuation_db,
        "distance_km": point.distance_km,
        "beta_deg": point.beta_deg,
        "mu": point.mu,
        "capacity_bit_per_pulse": max(point.capacity, 0.0),
        "capacity_raw": point.capacity,
        "c_lower": point.c_lower,
        "q_value": point.q_value,
        "q_bab": point.q_bab,
        "e_bab": point.e_bab,
        "q_ba_signal": point.q_ba_signal,
        "y1_min": point.y1_min,
        "y1_max": point.y1_max,
        "qn1_bae": point.qn1_bae,
        "qn2_bae": point.qn2_bae,
        "flags": list(point.flags),
    }


@functools.cache
def _provenance() -> dict:
    """The versions of the code that computed a summary."""
    return {
        "rfiqsdc": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "highs": decoy.highs._Highs().version(),
    }


def write_summary(payload: dict, path: str):
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump({**payload, "provenance": _provenance()}, handle, indent=2, sort_keys=True)
        handle.write("\n")


class _Reporter:
    def __init__(self, quiet: bool, verbose: bool):
        self.quiet = quiet
        self.verbose = verbose

    def info(self, message: str):
        if not self.quiet:
            print(message)

    def debug(self, message: str):
        if self.verbose and not self.quiet:
            print(message)


def _echo_config(config: RunConfig, reporter: _Reporter):
    reporter.debug("resolved configuration:")
    for f in fields(config):
        reporter.debug(f"  {f.name} = {getattr(config, f.name)}")


def _warn_flags(points: list[PointResult], reporter: _Reporter):
    flagged = sum(1 for p in points if p.flags)
    if flagged:
        reporter.info(f"warning: {flagged} of {len(points)} points carry diagnostic flags")


def _single(config: RunConfig, key: str):
    """The one value of list key ``key``, for a command that uses only one."""
    values = getattr(config, key)
    if len(values) > 1:
        raise ConfigError(f"{key}: this command takes one value, got {len(values)}")
    return values[0]


def _reject_mu(config: RunConfig, command: str):
    if config.mu:
        raise ConfigError(f"mu: {command} optimizes the signal intensity and takes no mu")


def _cmd_scan(config: RunConfig, args, reporter: _Reporter) -> int:
    mode = args.mode
    if mode == "optimized":
        _reject_mu(config, "scan --mode optimized")
    points = scan(config.scan_config(mode))
    reporter.info(f"scan ({mode} intensity): {len(points)} grid points")
    if args.out:
        write_csv(points, args.out)
        reporter.info(f"wrote {args.out}")
    if args.summary:
        write_summary({"mode": f"scan-{mode}", "points": [_point_dict(p) for p in points]}, args.summary)
        reporter.info(f"wrote {args.summary}")
    _warn_flags(points, reporter)
    return EXIT_OK


def _cmd_point(config: RunConfig, args, reporter: _Reporter) -> int:
    beta = math.radians(_single(config, "beta_deg"))
    if config.mu:
        mu = _single(config, "mu")
        point = evaluate_point(config.channel(), config.attenuation_db, beta, mu, config.estimator())
    else:
        mu, point = optimize_mu(
            config.channel(), config.attenuation_db, beta, config.mu_search(), config.estimator()
        )
    reporter.info(
        f"A = {point.attenuation_db:g} dB, beta = {point.beta_deg:g} deg, mu = {mu:.6g}: "
        f"capacity = {point.capacity:.6e} bit/pulse"
    )
    if args.out:
        write_csv([point], args.out)
        reporter.info(f"wrote {args.out}")
    if args.summary:
        write_summary({"mode": "point", "points": [_point_dict(point)]}, args.summary)
        reporter.info(f"wrote {args.summary}")
    _warn_flags([point], reporter)
    return EXIT_OK


def _cmd_cutoff(config: RunConfig, args, reporter: _Reporter) -> int:
    _reject_mu(config, "cutoff")
    beta = math.radians(_single(config, "beta_deg"))
    a_max, point = max_attenuation(
        config.channel(), beta, config.mu_search(), config.estimator(), atten_hi_db=config.atten_hi_db
    )
    if a_max is None:
        reporter.info("always insecure: no attenuation yields positive capacity")
        if args.out:
            write_csv([], args.out)  # header only, so no earlier run's CSV is left behind
        if args.summary:
            write_summary({"mode": "cutoff", "always_insecure": True}, args.summary)
        return EXIT_OK
    l_max = a_max / (2.0 * config.alpha_db_per_km)
    reporter.info(f"A_max = {a_max:.2f} dB, L_max = {l_max:.3f} km")
    if args.out:
        write_csv([point], args.out)
        reporter.info(f"wrote {args.out}")
    if args.summary:
        write_summary(
            {
                "mode": "cutoff",
                "always_insecure": False,
                "a_max_db": a_max,
                "l_max_km": l_max,
                "points": [_point_dict(point)],
            },
            args.summary,
        )
        reporter.info(f"wrote {args.summary}")
    return EXIT_OK


def vertex_enumeration_optimum(objective, a, lo, hi, sense) -> float | None:
    """Exact optimum of a small LP over the box [0, 1]^n by enumerating basic feasible points.

    The reference the LP solver is checked against, here and in the tests; it
    shares no code with ``decoy``. The rows are ranged, ``lo <= a @ x <= hi``,
    with an infinite side absent; finite row sides and box faces count as
    constraints. Returns None if no vertex is feasible.
    """
    n = len(objective)
    a = np.asarray(a, dtype=float).reshape(-1, n)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    box = np.eye(n)
    faces = [(box[i], side) for i in range(n) for side in (0.0, 1.0)]  # (normal, offset) of every hyperplane
    faces += [(row, side) for row, *sides in zip(a, lo, hi) for side in sides if math.isfinite(side)]
    best = None
    for chosen in combinations(faces, n):
        normals = np.array([normal for normal, _ in chosen])
        if abs(np.linalg.det(normals)) < 1e-12:
            continue
        x = np.linalg.solve(normals, np.array([offset for _, offset in chosen]))
        if np.any(x < -1e-9) or np.any(x > 1.0 + 1e-9):
            continue
        if np.any(a @ x < lo - 1e-9) or np.any(a @ x > hi + 1e-9):
            continue
        value = float(np.dot(objective, x))
        if best is None or (value < best if sense == "minimize" else value > best):
            best = value
    return best


def _selftest_gain_sum(rng) -> bool:
    from .photonics import detector_yield, gain_component, poisson_pn

    worst = 0.0
    for _ in range(50):
        intensity = rng.uniform(0.001, 0.5)
        eta_chan = rng.uniform(0.001, 1.0)
        eta_d = rng.uniform(0.1, 1.0)
        pd = rng.uniform(0.0, 1e-3)
        fy_sq = rng.uniform(0.0, 1.0)
        direct = gain_component(intensity, eta_chan, eta_d, pd, fy_sq)
        mean = intensity * eta_chan
        summed = sum(
            poisson_pn(mean, k) * detector_yield(k, fy_sq, eta_d, pd) for k in range(81)
        )
        worst = max(worst, abs(direct - summed))
    return worst <= 1e-10


def _selftest_holevo(rng) -> bool:
    worst = 0.0
    for _ in range(100):
        l1 = rng.uniform(0.0, 1.0)
        l3 = rng.uniform(0.0, (1.0 - l1) / 2.0)
        l2 = 1.0 - l1 - 2.0 * l3
        if l2 < 0:
            continue
        attack = security.BellDiagonalAttack(
            lambdas=(l1, l2, l3, l3),
            chi=rng.uniform(0, 2 * math.pi),
            chi_prime=rng.uniform(0, 2 * math.pi),
        )
        gap = abs(security.holevo_oracle(attack) - security.eve_info_bound(attack.c_value))
        worst = max(worst, gap)
    return worst <= 1e-8


def _selftest_lp(rng) -> bool:
    for _ in range(20):
        n = 4
        objective = rng.uniform(-1, 1, size=n)
        a = rng.uniform(-1, 1, size=(3, n))
        # every row holds at an interior point, so every program is feasible;
        # row 0 is "<=", row 1 is ">=" and row 2 is two-sided, as in production
        level = a @ rng.uniform(0.2, 0.8, size=n)
        lo = level - rng.uniform(0.0, 0.5, size=3)
        hi = level + rng.uniform(0.0, 0.5, size=3)
        lo[0], hi[1] = -math.inf, math.inf
        sense = rng.choice(["minimize", "maximize"])
        (value,), _ = decoy.solve_lps(decoy.LinearPrograms.single(sense, objective, a, lo, hi))
        reference = vertex_enumeration_optimum(objective, a, lo, hi, sense)
        if reference is None or abs(value - reference) > 1e-9:
            return False
    return True


def _cmd_selftest(config: RunConfig, args, reporter: _Reporter) -> int:
    rng = np.random.default_rng(20240811)
    groups = (
        ("gain-sum consistency", _selftest_gain_sum),
        ("closed-form information bound regime", _selftest_holevo),
        ("LP vertex oracle", _selftest_lp),
    )
    all_ok = True
    for name, check in groups:
        ok = check(rng)
        all_ok = all_ok and ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return EXIT_OK if all_ok else EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override one config entry (repeatable)",
    )
    common.add_argument("--out", help="CSV output path")
    common.add_argument("--summary", help="JSON summary output path")
    common.add_argument("--quiet", action="store_true", help="suppress progress output")
    common.add_argument(
        "--verbose", action="store_true",
        help="echo the resolved configuration, and print the traceback of an internal error",
    )
    parser = argparse.ArgumentParser(
        prog="rfiqsdc",
        description="Secrecy message capacity simulator for frame-independent "
        "quantum secure direct communication over weak-coherent-pulse channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    scan_parser = sub.add_parser("scan", parents=[common], help="capacity over an attenuation grid")
    scan_parser.add_argument(
        "--mode", choices=("fixed", "optimized"), default="optimized",
        help="fixed signal intensities (mu list) or per-point optimization",
    )
    sub.add_parser("point", parents=[common], help="capacity at a single attenuation")
    sub.add_parser("cutoff", parents=[common], help="largest attenuation with positive capacity")
    sub.add_parser("selftest", parents=[common], help="run the built-in numerical cross-checks")
    return parser


_COMMANDS = {
    "scan": _cmd_scan,
    "point": _cmd_point,
    "cutoff": _cmd_cutoff,
    "selftest": _cmd_selftest,
}


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    reporter = _Reporter(quiet=args.quiet, verbose=args.verbose)
    try:
        config = load_config(args.config, args.set)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _echo_config(config, reporter)
    try:
        return _COMMANDS[args.command](config, args, reporter)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        if args.verbose:
            traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
