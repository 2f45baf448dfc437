"""Command-line front end: dimensioning, CLT validation, simulation, sweeps.

Configuration precedence is flag > config file (plain key=value lines) >
per-command default > global default.  Every command resolves and validates
its whole configuration before computing anything, computes everything
before writing anything, and writes CSV atomically (temp file + rename), so
an invalid invocation never leaves partial output.  With --out the CSV goes
to that file and a short human summary to stdout; without --out the CSV
itself is stdout and the summary moves to stderr.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import tempfile
from typing import Callable, Sequence

from .analytic import (
    OnePerRI,
    PoissonPerRI,
    SystemParams,
    capacity_rule,
    demand_summary,
    device_moments,
    dimension_capacity,
    failure_bound,
    scaled_summary,
)
from .errors import (
    IndeterminateEstimateError,
    InfeasibleGeometryError,
    InfeasibleTargetError,
    ParameterError,
)
from .lte import QAM64_BITS_PER_RE, QPSK_BITS_PER_RE, LteProfile, build_pool_plan, rbs_per_report
# q_function is unused here since validate-clt reads its Gaussian column from
# sim.gaussian_cdf, kept importable because the benchmark tracer
# (perfbench/tracing.py) counts calls through m2mpool.cli.q_function
from .numerics import check_positive_int, q_function  # noqa: F401
from .sim import (
    MAX_HISTOGRAM_WIDTH,
    MAX_LOAD,
    SchedulerPolicy,
    check_simulable,
    estimate_failure_prob,
    gaussian_cdf,
    ks_distance,
    sample_demand,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE_TARGET = 2
EXIT_INFEASIBLE_GEOMETRY = 3
EXIT_IO = 4

_SUBFRAME_SECONDS = 1e-3
_MAX_RI_SECONDS = 86_400.0  # one day
_MODULATION_BITS = {"qpsk": QPSK_BITS_PER_RE, "qam64": QAM64_BITS_PER_RE}
# a sweep holds every row in memory: the row limit validate-clt has per p_e
MAX_SWEEP_POINTS = MAX_HISTOGRAM_WIDTH


# key -> (converter, global default, metavar, help); a tuple converter lists
# the allowed strings.  Each key is both a --flag and a config-file key.
_OPTIONS: dict[str, tuple[Callable[[str], object] | tuple[str, ...], object, str | None, str]] = {
    "devices": (int, 30_000, "N", "number of reporting devices"),
    "pe": (float, 0.1, "P", "per-transmission reception failure probability"),
    "max_attempts": (int, 10, "L", "retry limit per report"),
    "target_eps": (float, 1e-3, "E", "target report-failure probability"),
    "arrival": (("poisson", "one-per-ri"), "poisson", None, "report arrival model per interval"),
    "load": (float, 1.0, "X",
             f"mean reports per interval for the poisson model (at most {MAX_LOAD:g} to simulate)"),
    "report_bytes": (int, 100, "RS", "report size in bytes"),
    "modulation": (tuple(_MODULATION_BITS), "qpsk", None, "uplink modulation"),
    "bandwidth_rbs": (int, 25, "B", "system bandwidth in RBs per subframe"),
    "m2m_rbs": (int, None, "Y", "RBs per subframe reserved for reporting (default: whole bandwidth)"),
    "ri_seconds": (float, 60.0, "T", "reporting interval length in seconds (at most 86400)"),
    "runs": (int, 100_000, "R", "simulation replications"),
    "seed": (int, 1, "S", "master seed"),
    "policy": (tuple(p.value for p in SchedulerPolicy), "random", None, "shared-pool scheduler"),
    "capacity": (int, None, "C", "shared-pool capacity in transmissions (default: dimensioned)"),
}
# keys that are flags of some commands only; every key stays a config-file key
_FLAG_COMMANDS = {"policy": ("simulate", "sweep"), "capacity": ("simulate",)}

COMMAND_DEFAULTS: dict[str, dict[str, object]] = {
    "validate-clt": {"devices": 100},
    "sweep": {"runs": 0},
}


class _Parser(argparse.ArgumentParser):
    # usage problems exit with code 1, not argparse's default 2
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# built once per process: parsing leaves the parser unchanged
@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="m2mpool", description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for command, (_, command_help) in _COMMANDS.items():
        sub = commands.add_parser(command, help=command_help, description=command_help)
        for key, (convert, _, metavar, help_text) in _OPTIONS.items():
            if command not in _FLAG_COMMANDS.get(key, (command,)):
                continue
            flag = "--" + key.replace("_", "-")
            if isinstance(convert, tuple):
                sub.add_argument(flag, choices=convert, help=help_text)
            else:
                sub.add_argument(flag, type=convert, metavar=metavar, help=help_text)
        sub.add_argument("--out", metavar="PATH", help="CSV output path (default: stdout)")
        sub.add_argument("--config", metavar="PATH", help="key=value config file")
        if command == "sweep":
            sub.add_argument("--sweep", metavar="VAR:START:STOP:STEP",
                             help="axis to sweep: devices or report-bytes "
                                  f"(at most {MAX_SWEEP_POINTS} points)")
    return parser


def _convert(key: str, text: str) -> object:
    convert = _OPTIONS[key][0]
    if not isinstance(convert, tuple):
        return convert(text)
    if text not in convert:
        raise ParameterError(f"expected one of {', '.join(convert)}, got {text!r}")
    return text


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        try:
            lines = handle.readlines()
        except UnicodeDecodeError as exc:
            raise ParameterError(f"{path}: config file is not UTF-8 text: {exc.reason}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _OPTIONS:
            raise ParameterError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


class _Config:
    """Fully resolved run configuration."""

    def __init__(self, args: argparse.Namespace) -> None:
        file_values = _load_config(args.config) if args.config else {}
        overrides = COMMAND_DEFAULTS.get(args.command, {})
        self.explicit: set[str] = set()
        for key, (_, default, _, _) in _OPTIONS.items():
            flag_value = getattr(args, key, None)
            if flag_value is not None:
                value = flag_value
                self.explicit.add(key)
            elif key in file_values:
                try:
                    value = _convert(key, file_values[key])
                except (TypeError, ValueError) as exc:
                    raise ParameterError(
                        f"invalid config value {key}={file_values[key]!r}: {exc}"
                    ) from exc
                self.explicit.add(key)
            elif key in overrides:
                value = overrides[key]
            else:
                value = default
            setattr(self, key, value)
        self.pe += 0.0  # -0.0 would print as "-0"
        self.command: str = args.command
        self.out: str | None = args.out
        self.sweep: str | None = getattr(args, "sweep", None)
        simulates = self.command in ("simulate", "validate-clt") or (
            self.command == "sweep" and self.runs > 0
        )
        if simulates:
            check_simulable(self.devices, self.load if self.arrival == "poisson" else None)
        if not (math.isfinite(self.ri_seconds) and self.ri_seconds <= _MAX_RI_SECONDS):
            raise ParameterError(
                f"ri_seconds must be finite and at most {_MAX_RI_SECONDS:g}, got {self.ri_seconds!r}"
            )

    def system_params(self, *, devices: int | None = None, pe: float | None = None) -> SystemParams:
        if self.arrival == "one-per-ri":
            arrival: PoissonPerRI | OnePerRI = OnePerRI()
        else:
            arrival = PoissonPerRI(load=self.load)
        return SystemParams(
            n_devices=self.devices if devices is None else devices,
            p_e=self.pe if pe is None else pe,
            max_attempts=self.max_attempts,
            arrival=arrival,
            target_failure=self.target_eps,
        )

    def lte_profile(self, *, report_bytes: int | None = None) -> LteProfile:
        size_bits = _report_bits(self.report_bytes if report_bytes is None else report_bytes)
        ri_subframes = round(self.ri_seconds / _SUBFRAME_SECONDS)
        if ri_subframes < 1:
            raise ParameterError(f"ri_seconds too small: {self.ri_seconds!r}")
        bandwidth = self.bandwidth_rbs
        return LteProfile(
            rbs_per_subframe_total=bandwidth,
            m2m_rbs_per_subframe=self.m2m_rbs if self.m2m_rbs is not None else bandwidth,
            bits_per_re=_MODULATION_BITS[self.modulation],
            report_size_bits=size_bits,
            ri_subframes=ri_subframes,
        )

    def say(self, message: str) -> None:
        print(message, file=sys.stdout if self.out else sys.stderr)


def _report_bits(size: int) -> int:
    if size < 1:
        raise ParameterError(f"report_bytes must be positive, got {size!r}")
    return 8 * size


def _write_csv(path: str | None, header: Sequence[str], rows: Sequence[Sequence[str]]) -> None:
    text = "\n".join([",".join(header), *(",".join(row) for row in rows)]) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".m2mpool-", suffix=".csv")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _fmt(value: float) -> str:
    return f"{value:.10g}"


def cmd_dimension(cfg: _Config) -> int:
    params = cfg.system_params()
    profile = cfg.lte_profile()
    summary = demand_summary(params)
    capacity = dimension_capacity(params)
    plan = build_pool_plan(params.n_devices, profile, capacity)
    cfg.say(
        f"N={params.n_devices} pe={params.p_e:g} L={params.max_attempts} eps={params.target_failure:g}: "
        f"C_min={capacity}, mu={summary.mean:.1f}, sigma={summary.std:.2f}, "
        f"pool={plan.total_subframes} subframes (X_P={plan.preallocated_subframes}, "
        f"X_C={plan.common_subframes}), fraction={plan.capacity_fraction:.4f}, "
        f"worst-case delay {plan.worst_case_delay_seconds:.3f} s"
    )
    header = ["N", "pe", "L", "eps", "mu", "sigma", "C_min", "r_rbs", "alpha",
              "X_P", "X_C", "X", "fraction", "delay_s"]
    row = [
        str(params.n_devices), _fmt(params.p_e), str(params.max_attempts),
        _fmt(params.target_failure), f"{summary.mean:.6f}", f"{summary.std:.6f}",
        str(capacity), str(plan.rbs_per_report), f"{plan.alpha:.6f}",
        str(plan.preallocated_subframes), str(plan.common_subframes),
        str(plan.total_subframes), f"{plan.capacity_fraction:.6f}",
        f"{plan.worst_case_delay_seconds:.3f}",
    ]
    _write_csv(cfg.out, header, [row])
    return EXIT_OK


def cmd_validate_clt(cfg: _Config) -> int:
    if cfg.runs < 1:
        raise ParameterError(f"validate-clt needs runs >= 1, got {cfg.runs!r}")
    pe_values = [cfg.pe] if "pe" in cfg.explicit else [0.1, 0.4]
    header = ["pe", "value", "empirical_pdf", "empirical_cdf", "gaussian_pdf", "gaussian_cdf"]
    all_params = [cfg.system_params(pe=pe) for pe in pe_values]
    # every histogram is drawn, so its width is checked, before anything is said or built
    hists = [sample_demand(params, cfg.runs, cfg.seed) for params in all_params]
    rows: list[list[str]] = []
    for pe, params, hist in zip(pe_values, all_params, hists):
        summary = demand_summary(params)
        cdf = gaussian_cdf(hist, summary)
        distance = ks_distance(hist, summary, cdf)
        cfg.say(
            f"pe={pe:g}: ks={distance:.5f}, empirical mean {hist.mean():.4f} "
            f"vs analytic {summary.mean:.4f}, runs={hist.runs}"
        )
        cumulative = 0
        for value, count, cdf_lo, cdf_hi in zip(hist.values.tolist(), hist.counts.tolist(), cdf, cdf[1:]):
            cumulative += count
            rows.append([
                _fmt(pe), str(value), _fmt(count / hist.runs), _fmt(cumulative / hist.runs),
                _fmt(cdf_hi - cdf_lo), _fmt(cdf_hi),
            ])
    _write_csv(cfg.out, header, rows)
    return EXIT_OK


def cmd_simulate(cfg: _Config) -> int:
    if cfg.runs < 1:
        raise ParameterError(f"simulate needs runs >= 1, got {cfg.runs!r}")
    params = cfg.system_params()
    capacity = cfg.capacity if cfg.capacity is not None else dimension_capacity(params)
    policy = SchedulerPolicy(cfg.policy)
    estimate = estimate_failure_prob(params, capacity, policy, cfg.runs, cfg.seed)
    bound_text = _fmt(failure_bound(capacity, demand_summary(params), params.p_e, params.max_attempts))
    cfg.say(
        f"N={params.n_devices} pe={params.p_e:g} L={params.max_attempts} C={capacity} "
        f"policy={cfg.policy}: p_hat={estimate.p_hat:.6g} "
        f"ci=[{estimate.ci_low:.6g}, {estimate.ci_high:.6g}] bound={bound_text}"
    )
    header = ["N", "pe", "L", "capacity", "policy", "intervals", "reports", "failures",
              "p_hat", "ci_low", "ci_high", "bound"]
    row = [
        str(params.n_devices), _fmt(params.p_e), str(params.max_attempts), str(capacity),
        cfg.policy, str(cfg.runs), str(estimate.reports_total), str(estimate.reports_failed),
        _fmt(estimate.p_hat), _fmt(estimate.ci_low), _fmt(estimate.ci_high), bound_text,
    ]
    _write_csv(cfg.out, header, [row])
    return EXIT_OK


def _parse_sweep(text: str | None) -> tuple[str, int, int, int]:
    if not text:
        raise ParameterError("sweep requires --sweep VAR:START:STOP:STEP")
    parts = text.split(":")
    if len(parts) != 4:
        raise ParameterError(f"expected VAR:START:STOP:STEP, got {text!r}")
    var = parts[0].strip().replace("_", "-")
    if var not in ("devices", "report-bytes"):
        raise ParameterError(f"sweep variable must be devices or report-bytes, got {parts[0]!r}")
    try:
        start, stop, step = (int(p) for p in parts[1:])
    except ValueError as exc:
        raise ParameterError(f"sweep bounds must be integers: {text!r}") from exc
    if step <= 0:
        raise ParameterError(f"sweep step must be positive, got {step}")
    # len(range(...)) raises OverflowError past sys.maxsize
    points = max(0, (stop - start) // step + 1)
    if points > MAX_SWEEP_POINTS:
        raise ParameterError(f"a sweep may have at most {MAX_SWEEP_POINTS} points, got {points}")
    return var, start, stop, step


def _sweep_rows(cfg: _Config, by_devices: bool, values: range) -> list[list[str]]:
    # what the swept value leaves alone is computed at the first point, in the
    # order every point is checked in: parameters, profile, dimensioning,
    # plan, simulation; a point then computes only what its value changes
    first = values[0]
    params = cfg.system_params(devices=first if by_devices else None)
    profile = cfg.lte_profile(report_bytes=None if by_devices else first)
    moments = device_moments(params.p_e, params.max_attempts, params.arrival)
    summary = scaled_summary(params.n_devices, moments)
    rule = capacity_rule(params, summary)
    capacity = rule.smallest_capacity(summary)
    n_devices, report_bytes, rbs = params.n_devices, cfg.report_bytes, rbs_per_report(profile)
    policy = SchedulerPolicy(cfg.policy)
    estimate = None
    rows: list[list[str]] = []
    for value in values:
        if by_devices:
            check_positive_int("n_devices", value)
            n_devices = value
            summary = scaled_summary(value, moments)
            capacity = rule.smallest_capacity(summary)
        else:
            rbs = rbs_per_report(profile, _report_bits(value))
            report_bytes = value
        plan = build_pool_plan(n_devices, profile, capacity, rbs)
        p_hat_text = ci_high_text = ""
        if cfg.runs > 0:
            if by_devices or estimate is None:
                point = cfg.system_params(devices=value) if by_devices else params
                estimate = estimate_failure_prob(point, capacity, policy, cfg.runs, cfg.seed)
            p_hat_text = _fmt(estimate.p_hat)
            ci_high_text = _fmt(estimate.ci_high)
        rows.append([
            str(n_devices), str(report_bytes), f"{summary.mean:.6f}", f"{summary.std:.6f}",
            str(capacity), str(rbs), str(plan.preallocated_subframes),
            str(plan.common_subframes), f"{plan.capacity_fraction:.6f}",
            p_hat_text, ci_high_text,
        ])
    return rows


def cmd_sweep(cfg: _Config) -> int:
    var, start, stop, step = _parse_sweep(cfg.sweep)
    if cfg.runs < 0:
        raise ParameterError(f"sweep needs runs >= 0, got {cfg.runs!r}")
    header = ["N", "rs_bytes", "mu", "sigma", "C_min", "r_rbs", "X_P", "X_C",
              "fraction", "p_hat", "ci_high"]
    values = range(start, stop + 1, step)
    rows = _sweep_rows(cfg, var == "devices", values) if values else []
    cfg.say(f"sweep {var} {start}..{stop} step {step}: {len(rows)} points")
    _write_csv(cfg.out, header, rows)
    return EXIT_OK


_COMMANDS = {
    "dimension": (cmd_dimension, "dimension the shared pool and lay it out"),
    "validate-clt": (cmd_validate_clt, "compare sampled demand against its Gaussian model "
                     f"(one CSV row per demand value, at most {MAX_HISTOGRAM_WIDTH} per p_e)"),
    "simulate": (cmd_simulate, "estimate the empirical report-failure probability"),
    "sweep": (cmd_sweep, "dimension across a parameter range, one CSV row per point"),
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _Config(args)
        return _COMMANDS[args.command][0](cfg)
    except (ParameterError, IndeterminateEstimateError) as exc:
        print(f"m2mpool: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleTargetError as exc:
        print(f"m2mpool: infeasible reliability target: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE_TARGET
    except InfeasibleGeometryError as exc:
        print(f"m2mpool: infeasible geometry: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE_GEOMETRY
    except OSError as exc:
        print(f"m2mpool: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
