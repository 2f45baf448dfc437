"""Command-line front end: dimensioning, CLT validation, simulation, sweeps.

Configuration precedence is flag > config file (plain key=value lines) >
the command's default in `_COMMANDS` > global default.  A command validates
the keys it reads before computing anything, then returns its CSV rows and a
short human summary, which `main` alone writes.  With --out the rows go, as
they are made, to a new temporary .m2mpool-*.csv of mode 0600 in the target's
directory, renamed onto the target (without fsync) only after the last row,
so a failed invocation leaves no partial output; the summary then goes to
stdout.  Without --out the CSV itself is stdout and the summary goes to
stderr.  Nothing reaches stdout before the last row, and a failed write
prints no summary.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import errno
import functools
import itertools
import math
import os
import sys
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .analytic import (
    DemandSummary,
    OnePerRI,
    PoissonPerRI,
    SystemParams,
    capacity_rule,
    demand_summary,
    device_moments,
    dimension_capacity,
    failure_bound,
    gaussian_cdf,
    scaled_moments,
)
from .errors import (
    IndeterminateEstimateError,
    InfeasibleGeometryError,
    InfeasibleTargetError,
    ParameterError,
)
from .lte import MODULATION_BITS, SUBFRAME_SECONDS, LteProfile, build_pool_plan, pool_layout, rbs_per_report
from .numerics import float_text
# q_function is unused here since analytic evaluates every Gaussian, kept importable
# because the benchmark tracer (perfbench/tracing.py) counts calls through m2mpool.cli.q_function
from .numerics import q_function  # noqa: F401
from .sim import (
    MAX_HISTOGRAM_WIDTH,
    MAX_LOAD,
    SchedulerPolicy,
    check_simulable,
    check_work,
    estimate_failure_prob,
    ks_distance,
    sample_demand,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE_TARGET = 2
EXIT_INFEASIBLE_GEOMETRY = 3
EXIT_IO = 4

_MAX_RI_SECONDS = 86_400.0  # one day
# the row limit validate-clt has per p_e, which a sweep to stdout holds in memory
MAX_SWEEP_POINTS = MAX_HISTOGRAM_WIDTH


# key -> (converter, global default, metavar, help); a tuple converter lists
# the allowed strings.  Every key is a config-file key; each is a --flag of the commands that read it.
_OPTIONS: dict[str, tuple[Callable[[str], object] | tuple[str, ...], object, str | None, str]] = {
    "devices": (int, 30_000, "N", "number of reporting devices"),
    "pe": (float, 0.1, "P", "per-transmission reception failure probability"),
    "max_attempts": (int, 10, "L", "retry limit per report"),
    "target_eps": (float, 1e-3, "E", "target report-failure probability"),
    "arrival": (("poisson", "one-per-ri"), "poisson", None, "report arrival model per interval"),
    "load": (float, 1.0, "X",
             f"mean reports per interval for the poisson model (at most {MAX_LOAD:g} to simulate)"),
    "report_bytes": (int, 100, "RS", "report size in bytes"),
    "modulation": (tuple(MODULATION_BITS), "qpsk", None, "uplink modulation"),
    "bandwidth_rbs": (int, 25, "B", "system bandwidth in RBs per subframe"),
    "m2m_rbs": (int, None, "Y", "RBs per subframe reserved for reporting (default: whole bandwidth)"),
    "ri_seconds": (float, 60.0, "T", "reporting interval length in seconds (at most 86400)"),
    "runs": (int, 100_000, "R", "simulation replications"),
    "seed": (int, 1, "S", "master seed"),
    "policy": (tuple(p.value for p in SchedulerPolicy), "random", None, "shared-pool scheduler"),
    "capacity": (int, None, "C", "shared-pool capacity in transmissions (default: dimensioned)"),
}

# each command's CSV layout: the header, and one %-format that writes a whole
# row from its values in header order (%d an int, %.10g and %.Nf a float, %s a
# text: p_e and eps as `float_text`, the sweep's p_hat and ci_high empty without --runs)
Schema = NamedTuple("Schema", [("header", str), ("row", str)])
SCHEMAS = {
    "dimension": Schema("N,pe,L,eps,mu,sigma,C_min,r_rbs,alpha,X_P,X_C,X,fraction,delay_s",
                        "%d,%s,%d,%s,%.6f,%.6f,%d,%d,%.6f,%d,%d,%d,%.6f,%.3f"),
    "validate-clt": Schema("pe,value,empirical_pdf,empirical_cdf,gaussian_pdf,gaussian_cdf",
                           "%s,%d,%.10g,%.10g,%.10g,%.10g"),
    "simulate": Schema("N,pe,L,capacity,policy,intervals,reports,failures,p_hat,ci_low,ci_high,bound",
                       "%d,%s,%d,%d,%s,%d,%d,%d,%.10g,%.10g,%.10g,%.10g"),
    "sweep": Schema("N,rs_bytes,mu,sigma,C_min,r_rbs,X_P,X_C,fraction,p_hat,ci_high",
                    "%d,%d,%.6f,%.6f,%d,%d,%d,%d,%.6f,%s,%s"),
}


class _Parser(argparse.ArgumentParser):
    commands: dict[str, _Parser]  # on the top-level parser: each command's own parser
    # usage problems exit with code 1, not argparse's default 2
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# built once per process: parsing leaves the parser unchanged
@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="m2mpool", description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for command, (_, command_help, keys, _) in _COMMANDS.items():
        sub = commands.add_parser(command, help=command_help, description=command_help)
        for key in keys:
            convert, _, metavar, help_text = _OPTIONS[key]
            flag = "--" + key.replace("_", "-")
            if isinstance(convert, tuple):
                sub.add_argument(flag, choices=convert, help=help_text)
            else:
                sub.add_argument(flag, type=convert, metavar=metavar, help=help_text)
        sub.add_argument("--out", metavar="PATH", help="CSV output path (default: stdout)")
        sub.add_argument("--config", metavar="PATH", help="key=value config file")
        sub.set_defaults(sweep=None)  # the axis, a flag of the sweep command alone
        if command == "sweep":
            sub.add_argument("--sweep", metavar="VAR:START:STOP:STEP",
                             help="axis to sweep: devices or report-bytes "
                                  f"(at most {MAX_SWEEP_POINTS} points)")
    parser.commands = commands.choices
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv as build_parser().parse_args reads it, by the named command's own
    parser; what that one does not take whole (-h, a missing or unknown command,
    leftover arguments) goes to the top-level parser, which prints what it always did."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


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
    """Fully resolved run configuration; a key its command does not read keeps its global default."""

    def __init__(self, args: argparse.Namespace) -> None:
        file_values = _load_config(args.config) if args.config is not None else {}
        _, _, keys, defaults = _COMMANDS[args.command]
        for key, (_, default, _, _) in _OPTIONS.items():
            value = getattr(args, key, None)  # only the keys read are flags
            if value is None and key in keys and key in file_values:
                try:
                    value = _convert(key, file_values[key])
                except (TypeError, ValueError) as exc:
                    raise ParameterError(f"invalid config value {key}={file_values[key]!r}: {exc}") from exc
            setattr(self, key, defaults.get(key, default) if value is None else value)
        if self.pe is not None:
            self.pe += 0.0  # -0.0 would print as "-0"
        self.command: str = args.command
        self.out: str | None = args.out
        self.sweep: str | None = args.sweep
        self.arrival_model = OnePerRI() if self.arrival == "one-per-ri" else PoissonPerRI(self.load)

    def system_params(self, *, devices: int | None = None, pe: float | None = None) -> SystemParams:
        return SystemParams(self.devices if devices is None else devices, self.pe if pe is None else pe,
                            self.max_attempts, self.arrival_model, self.target_eps)

    def lte_profile(self, *, report_bytes: int | None = None) -> LteProfile:
        size = self.report_bytes if report_bytes is None else report_bytes
        if size < 1:
            raise ParameterError(f"report_bytes must be positive, got {size!r}")
        subframes = self.ri_seconds / SUBFRAME_SECONDS  # above 0.5 exactly where it rounds to 1 or more
        if not (subframes > 0.5 and self.ri_seconds <= _MAX_RI_SECONDS):
            raise ParameterError(f"ri_seconds must be more than {SUBFRAME_SECONDS / 2:g} and at most "
                                 f"{_MAX_RI_SECONDS:g}, got {self.ri_seconds!r}")
        return LteProfile(
            rbs_per_subframe_total=self.bandwidth_rbs,
            m2m_rbs_per_subframe=self.m2m_rbs if self.m2m_rbs is not None else self.bandwidth_rbs,
            bits_per_re=MODULATION_BITS[self.modulation],
            report_size_bits=8 * size,
            ri_subframes=round(subframes),
        )


# a --out CSV is first written to .m2mpool-<token>-<n>.csv beside the target,
# opened as tempfile.mkstemp opens a file; n counts the names found taken
_TEMP_FLAGS = (os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_CLOEXEC", 0)
               | getattr(os, "O_NOFOLLOW", 0) | getattr(os, "O_BINARY", 0))
_TEMP_TOKEN, _TEMP_TRIES = os.urandom(6).hex(), 100
# lines (the header among them) encoded and written to a --out file at once
_CHUNK_LINES = 4096


def _write_csv(path: str | None, header: str, lines: Iterable[str]) -> None:
    """Write the header and the rows, each one comma-joined line, as one CSV: to stdout
    once every row is made, or a chunk at a time as they are made to a temporary file
    renamed onto path, whose OSError names path and is raised after the last row."""
    if path is None:
        sys.stdout.write("\n".join([header, *lines, ""]))
        return
    rows = itertools.chain([header], lines)
    target = os.path.normpath(path)  # read lexically, as os.path.abspath reads it
    try:
        for n in range(_TEMP_TRIES):
            tmp = os.path.join(os.path.dirname(target), f".m2mpool-{_TEMP_TOKEN}-{n}.csv")
            with contextlib.suppress(FileExistsError):
                fd = os.open(tmp, _TEMP_FLAGS, 0o600)
                break
        else:
            raise FileExistsError(errno.EEXIST, "no usable temporary file name")
        try:
            try:
                while chunk := list(itertools.islice(rows, _CHUNK_LINES)):
                    data = memoryview(os.linesep.join([*chunk, ""]).encode("utf-8"))
                    while data:
                        data = data[os.write(fd, data):]
            finally:
                os.close(fd)
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        collections.deque(rows, maxlen=0)
        raise OSError(exc.errno, exc.strerror, path) from exc


Output = tuple[Iterable[str], str]  # a command's CSV rows (made lazily or not) and its summary


def cmd_dimension(cfg: _Config) -> Output:
    params = cfg.system_params()
    profile = cfg.lte_profile()
    summary = demand_summary(params)
    capacity = dimension_capacity(params, summary)
    plan = build_pool_plan(params.n_devices, profile, capacity)
    pe, eps = float_text(params.p_e), float_text(params.target_failure)
    return [SCHEMAS["dimension"].row % (
        params.n_devices, pe, params.max_attempts, eps,
        summary.mean, summary.std, capacity, plan.rbs_per_report, plan.alpha,
        plan.preallocated_subframes, plan.common_subframes, plan.total_subframes,
        plan.capacity_fraction, plan.worst_case_delay_seconds,
    )], (
        f"N={params.n_devices} pe={pe} L={params.max_attempts} eps={eps}: "
        f"C_min={capacity}, mu={summary.mean:.1f}, sigma={summary.std:.2f}, "
        f"pool={plan.total_subframes} subframes (X_P={plan.preallocated_subframes}, "
        f"X_C={plan.common_subframes}), fraction={plan.capacity_fraction:.4f}, "
        f"worst-case delay {plan.worst_case_delay_seconds:.3f} s"
    )


def cmd_validate_clt(cfg: _Config) -> Output:
    check_simulable(cfg.devices, cfg.arrival_model)
    if cfg.runs < 1:
        raise ParameterError(f"validate-clt needs runs >= 1, got {cfg.runs!r}")
    pe_values = [0.1, 0.4] if cfg.pe is None else [cfg.pe]
    all_params = [cfg.system_params(pe=pe) for pe in pe_values]
    check_work(cfg.runs * len(all_params), cfg.max_attempts)
    # every histogram is drawn, so its width is checked, before any row is made
    hists = sample_demand(all_params, cfg.runs, cfg.seed)
    tables, notes = [], []
    for pe, params, hist in zip(map(float_text, pe_values), all_params, hists):
        summary = demand_summary(params)
        cdf = gaussian_cdf(summary, hist.offset, hist.offset + hist.counts.size - 1)
        notes.append(
            f"pe={pe}: ks={ks_distance(hist, cdf):.5f}, empirical mean {hist.mean():.4f} "
            f"vs analytic {summary.mean:.4f}, runs={hist.runs}"
        )
        tables.append((pe, hist, cdf))
    row = SCHEMAS["validate-clt"].row
    rows = (row % (pe, value, count / hist.runs, cumulative / hist.runs, cdf_hi - cdf_lo, cdf_hi)
            for pe, hist, cdf in tables
            for value, count, cumulative, cdf_lo, cdf_hi in zip(
                hist.values.tolist(), hist.counts.tolist(), hist.counts.cumsum().tolist(), cdf, cdf[1:]))
    return rows, "\n".join(notes)


def cmd_simulate(cfg: _Config) -> Output:
    check_simulable(cfg.devices, cfg.arrival_model)
    if cfg.runs < 1:
        raise ParameterError(f"simulate needs runs >= 1, got {cfg.runs!r}")
    params = cfg.system_params()
    summary = demand_summary(params)
    capacity = dimension_capacity(params, summary) if cfg.capacity is None else cfg.capacity
    policy = SchedulerPolicy(cfg.policy)
    check_work(cfg.runs, params.max_attempts)
    estimate = estimate_failure_prob(params, capacity, policy, cfg.runs, cfg.seed)
    bound = failure_bound(capacity, summary, params.p_e, params.max_attempts)
    pe = float_text(params.p_e)
    return [SCHEMAS["simulate"].row % (
        params.n_devices, pe, params.max_attempts, capacity, cfg.policy, cfg.runs,
        estimate.reports_total, estimate.reports_failed, estimate.p_hat, estimate.ci_low,
        estimate.ci_high, bound,
    )], (
        f"N={params.n_devices} pe={pe} L={params.max_attempts} C={capacity} "
        f"policy={cfg.policy}: p_hat={estimate.p_hat:.6g} "
        f"ci=[{estimate.ci_low:.6g}, {estimate.ci_high:.6g}] bound={bound:.10g}"
    )


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


def _sweep_rows(cfg: _Config, by_devices: bool, values: range) -> Iterator[str]:
    # what the swept value leaves alone is computed at the first point, in the
    # order every point is checked in: parameters, profile, dimensioning, plan,
    # simulation.  The values grow from the first, so its checks of N, the report
    # size and the moments' sign hold for all; a point computes what its value changes
    first = values[0]
    params = cfg.system_params(devices=first if by_devices else None)
    profile = cfg.lte_profile(report_bytes=None if by_devices else first)
    moments = device_moments(params.p_e, params.max_attempts, params.arrival)
    summary = DemandSummary(*scaled_moments(params.n_devices, moments))
    mean, std = summary.mean, summary.std
    smallest_capacity = capacity_rule(params).smallest_capacity
    capacity = smallest_capacity(mean, std)
    n_devices, report_bytes, rbs = params.n_devices, cfg.report_bytes, rbs_per_report(profile)
    policy = SchedulerPolicy(cfg.policy)
    simulated, estimate = ("", ""), None
    row = SCHEMAS["sweep"].row
    for value in values:
        if by_devices:
            n_devices = value
            mean, variance = scaled_moments(value, moments)
            std = math.sqrt(variance)
            capacity = smallest_capacity(mean, std)
        else:
            report_bytes = value
            rbs = rbs_per_report(profile, 8 * value)
        x_p, x_c, fraction = pool_layout(n_devices, profile, capacity, rbs)
        if cfg.runs > 0 and (by_devices or estimate is None):
            point = cfg.system_params(devices=value) if by_devices else params
            estimate = estimate_failure_prob(point, capacity, policy, cfg.runs, cfg.seed)
            simulated = ("%.10g" % estimate.p_hat, "%.10g" % estimate.ci_high)
        yield row % (n_devices, report_bytes, mean, std, capacity, rbs, x_p, x_c, fraction, *simulated)


def cmd_sweep(cfg: _Config) -> Output:
    var, start, stop, step = _parse_sweep(cfg.sweep)
    if cfg.runs < 0:
        raise ParameterError(f"sweep needs runs >= 0, got {cfg.runs!r}")
    values = range(start, stop + 1, step)
    if cfg.runs > 0 and values:  # every limit grows with N: the largest simulated is checked
        check_simulable(values[-1] if var == "devices" else cfg.devices, cfg.arrival_model)
        # a report-bytes axis simulates its first point alone
        check_work(cfg.runs * (len(values) if var == "devices" else 1), cfg.max_attempts)
    rows = _sweep_rows(cfg, var == "devices", values) if values else []
    return rows, f"sweep {var} {start}..{stop} step {step}: {len(values)} points"


# command -> (function, help, the _OPTIONS keys it reads in _OPTIONS order,
# its own defaults for some of them); validate-clt's pe None runs both 0.1 and 0.4
_COMMANDS = {
    "dimension": (cmd_dimension, "dimension the shared pool and lay it out",
                  ("devices", "pe", "max_attempts", "target_eps", "arrival", "load", "report_bytes",
                   "modulation", "bandwidth_rbs", "m2m_rbs", "ri_seconds"), {}),
    "validate-clt": (cmd_validate_clt, "compare sampled demand against its Gaussian model "
                     f"(one CSV row per demand value, at most {MAX_HISTOGRAM_WIDTH} per p_e)",
                     ("devices", "pe", "max_attempts", "arrival", "load", "runs", "seed"),
                     {"devices": 100, "pe": None}),
    "simulate": (cmd_simulate, "estimate the empirical report-failure probability",
                 ("devices", "pe", "max_attempts", "target_eps", "arrival", "load", "runs", "seed",
                  "policy", "capacity"), {}),
    "sweep": (cmd_sweep, "dimension across a parameter range, one CSV row per point",
              tuple(key for key in _OPTIONS if key != "capacity"), {"runs": 0}),
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _Config(args)
        rows, summary = _COMMANDS[cfg.command][0](cfg)
        _write_csv(cfg.out, SCHEMAS[cfg.command].header, rows)
        print(summary, file=sys.stdout if cfg.out else sys.stderr)
        return EXIT_OK
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
