"""Each command's CSV schema: its one %-format writes the bytes of the
per-field formatting it replaced, and a sweep, which computes a point from
what the first point left, writes what that formatting gives for the
library's own objects at every point."""

from __future__ import annotations

import io
import math
import re
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from m2mpool.analytic import OnePerRI, PoissonPerRI, SystemParams, capacity_rule, demand_summary
from m2mpool.cli import SCHEMAS, main
from m2mpool.lte import MODULATION_BITS, LteProfile, build_pool_plan
from m2mpool.numerics import float_text
from m2mpool.sim import SchedulerPolicy, estimate_failure_prob

INTS = st.integers(-10**400, 10**400) | st.sampled_from([0, 2**53, 2**63 - 1, 2**63, 2**64, 10**27, 10**400])
FLOATS = st.floats() | st.sampled_from(
    [math.inf, -math.inf, math.nan, -0.0, 5e-324, -5e-324, 1e308, sys.float_info.max, 2.0**53, 0.5e-6])
TEXTS = st.text()


def _g(value: float) -> str:
    return f"{value:.10g}"


def _f6(value: float) -> str:
    return f"{value:.6f}"


def _f3(value: float) -> str:
    return f"{value:.3f}"


INT, TEXT, G, F6, F3 = (INTS, str), (TEXTS, str), (FLOATS, _g), (FLOATS, _f6), (FLOATS, _f3)
# p_e and eps: the commands pass `float_text` of the value to the row's %s
EXACT = (FLOATS, float_text)
# each field's values and the formatting rows were written with, one call per field
FIELDS = {
    "dimension": [INT, EXACT, INT, EXACT, F6, F6, INT, INT, F6, INT, INT, INT, F6, F3],
    "validate-clt": [EXACT, INT, G, G, G, G],
    "simulate": [INT, EXACT, INT, INT, TEXT, INT, INT, INT, G, G, G, G],
    "sweep": [INT, INT, F6, F6, INT, INT, INT, INT, F6, TEXT, TEXT],
}


def test_every_command_has_a_schema_of_one_format_per_field():
    assert set(SCHEMAS) == set(FIELDS)
    for command, schema in SCHEMAS.items():
        width = len(schema.header.split(","))
        assert len(FIELDS[command]) == width == schema.row.count("%"), command


@pytest.mark.parametrize("command", list(FIELDS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_row_format_is_the_per_field_formatting(command, data):
    fields = FIELDS[command]
    values = tuple(data.draw(values) for values, _ in fields)
    passed = tuple(fmt(v) if fmt is float_text else v for (_, fmt), v in zip(fields, values))
    assert SCHEMAS[command].row % passed == ",".join(fmt(v) for (_, fmt), v in zip(fields, values))


def run_fields(argv: list[str], name: str) -> tuple[list[float], list[float]]:
    """The field `name` of every CSV row a command writes, and each `name=`
    value of its summary, parsed back to doubles."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(argv) == 0
    header, *rows = out.getvalue().splitlines()
    column = header.split(",").index(name)
    return ([float(row.split(",")[column]) for row in rows],
            [float(text) for text in re.findall(rf"\b{name}=([^:\s]+)", err.getvalue())])


# p_e in [0, 1): near 1, %.10g alone rounded 1 - 1e-12 to 1, which the command line refuses
P_E = st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from([0.999999999999, 1.0 - 2.0**-53, 5e-324, 0.1])


@settings(max_examples=40, deadline=None)
@given(pe=P_E)
def test_simulate_and_validate_clt_print_p_e_as_given(pe):
    for argv in (["simulate", "--devices", "10", "--runs", "5", "--capacity", "100"],
                 ["validate-clt", "--devices", "10", "--runs", "20"]):
        rows, summary = run_fields([*argv, "--pe", repr(pe)], "pe")
        assert set(rows) == {pe} and summary == [pe], argv[0]


@settings(max_examples=40, deadline=None)
@given(pe=st.floats(0.0, 0.4), eps=st.floats(1e-3, 0.999))
def test_dimension_prints_p_e_and_eps_as_given(pe, eps):
    argv = ["dimension", "--pe", repr(pe), "--target-eps", repr(eps)]
    assert run_fields(argv, "pe") == ([pe], [pe])
    assert run_fields(argv, "eps") == ([eps], [eps])


def point_row(flags: dict, n_devices: int, report_bytes: int) -> str:
    """One sweep row as `dimension` and `simulate` compute it at that point,
    from a DemandSummary and a PoolPlan, formatted one field at a time."""
    arrival = OnePerRI() if flags.get("arrival") == "one-per-ri" else PoissonPerRI(flags.get("load", 1.0))
    params = SystemParams(n_devices, flags.get("pe", 0.1), flags.get("max-attempts", 10), arrival)
    profile = LteProfile(flags.get("bandwidth-rbs", 25), flags.get("bandwidth-rbs", 25),
                         MODULATION_BITS[flags.get("modulation", "qpsk")], 8 * report_bytes,
                         round(flags.get("ri-seconds", 60.0) * 1000))
    summary = demand_summary(params)
    capacity = capacity_rule(params).smallest_capacity(summary.mean, summary.std)
    plan = build_pool_plan(n_devices, profile, capacity)
    simulated = ["", ""]
    if flags.get("runs", 0) > 0:
        policy = SchedulerPolicy(flags.get("policy", "random"))
        estimate = estimate_failure_prob(params, capacity, policy, flags["runs"], flags.get("seed", 1))
        simulated = [_g(estimate.p_hat), _g(estimate.ci_high)]
    return ",".join([
        str(n_devices), str(report_bytes), _f6(summary.mean), _f6(summary.std), str(capacity),
        str(plan.rbs_per_report), str(plan.preallocated_subframes), str(plan.common_subframes),
        _f6(plan.capacity_fraction), *simulated,
    ])


EDGE_SWEEPS = {
    # C_min from 4.8e14 to 4.8e16: most closed forms land past 2**53
    "capacity-past-2**53": ("devices", 10**15, 10**17, 10**15,
                            {"ri-seconds": 86400.0, "bandwidth-rbs": 10**15}),
    "devices-to-1e27": ("devices", 10**24, 10**27, 10**25, {"ri-seconds": 86400.0, "bandwidth-rbs": 10**27}),
    "one-per-ri-devices": ("devices", 1000, 30000, 7000, {"arrival": "one-per-ri", "modulation": "qam64"}),
    "one-per-ri-report-bytes": ("report-bytes", 100, 1000, 300, {"arrival": "one-per-ri", "modulation": "qam64"}),
    "load-2.5": ("devices", 1000, 30000, 7000, {"load": 2.5}),
    "pe-0": ("devices", 1, 30, 1, {"pe": 0.0}),
    "pe-0-one-per-ri": ("devices", 1, 30, 1, {"pe": 0.0, "arrival": "one-per-ri"}),
    "runs-devices": ("devices", 100, 1000, 300, {"runs": 200, "seed": 3}),
    "runs-report-bytes": ("report-bytes", 100, 700, 300,
                          {"devices": 500, "runs": 200, "seed": 4, "policy": "fifo"}),
}


@pytest.mark.parametrize("case", list(EDGE_SWEEPS))
def test_sweep_rows_are_the_per_point_bytes(case):
    axis, start, stop, step, flags = EDGE_SWEEPS[case]
    argv = ["sweep", "--sweep", f"{axis}:{start}:{stop}:{step}"]
    for key, value in flags.items():
        argv += [f"--{key}", str(value)]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    header, *rows = out.getvalue().splitlines()
    assert header == SCHEMAS["sweep"].header
    devices, report_bytes = flags.get("devices", 30000), flags.get("report-bytes", 100)
    values = range(start, stop + 1, step)
    assert len(rows) == len(values)
    for value, row in zip(values, rows):
        point = (value, report_bytes) if axis == "devices" else (devices, value)
        assert row == point_row(flags, *point), value
