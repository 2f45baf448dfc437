"""One home for each per-device law.  The arrival models own their
report-count law: no module outside their validation asks which model it
holds, and the engine never names one.  `analytic.AttemptLaw` owns the
attempt law: it alone raises p_e to a power (with the sums it reads) and
checks (p_e, L).  The engine draws a block on one path, arrivals then
outcomes, and checks the capacity and the policy once on it; `_blocks`
alone checks a simulation call's runs and entries, and hands on three arrays
an interval each.  The outcome law is drawn there alone, validate-clt
included, with one row per interval or two as the capacity alone decides.
The normal quantile and the Poisson draws are the libraries' own, and the
Gaussian demand law is evaluated in `analytic` alone, by one tail function."""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path

from m2mpool import sim

SRC = Path(__file__).resolve().parents[1] / "src" / "m2mpool"
MODELS = {"OnePerRI", "PoissonPerRI"}


def names(node: ast.AST) -> set[str]:
    """Every name, attribute or imported name under `node`."""
    found = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            found.add(child.id)
        elif isinstance(child, ast.Attribute):
            found.add(child.attr)
        elif isinstance(child, ast.alias):
            found.add(child.asname or child.name)
    return found


def scoped(node: ast.AST, scope: str = "") -> Iterator[tuple[str, ast.AST]]:
    """(enclosing class.function, node) of every node under `node`."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{child.name}".lstrip(".")
        else:
            yield scope, child
        yield from scoped(child, inner)


def under_ifs(node: ast.AST, tests: tuple[str, ...] = ()) -> Iterator[tuple[ast.AST, tuple[str, ...]]]:
    """(node, the tests of the `if` statements whose body holds it) of every
    node under `node`."""
    for field, value in ast.iter_fields(node):
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                inner = (*tests, ast.unparse(node.test)) if isinstance(node, ast.If) and field == "body" else tests
                yield child, inner
                yield from under_ifs(child, inner)


def engine_function(name: str) -> ast.FunctionDef:
    [function] = [node for node in ast.walk(ast.parse((SRC / "sim.py").read_text()))
                  if isinstance(node, ast.FunctionDef) and node.name == name]
    return function


def called(node: ast.AST) -> str | None:
    """The name a call calls, bare or as an attribute."""
    if isinstance(node, ast.Call):
        func = node.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return None


def test_the_engine_never_names_an_arrival_model():
    assert not names(ast.parse((SRC / "sim.py").read_text())) & MODELS


def test_only_parameter_validation_asks_which_model_it_has():
    found = [(path.name, scope, node.lineno) for path in sorted(SRC.glob("*.py"))
             for scope, node in scoped(ast.parse(path.read_text()))
             if called(node) == "isinstance" and names(node) & MODELS
             and (path.name, scope) != ("analytic.py", "SystemParams.__post_init__")]
    assert found == []


def test_only_the_attempt_law_raises_p_e_to_a_power():
    homes = {"AttemptLaw", "_attempt_sums"}
    found = [(path.name, scope.split(".")[0], node.lineno) for path in sorted(SRC.glob("*.py"))
             for scope, node in scoped(ast.parse(path.read_text()))
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
             and "p_e" in (getattr(node.left, "id", None), getattr(node.left, "attr", None))]
    assert {(name, home) for name, home, _ in found} == {("analytic.py", home) for home in homes}, found


def test_only_the_attempt_law_checks_p_e_and_the_retry_limit():
    found = [(path, scope) for path in ("analytic.py", "sim.py")
             for scope, node in scoped(ast.parse((SRC / path).read_text()))
             if called(node) == "check_error_prob" or (
                 called(node) == "check_positive_int" and getattr(node.args[0], "value", None) == "max_attempts")]
    assert found == [("analytic.py", "AttemptLaw.__post_init__")] * 2


def test_the_engine_checks_the_capacity_once_on_its_one_block_path():
    tree = ast.parse((SRC / "sim.py").read_text())
    for message in ("capacity must be non-negative", "unknown scheduler policy"):
        raising = [scope for scope, node in scoped(tree) if isinstance(node, ast.Raise)
                   and any(message in str(getattr(part, "value", "")) for part in ast.walk(node))]
        assert raising == ["_draw_outcomes"], message
    for draw in ("_draw_arrivals", "_draw_outcomes"):
        assert sorted(scope for scope, node in scoped(tree) if called(node) == draw) == [
            "_blocks", "simulate_interval"], draw


def test_only_the_block_loop_checks_a_simulation_call_s_runs_and_entries():
    # estimate_failure_prob's own run check, "intervals must be positive", is raised nowhere
    raising = {}
    for path in sorted(SRC.glob("*.py")):
        for scope, node in scoped(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                text = " ".join(str(getattr(part, "value", "")) for part in ast.walk(node))
                for message in ("runs must be positive", "intervals must be positive",
                                "at least one parameter set", "same devices and arrival"):
                    if message in text:
                        raising.setdefault(message, []).append((path.name, scope))
    assert raising == {message: [("sim.py", "_blocks")] for message in (
        "runs must be positive", "at least one parameter set", "same devices and arrival")}


def test_an_engine_block_hands_on_three_arrays():
    returns = [node.value for node in ast.walk(engine_function("_draw_outcomes")) if isinstance(node, ast.Return)]
    assert [len(getattr(value, "elts", ())) for value in returns] == [3]
    assert sim.IntervalResult._fields == ("reports", "failures", "common_demand")


def test_the_outcome_law_is_drawn_in_one_place():
    # one multinomial each: the arrivals, the outcomes, the random policy's leap
    found = [(path.name, scope, called(node)) for path in sorted(SRC.glob("*.py"))
             for scope, node in scoped(ast.parse(path.read_text()))
             if called(node) in ("multinomial", "_outcome_law")]
    assert sorted(found) == [("sim.py", "_draw_arrivals", "multinomial"), ("sim.py", "_draw_outcomes", "_outcome_law"),
                             ("sim.py", "_draw_outcomes", "multinomial"), ("sim.py", "_leap", "multinomial")]


def test_the_outcome_rows_follow_the_capacity_alone():
    tree = ast.parse((SRC / "sim.py").read_text())
    [draw] = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "_draw_outcomes"]
    assert [arg.arg for arg in draw.args.args] == ["gen", "params", "active", "excess", "capacity", "policy"]
    [choice] = [node.value for node in ast.walk(draw) if isinstance(node, ast.Assign)
                and [getattr(target, "id", None) for target in node.targets] == ["rows"]]
    assert isinstance(choice, ast.IfExp)
    assert names(choice.test) == {"capacity", "_INT64_MAX"}
    # nor does anything else in it ask who called
    assert not names(draw) & {"inspect", "_getframe", "currentframe", "sample_demand", "estimate_failure_prob"}


def test_the_report_count_law_has_one_layout_at_every_load():
    # the zero category leads every table, so nothing branches on the load
    law = engine_function("_report_count_law")
    assert not [node for node in ast.walk(law) if isinstance(node, (ast.If, ast.IfExp))
                or isinstance(node, ast.comprehension) and node.ifs]


def test_the_pool_takes_one_class_table_split_by_kind():
    for path in sorted(SRC.glob("*.py")):
        assert "_Table" not in names(ast.parse(path.read_text())), path.name
    assert [arg.arg for arg in engine_function("_serve").args.args] == [
        "gen", "pending", "flags", "counts", "split", "capacity", "policy"]


def test_only_reports_past_the_chain_are_merged_into_classes():
    # within the chain the flagged class is the last outcome column as drawn
    found = [(ast.unparse(node.func), tests) for node, tests in under_ifs(engine_function("_draw_outcomes"))
             if isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.unique", "np.add.at")]
    assert sorted(name for name, _ in found) == ["np.add.at", "np.add.at", "np.unique"]
    assert all("remaining" in tests for _, tests in found), found


def test_no_second_block_path_or_leap_floor_is_left():
    for path in sorted(SRC.glob("*.py")):
        assert not names(ast.parse(path.read_text())) & {"_draw_block", "_LEAP_FLOOR"}, path.name


def test_the_only_keep_alive_imports_are_the_tracer_s_three():
    found = [(path.name, name.strip()) for path in sorted(SRC.glob("*.py"))
             for line in path.read_text().splitlines() if "# noqa: F401" in line
             for name in line.split(" import ")[-1].split("#")[0].split(",")]
    assert found == [("cli.py", "q_function"), ("sim.py", "poisson_counts"), ("sim.py", "q_function")]


def test_one_analytic_function_evaluates_the_gaussian_tail():
    calls = {path.name: {scope for scope, node in scoped(ast.parse(path.read_text())) if called(node) == "q_function"}
             for path in sorted(SRC.glob("*.py"))}
    assert calls["analytic.py"] == {"_gaussian_tail"}
    assert calls["sim.py"] == calls["cli.py"] == set()


def test_the_gaussian_cdf_is_defined_in_analytic_alone():
    found = [path.name for path in sorted(SRC.glob("*.py")) for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef) and node.name == "gaussian_cdf"]
    assert found == ["analytic.py"]


def test_numerics_hand_rolls_no_quantile_or_poisson_sampler():
    tree = ast.parse((SRC / "numerics.py").read_text())
    assert not names(tree) & {"_poisson_cdf", "_poisson_draw", "_LOG_SQRT_2PI"}
    assert "q_function" not in {called(node) for scope, node in scoped(tree) if scope == "q_inverse"}


def test_the_package_root_binds_only_what_the_benchmark_self_test_reads():
    bound = []
    for node in ast.parse((SRC / "__init__.py").read_text()).body[1:]:  # after the docstring
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign):
            bound += [getattr(target, "id", None) for target in node.targets]
        else:
            bound.append(f"{type(node).__name__} {getattr(node, 'name', '')}".rstrip())
    assert sorted(bound) == ["SystemParams", "__all__", "__version__", "demand_summary"]
