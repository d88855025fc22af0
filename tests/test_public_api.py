"""The public API is pinned, and every function the benchmark traces exists.

perfbench finds its per-layer metrics by "layer.function" name and raises
KeyError for a missing one, but only in a traced run. These tests read
those names from its sources, without importing it, so renaming or removing
a traced function fails here. The settings pins make any growth of the
configurable surface show up as a diff, and the CLI's flags are pinned per
command and together to RunConfig's fields, whose Monte Carlo defaults are
McConfig's. Every public annotation resolves, and an AST walk pins where
each scalar module may reach numpy: the closed forms nowhere. In a fresh
interpreter, importing the library and the checks leaves numpy unloaded
until one samples; the package alone binds fairhedge.oracle, lazily.
"""

import argparse
import ast
import dataclasses
import importlib
import inspect
import json
import re
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import fairhedge
from fairhedge import cli, core, equilibrium, oracle, validation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACED_NAME = re.compile(r"(core|equilibrium|oracle|validation)\.([A-Za-z_]\w*)")

PUBLIC_API = {
    "__version__",
    "MarketParams", "OptionContract", "NumericConfig", "McConfig",
    "std_normal_cdf", "d_plus_minus", "bs_call_price",
    "expected_call_payoff_physical", "implied_vol",
    "MAX_HEDGE_FRACTION", "RiskThresholds", "RiskReport", "EquilibriumQuote", "SmilePoint",
    "fair_price", "expected_profits",
    "writer_risk", "minimize_writer_risk", "volatility_smile", "revalue_at_time",
    "PricingError", "PriceOutOfBounds", "BracketExhausted", "NonpositivePrice",
    "DomainError", "DegenerateLoss", "DegenerateMarket", "EmptyDomain", "ExpiredContract",
}


def traced_names() -> set[tuple[str, str]]:
    """The (layer, function) pairs that run.py passes as string literals to its
    span queries (metric names are dict keys, not arguments), and the names
    in spans.VALIDATION_CHECKS."""
    run_tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    names = {
        match.groups()
        for call in ast.walk(run_tree)
        if isinstance(call, ast.Call)
        for arg in call.args
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
        for match in [TRACED_NAME.fullmatch(arg.value)]
        if match
    }
    spans_tree = ast.parse((PERFBENCH / "spans.py").read_text(encoding="utf-8"))
    (checks,) = [
        node.value
        for node in spans_tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["VALIDATION_CHECKS"]
    ]
    return names | {("validation", name) for name in ast.literal_eval(checks)}


def test_perfbench_traces_only_public_functions():
    names = traced_names()
    # 11 names in run.py's span queries and the 9 checks.
    assert len(names) >= 20
    assert ("core", "implied_vol") in names and ("validation", "check_mc_agreement") in names
    for layer, name in sorted(names):
        module = importlib.import_module(f"fairhedge.{layer}")
        fn = getattr(module, name, None)
        assert not name.startswith("_") and inspect.isfunction(fn), f"{layer}.{name}"
        assert fn.__module__ == module.__name__, f"{layer}.{name}"


def test_public_api_is_pinned():
    assert len(fairhedge.__all__) == len(PUBLIC_API)
    assert set(fairhedge.__all__) == PUBLIC_API
    assert all(hasattr(fairhedge, name) for name in PUBLIC_API)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from fairhedge import *", namespace)
    assert PUBLIC_API <= set(namespace)


def test_oracle_names_are_imported_from_the_oracle_only():
    # The package binds the module, not its names; McConfig is core's, which
    # the oracle imports but does not export.
    names = ("McEstimate", "simulate_terminal", "mc_conditional_loss", "quad_expectation",
             "realized_losses")
    for name in names:
        assert name in oracle.__all__ and not hasattr(fairhedge, name), name
    assert fairhedge.oracle is sys.modules["fairhedge.oracle"] is oracle
    assert "McConfig" not in oracle.__all__
    assert fairhedge.McConfig is core.McConfig is oracle.McConfig


def test_the_oracle_is_bound_lazily_in_one_place():
    src = Path(fairhedge.__file__).parent
    assert [path.name for path in sorted(src.glob("*.py"))
            if "LazyLoader" in path.read_text(encoding="utf-8")] == ["__init__.py"]


@pytest.mark.parametrize(
    "module", [fairhedge, cli, core, equilibrium, oracle, validation],
    ids=lambda module: module.__name__,
)
def test_public_annotations_resolve(module):
    # Annotations are strings under `from __future__ import annotations`;
    # one that names a module-local import fails only when it is resolved.
    public = [getattr(module, name) for name in module.__all__]
    annotated = [obj for obj in public if inspect.isfunction(obj) or inspect.isclass(obj)]
    assert annotated
    for obj in annotated:
        typing.get_type_hints(obj)


# The modules that load numpy when imported.
NUMPY_MODULES = {"numpy", "fairhedge.oracle"}
# Per module, the (enclosing function, module) pairs through which it reaches numpy.
NUMPY_IMPORTS = {
    "core": set(),
    "equilibrium": set(),
    "errors": set(),
    "cli": set(),
    "__init__": set(),
    "validation": {
        ("draw_suite", "numpy"),
        ("check_price_vs_quadrature", "numpy"),
        ("check_price_vs_quadrature", "fairhedge.oracle"),
        ("_quadrature_risks", "numpy"),
        ("_quadrature_risks", "fairhedge.oracle"),
        ("check_mc_agreement", "fairhedge.oracle"),
    },
}


def numpy_imports(module: str) -> set[tuple[str | None, str]]:
    """(enclosing function or None, imported module) of every import in the module's
    source, function bodies included, that loads numpy."""
    source = (Path(fairhedge.__file__).parent / f"{module}.py").read_text(encoding="utf-8")
    found = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        targets = []
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):  # the package's own imports are relative
            base = ".".join(filter(None, ["fairhedge" if node.level else "", node.module]))
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        for target in targets:
            target = "numpy" if target.split(".")[0] == "numpy" else target
            if target in NUMPY_MODULES:
                found.add((function, target))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


@pytest.mark.parametrize("module", list(NUMPY_IMPORTS))
def test_numpy_is_reached_only_where_the_program_samples(module):
    # The closed forms are pure math; validation reaches numpy only in the four
    # functions that sample (check_mc_agreement through the oracle alone), and
    # the package binds the oracle without running it.
    assert numpy_imports(module) == NUMPY_IMPORTS[module]


# Imports the library alone, then the CLI and checks, then runs a small suite,
# printing whether numpy and fairhedge.oracle are loaded and in sys.modules after
# each step. The first step also lists the package's public names outside __all__.
IMPORT_BOUNDARY_SCRIPT = """
import json, sys
import fairhedge
extra = sorted(n for n in vars(fairhedge) if not n.startswith("_") and n not in fairhedge.__all__)
steps = [["numpy" in sys.modules, "fairhedge.oracle" in sys.modules, extra]]
import fairhedge.cli, fairhedge.validation
steps.append(["numpy" in sys.modules, "fairhedge.oracle" in sys.modules])
params = fairhedge.MarketParams(spot=100.0, drift=0.10, volatility=0.20, risk_free=0.05)
contract = fairhedge.OptionContract(strike=100.0, expiry=1.0)
results = fairhedge.validation.run_all_checks(params, contract, fairhedge.McConfig(paths=1_000))
steps.append(["numpy" in sys.modules, all(r.passed for r in results)])
steps.append([fairhedge.oracle.quad_rule is sys.modules["fairhedge.oracle"].quad_rule])
print(json.dumps(steps))
"""


def test_numpy_loads_when_a_check_samples_not_when_validation_is_imported():
    # `import fairhedge` binds fairhedge.oracle, its one name beyond __all__ and
    # the submodules it imports, but the oracle runs on first use.
    result = subprocess.run([sys.executable, "-c", IMPORT_BOUNDARY_SCRIPT],
                            capture_output=True, text=True, check=True)
    assert json.loads(result.stdout) == [
        [False, True, ["core", "equilibrium", "errors", "oracle"]],
        [False, True],
        [True, True],
        [True],
    ]


def test_unknown_attribute_names_the_module_and_the_attribute():
    with pytest.raises(AttributeError, match="^module 'fairhedge' has no attribute 'no_such_name'$"):
        fairhedge.no_such_name


def test_only_monte_carlo_size_and_seed_are_settable():
    assert [field.name for field in dataclasses.fields(core.McConfig)] == ["paths", "seed"]
    assert not hasattr(oracle, "QuadConfig")
    signatures = {
        core.implied_vol: ["params", "contract", "observed_price"],
        equilibrium.minimize_writer_risk: ["params", "contract"],
        equilibrium.volatility_smile: ["params", "strikes", "expiry"],
        equilibrium.revalue_at_time: ["params", "contract", "t", "spot_at_t"],
        oracle.terminal_price: ["params", "expiry", "z", "growth", "out"],
        oracle.terminal_chunks: ["params", "expiry", "cfg"],
        oracle.realized_losses: ["params", "contract", "x", "price", "terminal", "out"],
        oracle.mc_conditional_loss: ["params", "contract", "x", "price", "cfg"],
        oracle.quad_rule: ["breakpoints"],
        oracle.quad_expectation: ["integrand", "breakpoints"],
        validation.check_implied_vol_round_trip: ["params", "contract"],
        validation.check_price_vs_quadrature: ["params", "contract"],
        validation.check_fair_play_identity: ["params", "contract", "kernel"],
        validation.check_risks_vs_quadrature: ["params", "contract", "kernel"],
        validation.check_quote_grid_consistency: ["kernel", "quote"],
        validation.check_threshold_ordering: ["kernel", "grid"],
        validation.check_threshold_arg_monotonicity: ["kernel", "grid"],
        validation.run_all_checks: ["params", "contract", "mc_cfg"],
    }
    for fn, parameters in signatures.items():
        assert list(inspect.signature(fn).parameters) == parameters, fn.__name__


def test_cli_flags_are_the_run_config_fields():
    # Each command takes only the flags it reads, and _merge_config reads
    # one flag per RunConfig field: together the commands' flags are the
    # fields, so no field lacks a flag and no flag lacks a field.
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {action.dest for action in sub._actions} - {"help"}
             for name, sub in commands.choices.items()}
    # --strike and --strikes both fill strikes; --config names the file.
    shared = {"config", "s0", "mu", "sigma", "r", "t", "strike", "strikes", "format", "out"}
    assert flags == {
        "price": shared | {"x"},
        "quote": shared | {"reval_t", "reval_spot"},
        "risk-curve": shared | {"x", "grid_step"},
        "smile": shared,
        "validate": shared | {"paths", "seed"},
    }
    keys = {field.name for field in dataclasses.fields(cli.RunConfig)}
    assert set().union(*flags.values()) == keys | {"strike", "config"}


def test_cli_monte_carlo_defaults_are_mc_config_defaults():
    run_defaults = {field.name: field.default for field in dataclasses.fields(cli.RunConfig)}
    mc_defaults = {field.name: field.default for field in dataclasses.fields(core.McConfig)}
    assert mc_defaults == {key: run_defaults[key] for key in ("paths", "seed")}
