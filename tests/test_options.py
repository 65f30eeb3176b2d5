"""Every settable value and every uncalled public name of the package.

A settable value is a parameter with a default or a dataclass field with a
default, anywhere in ``src/waveinform``.  The literal below is the whole
list, so the option count is reproducible and a new option shows up in
review as a one-line edit here.

An uncalled public name is a module-level function, class or constant of
``src/waveinform`` that no code of the package (``__init__.py`` aside) or
of ``perfbench/`` references.  Such a name serves only the tests, so it
belongs in ``tests/dense_reference.py`` unless ``UNCALLED`` gives the
reason it stays.
"""

import ast
from pathlib import Path

import waveinform

PACKAGE = Path(waveinform.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _defaulted_args(args):
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
              if d is not None]
    return names


def _options(node, prefix):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            yield from (f"{name}({arg})"
                        for arg in _defaulted_args(child.args))
            yield from _options(child, name + ".")
        elif isinstance(child, ast.ClassDef):
            name = prefix + child.name
            if _is_dataclass(child):
                yield from (f"{name}.{stmt.target.id}" for stmt in child.body
                            if isinstance(stmt, ast.AnnAssign)
                            and stmt.value is not None)
            yield from _options(child, name + ".")
        else:
            yield from _options(child, prefix)


def package_options():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.extend(_options(tree, path.stem + "."))
    return found


OPTIONS = [
    "cli.main(argv)",
    "experiments.case_theta(noise_sigma)",
    "experiments.ExperimentConfig.test_case",
    "experiments.ExperimentConfig.sim",
    "experiments.ExperimentConfig.n_sensors",
    "experiments.ExperimentConfig.sensor_bounds",
    "experiments.ExperimentConfig.layout_seed",
    "experiments.ExperimentConfig.layout_restarts",
    "experiments.ExperimentConfig.sensor_positions",
    "experiments.ExperimentConfig.sample_rate",
    "experiments.ExperimentConfig.noise_sigma",
    "experiments.ExperimentConfig.noise_seed",
    "experiments.ExperimentConfig.fit_n_mult",
    "experiments.ExperimentConfig.fit_seed",
    "experiments.ExperimentConfig.fit_max_evals",
    "experiments.ExperimentConfig.fit_tol",
    "experiments.ExperimentConfig.dx_grid",
    "experiments.ExperimentConfig.dt_v",
    "experiments.cmd_fit(theta_true)",
    "experiments.cmd_verify(tamper_psd)",
    "fast.rank_one_objective(lam)",
    "kernels.HyperParams.u",
    "kernels.HyperParams.v",
    "kernels.HyperParams.lam",
    "kernels._radial(r2)",
    "kernels._radial(t2)",
    "kernels._kernel(x2)",
    "kernels._kernel(t2)",
    "kernels.WaveKernel.radial(r2)",
    "kernels.WaveKernel.radial(t2)",
]


def test_options_are_the_listed_ones():
    assert package_options() == OPTIONS


UNCALLED = {
    "fast.posterior_var":
        "Kriging variance; its radial path or its move to the dense "
        "reference is still open",
    "kernels.ku_wave_diag": "named as a string by perfbench/tracing.py",
    "kernels.kv_wave_diag": "named as a string by perfbench/tracing.py",
}


def _module_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets if isinstance(t, ast.Name))
        elif (isinstance(node, ast.AnnAssign)
              and isinstance(node.target, ast.Name)):
            yield node.target.id


def _referenced(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def uncalled_public_names():
    modules = {path.stem: _parse(path) for path in PACKAGE.glob("*.py")
               if path.name != "__init__.py"}
    callers = [*modules.values(), *map(_parse, PERFBENCH.glob("*.py"))]
    used = {name for tree in callers for name in _referenced(tree)}
    return sorted(f"{stem}.{name}" for stem, tree in modules.items()
                  for name in _module_names(tree)
                  if not name.startswith("_") and name not in used)


def test_public_names_have_a_caller():
    assert uncalled_public_names() == sorted(UNCALLED)
