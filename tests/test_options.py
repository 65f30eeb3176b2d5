"""Every settable value of the package, listed by name.

A settable value is a parameter with a default or a dataclass field with a
default, anywhere in ``src/waveinform``.  The literal below is the whole
list, so the option count is reproducible and a new option shows up in
review as a one-line edit here.
"""

import ast
from pathlib import Path

import waveinform

PACKAGE = Path(waveinform.__file__).parent


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
    "design.lhs_design(restarts)",
    "design.lhs_design(seed)",
    "design.minimize_box(tol)",
    "design.minimize_box(max_evals)",
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
    "experiments.cmd_sample(manifest)",
    "experiments.cmd_sample(outdir)",
    "experiments.cmd_fit(theta_true)",
    "experiments.scan_limit_profile(lam)",
    "experiments.scan_limit_profile(chunk)",
    "experiments.cmd_pointsource_scan(mode)",
    "experiments._verify_kernel_psd(seed)",
    "experiments._verify_kernel_psd(n)",
    "experiments._verify_kernel_psd(tamper)",
    "experiments._verify_oracle_match(order)",
    "experiments._verify_oracle_match(n_pairs)",
    "experiments._verify_oracle_match(seed)",
    "experiments._verify_pde_residual(seed)",
    "experiments._verify_pde_residual(n_points)",
    "experiments._verify_pde_residual(step)",
    "experiments.cmd_verify(selector)",
    "experiments.cmd_verify(outdir)",
    "experiments.cmd_verify(quad_order)",
    "experiments.cmd_verify(tamper_psd)",
    "fast.rank_one_objective(lam)",
    "gp.PosteriorModel.jitter",
    "kernels.HyperParams.u",
    "kernels.HyperParams.v",
    "kernels.HyperParams.lam",
    "kernels._radial(r2)",
    "kernels._radial(t2)",
    "kernels._kernel(x2)",
    "kernels._kernel(t2)",
    "kernels.WaveKernel.radial(r2)",
    "kernels.WaveKernel.radial(t2)",
    "kernels.stationary_gaussian_wave(cprime)",
    "oracle.NumericalBase.__init__(step)",
    "oracle.matern52_profile(order)",
    "oracle.MaternSquaredBase.__init__(deriv_order)",
    "oracle.lp_stability_check(tol)",
    "oracle.calibrate_gaussian_prefactor(rule)",
    "sim.InitialCondition.x0",
    "sim.InitialCondition.radii",
    "sim.InitialCondition.amplitude",
    "sim.InitialCondition.func",
    "sim.InitialCondition.grad_func",
    "sim.run_simulation(sample_rate)",
]


def test_options_are_the_listed_ones():
    assert package_options() == OPTIONS
