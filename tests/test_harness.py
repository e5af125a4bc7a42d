"""Experiment configs, seeded sampling, driver dispatch, file outputs, CLI."""

import dataclasses

import numpy as np
import pytest

from holderopt import (
    BacktrackParams,
    ExperimentConfig,
    GanObjective,
    MlpSpec,
    StopRule,
    build_problem,
    compare_and_plot,
    default_mixture,
    init_params,
    load_config,
    param_count,
    run_experiment,
    sample_data,
    sample_latents,
)
from holderopt.cli import main
from holderopt.harness import (
    GENERATOR_WIDTHS,
    GaussianMixtureSpec,
    config_from_values,
    parse_config_text,
)

# ----------------------------------------------------------------- sampling


def test_default_mixture_geometry():
    mix = default_mixture()
    assert mix.means.shape == (8, 2)
    np.testing.assert_allclose(np.linalg.norm(mix.means, axis=1), 2.0)
    np.testing.assert_allclose(mix.covs, np.tile(0.02 * np.eye(2), (8, 1, 1)))
    np.testing.assert_allclose(mix.weights, np.full(8, 0.125))


def test_mixture_validation():
    means = np.zeros((2, 2))
    covs = np.tile(np.eye(2), (2, 1, 1))
    with pytest.raises(ValueError, match="covs"):
        GaussianMixtureSpec(means, np.eye(2), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="sum to 1"):
        GaussianMixtureSpec(means, covs, np.array([0.5, 0.6]))
    with pytest.raises(ValueError, match="positive"):
        GaussianMixtureSpec(means, covs, np.array([1.5, -0.5]))
    with pytest.raises(np.linalg.LinAlgError):
        GaussianMixtureSpec(means, -covs, np.array([0.5, 0.5]))


def test_sample_data_seeded_and_on_the_circle():
    mix = default_mixture()
    a = sample_data(mix, 256, seed=1)
    assert a.shape == (256, 2)
    np.testing.assert_array_equal(a, sample_data(mix, 256, seed=1))
    assert np.any(a != sample_data(mix, 256, seed=2))
    radii = np.linalg.norm(a, axis=1)
    assert abs(radii.mean() - 2.0) < 0.1
    # every component gets hit at this sample size
    nearest = np.argmin(np.linalg.norm(a[:, None, :] - mix.means[None], axis=2), axis=1)
    assert set(nearest) == set(range(8))


def test_sample_latents_unit_cube():
    z = sample_latents(100, seed=3)
    assert z.shape == (100, 2)
    assert np.all((z >= 0) & (z < 1))
    np.testing.assert_array_equal(z, sample_latents(100, seed=3))
    # latent and data streams are separate even under one seed
    assert np.any(z[:, 0] != sample_data(default_mixture(), 100, seed=3)[:, 0])


# ------------------------------------------------------------------ configs


def test_run_id_formats():
    assert ExperimentConfig().run_id() == "sqrt_backtrack_holder_seed0"
    cfg = ExperimentConfig(problem="quadratic_saddle:8", algorithm="constant", gamma=0.05, seed=7)
    assert cfg.run_id() == "quadratic_saddle-8_constant_g0.05_seed7"


def test_algorithm_shorthand_pins_gamma():
    cfg = ExperimentConfig(algorithm="constant:0.05")
    assert cfg.algorithm == "constant"
    assert cfg.gamma == 0.05


def test_algorithm_shorthand_only_on_constant():
    with pytest.raises(ValueError, match="only constant"):
        ExperimentConfig(algorithm="backtrack_holder:0.5")


def test_config_validation():
    with pytest.raises(ValueError, match="choices"):
        ExperimentConfig(algorithm="newton")
    with pytest.raises(ValueError, match="gamma"):
        ExperimentConfig(algorithm="constant")
    with pytest.raises(ValueError, match="delta_plus"):
        ExperimentConfig(algorithm="nonmonotone_holder", params=BacktrackParams())
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(seed=-1)
    with pytest.raises(ValueError, match="sample_size"):
        ExperimentConfig(sample_size=0)


def test_parse_config_text():
    text = """
    # a comment line
    problem = quadratic_minmin:3
    algorithm = nonmonotone_holder

    gamma = 0.5
    warm_start = false
    x0 = 1.0, -2.0, 0.25
    max_iters = 50
    """
    values = parse_config_text(text)
    assert values["problem"] == "quadratic_minmin:3"
    assert values["gamma"] == 0.5
    assert values["warm_start"] is False
    np.testing.assert_array_equal(values["x0"], [1.0, -2.0, 0.25])
    assert values["max_iters"] == 50


def test_parse_config_errors_name_the_line():
    with pytest.raises(ValueError, match="line 1.*valid keys.*alpha"):
        parse_config_text("stepsize = 0.1")
    with pytest.raises(ValueError, match="line 2.*key = value"):
        parse_config_text("gamma = 1\njust some words")
    with pytest.raises(ValueError, match="true or false"):
        parse_config_text("warm_start = maybe")


def test_config_from_values_threads_fields():
    cfg = config_from_values(
        {
            "algorithm": "nonmonotone_armijo",
            "problem": "quadratic_minmin:2",
            "gamma": 0.5,
            "alpha": 0.6,
            "grad_tol": 1e-5,
            "inner_steps": 7,
        }
    )
    assert cfg.algorithm == "nonmonotone_armijo"
    assert cfg.params.gamma == 0.5
    assert cfg.params.alpha == 0.6
    assert cfg.params.delta_plus == 0.95  # default survives partial overrides
    assert cfg.stop.grad_tol == 1e-5
    assert cfg.inner.steps == 7


def test_config_from_no_values_is_the_default_config():
    assert config_from_values({}) == ExperimentConfig()


def test_gan_config_without_a_bound_gets_the_comparison_budget():
    assert config_from_values({"problem": "sinkhorn_gan"}).stop.max_oracle_calls == 300
    bounded = config_from_values({"problem": "sinkhorn_gan", "max_iters": 5})
    assert bounded.stop.max_iters == 5
    assert bounded.stop.max_oracle_calls == StopRule().max_oracle_calls
    assert config_from_values({"problem": "sqrt"}).stop == StopRule()
    assert ExperimentConfig(problem="sinkhorn_gan").stop == StopRule()


def test_load_config_with_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("problem = sqrt\nalgorithm = backtrack_holder\nseed = 1\n")
    cfg = load_config(path, seed=9)
    assert cfg.seed == 9
    assert cfg.problem == "sqrt"


def test_replace_config_revalidates():
    cfg = ExperimentConfig()
    with pytest.raises(ValueError, match="choices"):
        dataclasses.replace(cfg, algorithm="nope")


# ----------------------------------------------------------- problem builds


def test_build_problem_defaults_and_override():
    problem, x0 = build_problem(ExperimentConfig(problem="sqrt"))
    assert problem.name == "sqrt"
    np.testing.assert_array_equal(x0, problem.x0_default)
    _, x0b = build_problem(ExperimentConfig(problem="sqrt", x0=[2.5]))
    np.testing.assert_array_equal(x0b, [2.5])
    with pytest.raises(KeyError):
        build_problem(ExperimentConfig(problem="bogus"))


@pytest.mark.parametrize("problem", ["quadratic_saddle:8", "sinkhorn_gan"])
def test_build_problem_rejects_wrong_length_start(problem):
    with pytest.raises(ValueError, match=r"must have shape \(\d+,\), got \(3,\)"):
        build_problem(ExperimentConfig(problem=problem, sample_size=4, x0=[1.0, 2.0, 3.0]))


def test_build_gan_problem_dims_and_default_epsilon():
    cfg = ExperimentConfig(problem="sinkhorn_gan", sample_size=16, sinkhorn_tol=1e-7)
    problem, theta0 = build_problem(cfg)
    spec = MlpSpec(GENERATOR_WIDTHS)
    assert problem.dim_x == param_count(spec)
    assert problem.dim_y == 16 * 16
    np.testing.assert_array_equal(theta0, init_params(spec, seed=0))

    # the unset epsilon resolves to 1% of the mean initial transport cost
    data = sample_data(default_mixture(), 16, seed=0)
    latents = sample_latents(16, seed=0)
    eps = 0.01 * float(GanObjective(spec, latents, data, epsilon=1.0).cost(theta0).mean())
    pinned, _ = build_problem(dataclasses.replace(cfg, epsilon=eps))
    np.testing.assert_array_equal(problem.best_response(theta0), pinned.best_response(theta0))


# ----------------------------------------------------------------- running


def test_run_experiment_writes_csv(tmp_path):
    cfg = ExperimentConfig(problem="sqrt", algorithm="backtrack_holder")
    traj = run_experiment(cfg, out_dir=tmp_path)
    assert traj.terminal_status == "converged"
    out = tmp_path / "sqrt_backtrack_holder_seed0.csv"
    assert out.exists()
    assert out.read_text().startswith("n,oracle_calls,L,grad_x_norm,step,k\n")


def test_run_experiment_csv_bytes_reproducible(tmp_path):
    cfg = ExperimentConfig(problem="quadratic_saddle:3", algorithm="backtrack_holder")
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b")
    name = cfg.run_id() + ".csv"
    assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_experiment_known_constants_uses_certificate():
    traj = run_experiment(ExperimentConfig(problem="sqrt", algorithm="holder_known"))
    assert traj.terminal_status == "converged"
    assert traj.f_values[-1] <= 1e-12
    with pytest.raises(ValueError, match="certificate"):
        run_experiment(ExperimentConfig(problem="sinkhorn_gan", algorithm="holder_known", sample_size=4))


@pytest.mark.parametrize(
    "problem,algorithm",
    [
        ("quadratic_minmin:2", "nonmonotone_holder"),
        ("quadratic_minmin:2", "nonmonotone_armijo"),
        ("quadratic_saddle:2", "heuristic_minmax"),
        ("quadratic_saddle:2", "constant:0.5"),
    ],
)
def test_run_experiment_dispatch(problem, algorithm):
    cfg = ExperimentConfig(problem=problem, algorithm=algorithm, stop=StopRule(max_iters=200))
    traj = run_experiment(cfg)
    assert len(traj.oracle_calls) == len(traj.f_values) == len(traj)
    assert traj.terminal_status in ("converged", "iter_budget")


def test_compare_and_plot_deterministic_svg(tmp_path):
    configs = [
        ExperimentConfig(problem="quadratic_saddle:2", algorithm="backtrack_holder"),
        ExperimentConfig(problem="quadratic_saddle:2", algorithm="constant", gamma=0.4),
    ]
    results = compare_and_plot(configs, tmp_path / "a.svg", out_dir=tmp_path / "runs")
    compare_and_plot(configs, tmp_path / "b.svg")
    assert [rid for rid, _ in results] == [c.run_id() for c in configs]
    svg = (tmp_path / "a.svg").read_text()
    assert svg.startswith("<svg") or "<svg" in svg
    assert svg.count("<polyline") >= 2
    for cfg in configs:
        assert cfg.run_id() in svg
        assert (tmp_path / "runs" / (cfg.run_id() + ".csv")).exists()
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
    with pytest.raises(ValueError, match="at least one"):
        compare_and_plot([], tmp_path / "c.svg")


def test_compare_and_plot_rejects_repeated_run_ids(tmp_path):
    configs = [
        ExperimentConfig(problem="sqrt", algorithm="constant:0.05"),
        ExperimentConfig(problem="sqrt", algorithm="constant", gamma=0.05),
    ]
    with pytest.raises(ValueError, match="distinct run ids"):
        compare_and_plot(configs, tmp_path / "c.svg")
    assert not (tmp_path / "c.svg").exists()


# --------------------------------------------------------------------- cli


def test_cli_single_run(tmp_path, capsys):
    code = main(["--problem", "sqrt", "--algo", "backtrack_holder", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "sqrt_backtrack_holder_seed0" in out
    assert "status=converged" in out
    assert (tmp_path / "sqrt_backtrack_holder_seed0.csv").exists()


def test_cli_comparison_writes_svg(tmp_path, capsys):
    code = main(
        [
            "--problem",
            "quadratic_saddle:2",
            "--algo",
            "backtrack_holder,constant:0.4",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "comparison.svg" in out
    assert (tmp_path / "comparison.svg").exists()


def test_cli_config_file_and_seed_override(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("problem = sqrt\nalgorithm = backtrack_holder\nseed = 1\n")
    code = main(["--config", str(path), "--seed", "5", "--out", str(tmp_path)])
    assert code == 0
    assert "seed5" in capsys.readouterr().out


def test_cli_gan_run_without_a_bound_stops_at_the_comparison_budget(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    # test 10's generator instance, with no max_iters or max_oracle_calls
    path.write_text(
        "problem = sinkhorn_gan\nalgorithm = nonmonotone_holder\n"
        "sample_size = 8\nepsilon = 0.5\nsinkhorn_tol = 1e-7\n"
    )
    assert main(["--config", str(path), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "status=oracle_budget" in out
    assert "oracle_calls=300 " in out


def test_cli_errors_exit_2(tmp_path, capsys):
    assert main(["--algo", "newton", "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["--config", str(tmp_path / "missing.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_step_shorthand_off_constant_exits_2(tmp_path, capsys):
    algos = "backtrack_holder:0.5,backtrack_holder:5"
    assert main(["--problem", "sqrt", "--algo", algos, "--out", str(tmp_path)]) == 2
    assert "only constant" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_wrong_length_start_exits_2(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("problem = quadratic_saddle:8\nx0 = 1,2,3\n")
    assert main(["--config", str(path), "--out", str(tmp_path / "runs")]) == 2
    assert "error: start point for problem quadratic_saddle:8 must have shape (8,)" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()
