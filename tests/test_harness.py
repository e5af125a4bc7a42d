"""Experiment configs, seeded sampling, driver dispatch, file outputs, CLI."""

import dataclasses
import hashlib
import math
import re
import warnings

import numpy as np
import pytest

from holderopt import (
    ExperimentConfig,
    GanObjective,
    MlpSpec,
    StopRule,
    build_problem,
    compare_and_plot,
    get_problem,
    init_params,
    load_config,
    param_count,
    run_experiment,
    sample_data,
    sample_latents,
)
from holderopt import gan as gan_module
from holderopt import harness
from holderopt import problems as problems_module
from holderopt.cli import main
from holderopt.descent import CSV_HEADER
from holderopt.harness import (
    ALGORITHMS,
    GENERATOR_WIDTHS,
    config_from_values,
    parse_config_text,
)
from holderopt.minimax import MINMAX_CSV_HEADER
from holderopt.rng import RandomStream

# ----------------------------------------------------------------- sampling


def test_sample_data_seeded_and_on_the_circle():
    """8 modes equally spaced on the circle of radius 2, each with variance 0.02."""
    a = sample_data(4096, seed=1)
    assert a.shape == (4096, 2)
    np.testing.assert_array_equal(a, sample_data(4096, seed=1))
    assert np.any(a != sample_data(4096, seed=2))
    radii = np.linalg.norm(a, axis=1)
    assert abs(radii.mean() - 2.0) < 0.1
    angles = 2.0 * np.pi * np.arange(8) / 8
    modes = 2.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    nearest = np.argmin(np.linalg.norm(a[:, None, :] - modes[None], axis=2), axis=1)
    # every mode gets hit at this sample size, with the spread of variance 0.02
    assert set(nearest) == set(range(8))
    for j in range(8):
        spread = a[nearest == j] - modes[j]
        np.testing.assert_allclose(spread.var(axis=0), 0.02, rtol=0.25)


def test_sample_data_bytes_are_pinned():
    digest = hashlib.sha256(sample_data(64, seed=0).tobytes()).hexdigest()
    assert digest == "1033fe4d388766735c37b095d45dcccf6782c66e575775b2099c60999f5fc0b9"


def test_sample_latents_unit_cube():
    z = sample_latents(100, seed=3)
    assert z.shape == (100, 2)
    assert np.all((z >= 0) & (z < 1))
    np.testing.assert_array_equal(z, sample_latents(100, seed=3))
    # latent and data streams are separate even under one seed
    assert np.any(z[:, 0] != sample_data(100, seed=3)[:, 0])


# ------------------------------------------------------------------ configs


def test_run_id_formats():
    assert ExperimentConfig().run_id() == "sqrt_backtrack_holder_seed0"
    cfg = ExperimentConfig(problem="quadratic_saddle:8", algorithm="constant", gamma=0.05, seed=7)
    assert cfg.run_id() == "quadratic_saddle-8_constant_g0.05_seed7"


@pytest.mark.parametrize(
    "step, name",
    [
        ("0.01", "g0.01"),
        ("0.05", "g0.05"),
        ("0.1", "g0.1"),
        ("0.2", "g0.2"),
        ("0.4", "g0.4"),
        ("1e-5", "g1e-05"),
        ("0.050000001", "g0.050000001"),
        ("0.1234567", "g0.1234567"),
    ],
)
def test_run_id_names_the_fixed_step_it_runs(step, name):
    """Six significant digits name the step where they give it back, as for
    every step the docs and demos use; a longer step is named by its shortest
    round-trip form, so two different steps never share a run id."""
    run_id = ExperimentConfig(algorithm="constant:" + step).run_id()
    assert run_id == f"sqrt_constant_{name}_seed0"
    assert float(run_id.split("_g")[1].removesuffix("_seed0")) == float(step)


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
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(seed=-1)
    with pytest.raises(ValueError, match="sample_size"):
        ExperimentConfig(sample_size=0)
    with pytest.raises(ValueError, match=r"^constant takes a number as constant:<step>, got 'constant:abc'$"):
        ExperimentConfig(algorithm="constant:abc")


@pytest.mark.parametrize(
    "problem",
    ["bogus", "quadratic_saddle:8_0", "quadratic_minmin:08", "quadratic_saddle:"]
    + ["quadratic_saddle:0", "quadratic_minmin:0"]
    + [None, 3, pytest.param(b"sqrt", id="bytes")],
)
def test_problem_id_is_refused_at_construction(problem):
    """With the problem registry's own error, before any run; no run id names a problem it did not build.
    A non-str id is an unknown one."""
    with pytest.raises(KeyError) as refused:
        ExperimentConfig(problem=problem)
    with pytest.raises(KeyError) as registry:
        get_problem(problem)
    assert refused.value.args == registry.value.args


@pytest.mark.parametrize("algorithm", [None, 3])
def test_non_str_algorithm_is_an_unknown_one(algorithm):
    with pytest.raises(ValueError, match=f"^unknown algorithm {algorithm!r}; choices: "):
        ExperimentConfig(algorithm=algorithm)


@pytest.mark.parametrize("field", ["epsilon", "sinkhorn_tol"])
@pytest.mark.parametrize("value", [math.inf, math.nan, -1.0, 0.0])
def test_transport_fields_are_refused_at_construction(field, value):
    """Refused by name whatever the problem, before any run builds the generator."""
    with pytest.raises(ValueError, match=f"^{field} must be positive and finite, got {value}$"):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize("algorithm", ["holder_known", "constant"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0, True, "0.1"])
def test_gamma_is_refused_at_construction(algorithm, value):
    """A set gamma is refused by name before any run; holder_known's range, which
    needs the problem's certificate, is still checked when the run starts."""
    with pytest.raises(ValueError, match=f"^gamma must be positive and finite, got {value}$"):
        ExperimentConfig(algorithm=algorithm, gamma=value)


@pytest.mark.parametrize("seed", [1.5, 2.0, True, np.float64(3.0), np.bool_(False)])
def test_seed_must_be_an_integer(seed):
    with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
        ExperimentConfig(problem="sinkhorn_gan", seed=seed)


def test_numpy_integer_seed_is_accepted():
    cfg = ExperimentConfig(problem="sinkhorn_gan", seed=np.uint64(3))
    assert cfg.run_id() == "sinkhorn_gan_backtrack_holder_seed3"


@pytest.mark.parametrize("size", [2.5, 4.0, True, np.float64(4.0)])
def test_sample_size_must_be_an_integer(size):
    """A float or a bool would fail late, inside the sampling, or sample its int()."""
    with pytest.raises(ValueError, match="sample_size"):
        ExperimentConfig(problem="sinkhorn_gan", algorithm="constant:0.01", sample_size=size)


def test_numpy_integer_sample_size_is_accepted():
    cfg = ExperimentConfig(problem="sinkhorn_gan", sample_size=np.int64(4))
    assert build_problem(cfg)[0].dim_y == 16


@pytest.mark.parametrize("seed", [1.5, 1.0, True, np.float64(1.0), np.bool_(True)])
def test_random_streams_take_integer_seeds_only(seed):
    """The streams would otherwise key on int(seed): 1.5 and True drew seed 1's numbers."""
    with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
        sample_data(4, seed)
    with pytest.raises(ValueError, match="seed must be an unsigned 64-bit integer"):
        init_params(MlpSpec((2, 3, 2)), seed)
    with pytest.raises(ValueError, match="stream id must be an unsigned 64-bit integer"):
        RandomStream(0, seed)


def test_random_streams_accept_numpy_integers():
    np.testing.assert_array_equal(sample_data(4, np.uint64(1)), sample_data(4, 1))
    np.testing.assert_array_equal(RandomStream(np.int64(2), np.uint8(1)).words(3), RandomStream(2, 1).words(3))


def test_parse_config_text():
    text = """
    # a comment line
    problem = quadratic_minmin:3
    algorithm = nonmonotone_holder

    gamma = 0.5
    inner_step_size = 0.25
    x0 = 1.0, -2.0, 0.25
    max_iters = 50
    """
    values = parse_config_text(text)
    assert values["problem"] == "quadratic_minmin:3"
    assert values["gamma"] == 0.5
    assert values["inner_step_size"] == 0.25
    np.testing.assert_array_equal(values["x0"], [1.0, -2.0, 0.25])
    assert values["max_iters"] == 50


def test_parse_config_errors_name_the_line():
    with pytest.raises(ValueError, match="line 1.*valid keys.*alpha"):
        parse_config_text("stepsize = 0.1")
    with pytest.raises(ValueError, match="line 2.*key = value"):
        parse_config_text("gamma = 1\njust some words")
    # every inner solve starts warm; the key that switched that off is gone
    with pytest.raises(ValueError, match="line 2: unknown key 'warm_start'; valid keys"):
        parse_config_text("inner_steps = 5\nwarm_start = false")
    # a value that fails to convert names its line and key too
    with pytest.raises(ValueError, match="line 1: seed: invalid literal for int"):
        parse_config_text("seed = abc")
    with pytest.raises(ValueError, match="line 3: x0: could not convert string to float: ''"):
        parse_config_text("# start\ngamma = 1\nx0 = 1.0,,2.0")
    with pytest.raises(ValueError, match="line 1: gamma: could not convert string to float: '0.1 # step'"):
        parse_config_text("gamma = 0.1 # step")
    # a repeated key is refused, not taken as an override of the first
    with pytest.raises(ValueError, match=r"^line 3: key 'seed' repeats line 2$"):
        parse_config_text("problem = sqrt\nseed = 1\nseed = 2")


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


def counted_build(calls):
    """harness.build_problem, recording each build and each oracle call of the problem it returns in ``calls``."""
    build = harness.build_problem

    def build_problem(config):
        calls.append("build")
        problem, x0 = build(config)
        for name in ("best_response", "approx_response", "loss", "grad_x"):
            fn = getattr(problem, name)
            if fn is not None:
                setattr(problem, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
        return problem, x0

    return build_problem


@pytest.mark.parametrize("problem", ["quadratic_saddle:8", "sinkhorn_gan"])
def test_run_experiment_rejects_wrong_length_start(problem, tmp_path, monkeypatch):
    """build_problem returns the start as configured; the driver refuses it before any oracle call or CSV."""
    calls = []
    monkeypatch.setattr(harness, "build_problem", counted_build(calls))
    config = ExperimentConfig(problem=problem, algorithm="constant:0.1", sample_size=4, x0=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=r"must have shape \(\d+,\), got \(3,\)"):
        run_experiment(config, out_dir=tmp_path / "runs")
    assert calls == ["build"]
    assert not (tmp_path / "runs").exists()


def test_non_numeric_start_is_refused_when_the_run_starts(tmp_path, monkeypatch):
    """ExperimentConfig keeps x0 as given, and the driver's start check refuses it, before any oracle call or CSV."""
    x0 = ["a"]
    config = ExperimentConfig(problem="sqrt", x0=x0)
    assert config.x0 is x0
    calls = []
    monkeypatch.setattr(harness, "build_problem", counted_build(calls))
    with pytest.raises(ValueError, match="could not convert string to float"):
        run_experiment(config, out_dir=tmp_path / "runs")
    assert calls == ["build"]
    assert not (tmp_path / "runs").exists()


def test_build_gan_problem_dims_and_default_epsilon():
    cfg = ExperimentConfig(problem="sinkhorn_gan", sample_size=16, sinkhorn_tol=1e-7)
    problem, theta0 = build_problem(cfg)
    spec = MlpSpec(GENERATOR_WIDTHS)
    assert problem.dim_x == param_count(spec)
    assert problem.dim_y == 16 * 16
    np.testing.assert_array_equal(theta0, init_params(spec, seed=0))

    # the unset epsilon resolves to 1% of the mean initial transport cost
    data = sample_data(16, seed=0)
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


# (problem, algorithm, the driver's name on harness) for every algorithm, in ALGORITHMS order
DISPATCH = [
    ("quadratic_saddle:2", "holder_known", "holder_gd"),
    ("quadratic_saddle:2", "backtrack_holder", "minmax_backtrack"),
    ("quadratic_minmin:2", "nonmonotone_holder", "minmin_backtrack_nonmonotone"),
    ("quadratic_minmin:2", "nonmonotone_armijo", "minmin_armijo_nonmonotone"),
    ("quadratic_saddle:2", "heuristic_minmax", "minmax_heuristic"),
    ("quadratic_saddle:2", "constant:0.5", "minmax_constant"),
]


@pytest.mark.parametrize("problem,algorithm", [(problem, algorithm) for problem, algorithm, _ in DISPATCH])
def test_run_experiment_dispatch(problem, algorithm, tmp_path):
    cfg = ExperimentConfig(problem=problem, algorithm=algorithm, stop=StopRule(max_iters=200))
    traj = run_experiment(cfg, out_dir=tmp_path)
    assert len(traj.oracle_calls) == len(traj.f_values) == len(traj)
    assert traj.terminal_status in ("converged", "iter_budget")
    header = CSV_HEADER if algorithm == "holder_known" else MINMAX_CSV_HEADER
    assert (tmp_path / f"{cfg.run_id()}.csv").read_text().split("\n", 1)[0] == header


def test_run_experiment_calls_each_driver_by_its_name_on_harness(monkeypatch):
    """A driver replaced on ``harness``, as the benchmark's tracer replaces it, is the one that runs."""
    assert [algorithm.partition(":")[0] for _, algorithm, _ in DISPATCH] == list(ALGORITHMS)
    for _, _, driver in DISPATCH:
        monkeypatch.setattr(harness, driver, lambda *args, driver=driver, **kwargs: driver)
    for problem, algorithm, driver in DISPATCH:
        assert run_experiment(ExperimentConfig(problem=problem, algorithm=algorithm)) == driver


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


def test_legend_labels_are_escaped_as_by_saxutils():
    from xml.sax.saxutils import escape

    from holderopt.plotting import render_comparison

    labels = ["a<b>&c", "&amp; &lt;", "plain"]
    svg = render_comparison([(label, [0.0, 1.0], [1.0, 2.0]) for label in labels])
    for label in labels:
        assert f'font-size="11">{escape(label)}</text>' in svg


BIG = float(np.finfo(float).max)


@pytest.mark.parametrize(
    "x, y",
    [
        ([1, 2], [-1.0 - 2**-52, -1.0]),
        ([1, 2], [-1e308, 1e308]),
        ([-BIG, BIG], [BIG, -BIG]),
        ([1e17], [-1e308]),
        ([1, 2], [0.0, 5e-324]),
        ([1, 2, 3], [5e-324, 1.0, BIG]),
    ],
    ids=["ulp-wide", "span-overflows", "largest-floats", "equal-above-2^53", "subnormal-span", "log-extremes"],
)
def test_render_comparison_returns_for_any_finite_curves(x, y):
    """Finite curves at the edges of float arithmetic render with finite
    coordinates: a tick step under half an ulp of the ticks, spans whose
    difference or its product with the plot width overflows, equal ends where
    adding one unit is lost to rounding, a span of one subnormal, and decades
    beyond the float range (the one case whose every y is positive, so the
    one on a log scale)."""
    from holderopt.plotting import render_comparison

    svg = render_comparison([("a", x, y)])
    assert svg.count("<polyline") == 1
    assert "nan" not in svg and "inf" not in svg


@pytest.mark.parametrize(
    "stop, digest",
    [
        (StopRule(max_iters=5), "b5967c6ea9f2e9de4009b57e4756ff3e4b90e1e4a24a2b6d426a5653a3fac49a"),
        (StopRule(), "a7d6662e5d79b7e6eae8d36f34b8891f6a75f3d2976abc9a287feb58b931cf95"),
    ],
    ids=["positive-log-scale", "reaches-zero-linear-scale"],
)
def test_comparison_svg_bytes_are_pinned(tmp_path, stop, digest):
    """The SVG of two fixed steps on sqrt, byte for byte: stopped after five
    iterations every objective is positive and the y axis is a log scale; run
    to convergence both reach -0.0 and it is linear."""
    configs = [ExperimentConfig(problem="sqrt", algorithm=a, stop=stop) for a in ("constant:0.05", "constant:0.2")]
    results = compare_and_plot(configs, tmp_path / "c.svg")
    f_min = min(traj.f_values.min() for _, traj in results)
    assert (f_min > 0) == (stop.max_iters == 5)
    assert hashlib.sha256((tmp_path / "c.svg").read_bytes()).hexdigest() == digest


def test_compare_and_plot_rejects_repeated_run_ids(tmp_path):
    configs = [
        ExperimentConfig(problem="sqrt", algorithm="constant:0.05"),
        ExperimentConfig(problem="sqrt", algorithm="constant", gamma=0.05),
    ]
    with pytest.raises(ValueError, match="distinct run ids"):
        compare_and_plot(configs, tmp_path / "c.svg")
    assert not (tmp_path / "c.svg").exists()


@pytest.mark.parametrize("problem", ["sqrt", "quadratic_saddle:3", "quadratic_minmin:3", "sinkhorn_gan"])
def test_problem_traits_describe_the_built_problem(problem):
    built, _ = build_problem(ExperimentConfig(problem=problem, sample_size=4))
    traits = harness._GAN_TRAITS if problem == "sinkhorn_gan" else problems_module._parse_problem_id(problem)[1]
    set_or_none = lambda oracle: None if oracle is None else True
    assert traits == (
        built.sense,
        set_or_none(built.best_response),
        set_or_none(built.approx_response),
        built.certificate,
    )


@pytest.mark.parametrize("algorithm", ["constant:0.1" if a == "constant" else a for a in ALGORITHMS])
@pytest.mark.parametrize("problem", ["sqrt", "quadratic_saddle:2", "quadratic_minmin:2", "sinkhorn_gan"])
def test_comparison_refuses_before_any_run_what_a_driver_refuses(problem, algorithm, tmp_path):
    """compare_and_plot refuses a config exactly when the run's own driver refuses its problem, with
    the driver's message, and before it runs or writes anything, a fixed step that every problem takes
    included."""
    cfg, first = (
        ExperimentConfig(problem=problem, algorithm=a, sample_size=4, stop=StopRule(max_oracle_calls=1))
        for a in (algorithm, "constant:0.2")
    )
    try:
        run_experiment(cfg)
        refusal = None
    except ValueError as exc:
        refusal = str(exc)
    out_dir = tmp_path / "runs"
    try:
        compare_and_plot([first, cfg], tmp_path / "c.svg", out_dir=out_dir)
        assert refusal is None
    except ValueError as exc:
        assert str(exc) == refusal
        assert not out_dir.exists()


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


def test_cli_comparison_is_refused_before_its_first_run(tmp_path, capsys):
    """The second driver needs a min-max problem: the first run never starts, so nothing is written."""
    out = tmp_path / "runs"
    argv = ["--problem", "quadratic_minmin:2", "--algo", "nonmonotone_holder,backtrack_holder", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: minmax_backtrack expects a min-max problem, got min-min\n"
    assert not out.exists()


def test_cli_gan_comparison_without_a_certificate_makes_no_solve(tmp_path, capsys, monkeypatch):
    """holder_known needs a certificate that the generator problem lacks: refused before any transport solve."""
    solves = []
    solve = gan_module.sinkhorn_solve
    monkeypatch.setattr(gan_module, "sinkhorn_solve", lambda *args, **kwargs: solves.append(1) or solve(*args, **kwargs))
    path = tmp_path / "exp.cfg"
    path.write_text("problem = sinkhorn_gan\nsample_size = 4\nmax_oracle_calls = 5\n")
    out = tmp_path / "runs"
    assert main(["--config", str(path), "--algo", "nonmonotone_holder,holder_known", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: holder_gd needs a smoothness certificate, got None\n"
    assert solves == []
    assert not out.exists()


def test_cli_errors_exit_2(tmp_path, capsys):
    assert main(["--algo", "newton", "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["--config", str(tmp_path / "missing.cfg")]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_unknown_problem_message_is_not_quoted(tmp_path, capsys):
    assert main(["--problem", "foo", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: unknown problem id 'foo'; expected 'sqrt'")


def test_cli_malformed_problem_id_exits_2_and_writes_nothing(tmp_path, capsys):
    assert main(["--problem", "quadratic_saddle:8_0", "--out", str(tmp_path / "bad")]) == 2
    assert capsys.readouterr().err == "error: bad dimension in problem id 'quadratic_saddle:8_0'\n"
    assert not (tmp_path / "bad").exists()


def test_cli_divergent_inner_budget_exits_2(tmp_path, capsys):
    """An inner step size above 2 overflows the inner response: a reported error, not a traceback or a warning."""
    path = tmp_path / "exp.cfg"
    path.write_text(
        "problem = quadratic_saddle:8\nalgorithm = heuristic_minmax\ninner_steps = 2000\ninner_step_size = 3.0\n"
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", str(path), "--out", str(tmp_path / "runs")]) == 2
    assert caught == []
    assert capsys.readouterr().err.startswith("error: oracle returned a non-finite value")


# a fixed step that diverges on an analytic problem, and a generator step so large that its
# forward pass overflows: each exits 2 with one error line that names the iteration
DIVERGING_CONFIGS = {
    "fixed_step": "problem = quadratic_minmin:1\nalgorithm = constant:10\n",
    "generator": "problem = sinkhorn_gan\nalgorithm = constant\ngamma = 1e300\nsample_size = 4\n"
    "max_oracle_calls = 10\n",
}


@pytest.mark.parametrize("text", DIVERGING_CONFIGS.values(), ids=DIVERGING_CONFIGS.keys())
def test_cli_diverging_run_prints_only_its_error_line(tmp_path, capsys, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", str(path), "--out", str(tmp_path / "runs")]) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: oracle returned a non-finite value, .* \(iteration \d+\)\n", err)


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


def test_cli_infinite_epsilon_exits_2(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("problem = sinkhorn_gan\nalgorithm = nonmonotone_holder\nepsilon = inf\n")
    assert main(["--config", str(path), "--out", str(tmp_path / "runs")]) == 2
    assert "error: epsilon must be positive and finite, got inf" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("x0", ["nan,1", "1,-inf"])
def test_cli_non_finite_start_exits_2_before_any_oracle_call(tmp_path, capsys, monkeypatch, x0):
    """The start point is refused by name; the oracle is never asked, so it is not blamed."""
    calls = []

    def counted_problem(problem_id):
        problem = get_problem(problem_id)
        for name in ("best_response", "approx_response", "loss", "grad_x"):
            fn = getattr(problem, name)
            setattr(problem, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
        return problem

    monkeypatch.setattr(problems_module, "get_problem", counted_problem)
    path = tmp_path / "exp.cfg"
    path.write_text(f"problem = quadratic_saddle:2\nx0 = {x0}\n")
    assert main(["--config", str(path), "--out", str(tmp_path / "runs")]) == 2
    assert "error: start point for problem quadratic_saddle:2 must be finite" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("algo, runs", [("backtrack_holder,constant:0.4", 2), ("holder_known", 1)])
def test_cli_builds_and_checks_each_run_once(tmp_path, capsys, monkeypatch, algo, runs):
    """ExperimentConfig parses the problem id without building it, and build_problem leaves the start
    to the driver: one problem build and one start check per run."""
    counts = {}
    for name in ("get_problem", "_start_point"):
        fn = getattr(problems_module, name)
        counted = lambda *args, fn=fn, name=name: counts.update({name: counts.get(name, 0) + 1}) or fn(*args)
        monkeypatch.setattr(problems_module, name, counted)
    assert main(["--problem", "quadratic_saddle:8", "--algo", algo, "--out", str(tmp_path)]) == 0
    assert counts == {"get_problem": runs, "_start_point": runs}
