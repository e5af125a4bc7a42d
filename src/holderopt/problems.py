"""Objectives, min-max problems, and Holder-smoothness certificates.

The drivers in :mod:`holderopt.descent` and :mod:`holderopt.minimax` only see
the small contracts defined here: a :class:`SmoothObjective` produces
``(value, gradient)`` pairs, a :class:`MinMaxProblem` exposes a coupling loss
with an inner oracle, and :class:`ValueFunctionView` turns the latter into the
former through the envelope identity ``grad g(x) = grad_x L(x, y*(x))``.
"""

from __future__ import annotations

import copyreg
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

Array = np.ndarray


class RunError(RuntimeError):
    """Base of the errors that end a run part-way: :class:`holderopt.descent.NumericError` and
    :class:`holderopt.sinkhorn.SinkhornError`. Each pickles as its args and fields and is rebuilt without
    ``__init__``, so that it crosses a process boundary as itself."""

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


def _require_count(field: str, value, low: int) -> None:
    """Raise ValueError naming ``field`` unless ``value`` is an integer ``>= low``; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{field} must be an integer >= {low}, got {value!r}")


def _require_positive(field: str, value) -> None:
    """Raise ValueError naming ``field`` unless ``value`` is a positive, finite real; NaN and bools are not.
    ``float`` is tested before the abstract ``Real``, which is slower, because every transport solve checks two."""
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)) or not 0 < value < math.inf:
        raise ValueError(f"{field} must be positive and finite, got {value}")


def _require_interval(field: str, value, low: float, high: float, interval: str, closed: bool = False) -> None:
    """Raise ValueError naming ``field`` unless ``value`` is a real in ``interval``, which is (low, high),
    or (low, high] when ``closed``; NaN and bools are not."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and (low < value < high or closed and value == high)):
        raise ValueError(f"{field} must lie in {interval}, got {value}")


def _start_point(x0, dim: int, name: str = "") -> Array:
    """``x0`` as a fresh float vector; raises ValueError naming ``name`` unless it has ``dim`` finite entries."""
    x = np.array(x0, dtype=float, ndmin=1)
    name = f" {name}" if name else ""
    if x.shape != (dim,):
        raise ValueError(f"start point for problem{name} must have shape ({dim},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"start point for problem{name} must be finite, got {x.tolist()}")
    return x


@dataclass(frozen=True)
class HolderCertificate:
    """Asserts ``|grad f(x) - grad f(y)| <= beta * |x - y|**nu`` for all x and y.

    A global bound, asserted by whoever builds the certificate; only the
    ranges of beta and nu are checked here.
    """

    beta: float
    nu: float

    def __post_init__(self):
        _require_positive("beta", self.beta)
        _require_interval("nu", self.nu, 0.0, 1.0, "(0, 1]", closed=True)


class SmoothObjective:
    """Differentiable objective evaluated jointly: one call gives (value, gradient).

    As on :class:`MinMaxProblem`, ``start_point`` checks a start once, ``value_and_grad`` evaluates a
    checked point, and ``eval`` is both. Evaluation is pure: the same point gives bit-identical
    results. One evaluation is one oracle call; the drivers count them in their ``oracle_calls``.
    """

    def __init__(self, dim: int, fn: Callable[[Array], tuple]):
        _require_count("dim", dim, 1)
        self.dim = int(dim)
        self._fn = fn

    def start_point(self, x0) -> Array:
        return _start_point(x0, self.dim)

    def value_and_grad(self, x) -> tuple[float, Array]:
        value, grad = self._fn(x)
        return float(value), np.asarray(grad, dtype=float)

    def eval(self, x) -> tuple[float, Array]:
        return self.value_and_grad(self.start_point(x))


@dataclass
class MinMaxProblem:
    """Coupling loss L(x, y) with an inner oracle over y.

    ``sense`` is "min-max" (inner argmax) or "min-min" (inner argmin). At most
    one of the oracles may be missing; ``best_response`` is exact,
    ``approx_response(x, y_warm, budget)`` is an inexact inner solve started
    from ``y_warm`` (cold when it is None) whose ``budget`` carries the step
    count and step size (see :class:`holderopt.minimax.InnerAscentBudget`).
    Every driver but :func:`holderopt.minimax.minmax_heuristic` needs
    ``best_response``. ``certificate``, when present, certifies the Holder
    smoothness of the value function's gradient.
    """

    dim_x: int
    dim_y: int
    loss: Callable[[Array, Array], float]
    grad_x: Callable[[Array, Array], Array]
    sense: str = "min-max"
    best_response: Optional[Callable[[Array], Array]] = None
    approx_response: Optional[Callable] = None
    certificate: Optional[HolderCertificate] = None
    x0_default: Optional[Array] = None
    name: str = ""

    def __post_init__(self):
        if self.sense not in ("min-max", "min-min"):
            raise ValueError(f"sense must be 'min-max' or 'min-min', got {self.sense!r}")
        if self.best_response is None and self.approx_response is None:
            raise ValueError("problem needs at least one inner oracle")

    def start_point(self, x0) -> Array:
        """``x0`` as a fresh float vector; raises ValueError unless it has ``dim_x`` finite entries."""
        return _start_point(x0, self.dim_x, self.name)

    def value_and_grad(self, x) -> tuple:
        """g(x) = L(x, y*(x)) and grad g(x) = grad_x L(x, y*(x)), as float64, from one best-response call."""
        y = self.best_response(x)
        return self.loss(x, y), np.asarray(self.grad_x(x, y), dtype=float)


# What each driver needs of its problem: a sense, None taking either, and an inner oracle. Each
# driver checks its problem against its own entry when it is called; a comparison checks every
# run's built problem, before its first run, against the entry that harness._RUNS names beside the
# run's algorithm.
_NEEDS = {
    "minmax_backtrack": ("min-max", "best_response"),
    "minmin_backtrack_nonmonotone": ("min-min", "best_response"),
    "minmin_armijo_nonmonotone": ("min-min", "best_response"),
    "minmax_heuristic": ("min-max", "approx_response"),
    "minmax_constant": (None, "best_response"),
    "value function view": (None, "best_response"),
}


def _require(problem, who: str) -> None:
    """Raise ValueError naming ``who`` unless the :class:`MinMaxProblem` ``problem`` has the sense and
    sets the oracle that ``_NEEDS[who]`` names."""
    sense, oracle = _NEEDS[who]
    if sense is not None and problem.sense != sense:
        raise ValueError(f"{who} expects a {sense} problem, got {problem.sense}")
    if getattr(problem, oracle) is None:
        raise ValueError(f"{who} needs the {oracle} oracle")


class ValueFunctionView(SmoothObjective):
    """g(x) = L(x, y*(x)) as a SmoothObjective, gradient via the envelope identity.

    Requires an exact ``best_response``. Its ``start_point`` and ``value_and_grad`` are the problem's
    own, which the exact-oracle drivers in :mod:`holderopt.minimax` use; one evaluation makes one
    best-response call.
    """

    def __init__(self, problem: MinMaxProblem):
        _require(problem, "value function view")
        self.dim = problem.dim_x
        self.start_point, self.value_and_grad = problem.start_point, problem.value_and_grad
        self.certificate = problem.certificate


def make_sqrt_problem() -> MinMaxProblem:
    """1-d saddle L(x, y) = x*y - y**3/3 over y >= 0.

    The inner argmax is sqrt(max(x, 0)); the value function is
    (2/3) * max(x, 0)**1.5 with gradient sqrt(max(x, 0)), which is globally
    (1, 1/2)-Holder. Extending by zero left of the origin keeps the certificate
    global and the value function C^1.
    """

    def loss(x, y):
        return float(x[0] * y[0] - y[0] ** 3 / 3.0)

    def grad_x(x, y):
        return np.array([y[0]])

    def best_response(x):
        return np.array([np.sqrt(max(x[0], 0.0))])

    def approx_response(x, y_warm, budget):
        # projected gradient ascent on y -> x*y - y^3/3 over y >= 0
        y = 0.0 if y_warm is None else float(np.atleast_1d(y_warm)[0])
        for _ in range(budget.steps):
            y = max(0.0, y + budget.step_size * (x[0] - y * y))
        return np.array([y])

    return MinMaxProblem(
        dim_x=1,
        dim_y=1,
        loss=loss,
        grad_x=grad_x,
        sense="min-max",
        best_response=best_response,
        approx_response=approx_response,
        certificate=HolderCertificate(beta=1.0, nu=0.5),
        x0_default=np.array([1.0]),
        name="sqrt",
    )


def make_quadratic_saddle(dim: int) -> MinMaxProblem:
    """L(x, y) = <x, y> - |y|^2/2; inner argmax y = x, value function |x|^2/2.

    The inexact inner ascent ``y <- y + s * (x - y)``, run ``steps`` times from ``y_warm``
    (zero when cold), is returned in closed form, ``x + (1 - s)**steps * (y_warm - x)``, so its
    cost does not grow with ``steps``. Above a step size of 2 the ascent diverges, and once
    ``(1 - s)**steps`` overflows the response is non-finite.
    """
    _require_count("dim", dim, 1)

    def loss(x, y):
        return float(x.dot(y)) - 0.5 * float(y.dot(y))

    def grad_x(x, y):
        return np.array(y, dtype=float)

    def best_response(x):
        return np.array(x, dtype=float)

    def approx_response(x, y_warm, budget):
        # a numpy power, so a diverging budget (step size above 2) overflows to inf, not OverflowError
        factor = np.float64(1.0 - budget.step_size) ** budget.steps
        return x + factor * ((0.0 if y_warm is None else y_warm) - x)

    return MinMaxProblem(
        dim_x=dim,
        dim_y=dim,
        loss=loss,
        grad_x=grad_x,
        sense="min-max",
        best_response=best_response,
        approx_response=approx_response,
        certificate=HolderCertificate(beta=1.0, nu=1.0),
        x0_default=np.ones(dim),
        name=f"quadratic_saddle:{dim}",
    )


def make_quadratic_minmin(dim: int) -> MinMaxProblem:
    """L(x, y) = |x - y|^2/2 + |y|^2/2; inner argmin y = x/2, value function |x|^2/4."""
    _require_count("dim", dim, 1)

    def loss(x, y):
        d = x - y
        return 0.5 * float(d.dot(d)) + 0.5 * float(y.dot(y))

    def grad_x(x, y):
        return x - y

    def best_response(x):
        return 0.5 * np.asarray(x, dtype=float)

    return MinMaxProblem(
        dim_x=dim,
        dim_y=dim,
        loss=loss,
        grad_x=grad_x,
        sense="min-min",
        best_response=best_response,
        certificate=HolderCertificate(beta=0.5, nu=1.0),
        x0_default=2.0 * np.ones(dim),
        name=f"quadratic_minmin:{dim}",
    )


def _parse_problem_id(problem_id) -> Callable[[], MinMaxProblem]:
    """The maker of the analytic problem an id names, its dimension bound; builds nothing. Ids: ``sqrt``,
    ``quadratic_saddle:D`` and ``quadratic_minmin:D``, D a positive decimal integer with no sign, space or
    leading zero, so one id names one problem. Any other id, a non-str one included, raises KeyError."""
    if isinstance(problem_id, str):
        if problem_id == "sqrt":
            return make_sqrt_problem
        head, _, tail = problem_id.partition(":")
        if head in ("quadratic_saddle", "quadratic_minmin") and tail:
            if not tail.isdecimal() or str(int(tail)) != tail or tail == "0":
                raise KeyError(f"bad dimension in problem id {problem_id!r}")
            maker = make_quadratic_saddle if head == "quadratic_saddle" else make_quadratic_minmin
            return lambda: maker(int(tail))
    raise KeyError(
        f"unknown problem id {problem_id!r}; expected 'sqrt', 'quadratic_saddle:D', "
        "'quadratic_minmin:D' (the sinkhorn_gan problem is built by the harness)"
    )


def get_problem(problem_id: str) -> MinMaxProblem:
    """Build the analytic problem an id names; the harness builds ``sinkhorn_gan``, which needs data and a seed."""
    return _parse_problem_id(problem_id)()


def finite_diff_gradient(f, x, h: float = 1e-6) -> Array:
    """Central finite-difference gradient of ``f`` at ``x``.

    ``f`` may be a SmoothObjective (its value is used) or any callable
    returning a scalar. The same absolute step ``h`` is used per coordinate.
    """
    if isinstance(f, SmoothObjective):
        fn = lambda p: f.eval(p)[0]
    else:
        fn = f
    x = np.atleast_1d(np.asarray(x, dtype=float))
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g
