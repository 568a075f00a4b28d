"""Property suites behind the ``check`` CLI verb.

Each suite sweeps seeded random instances through the module invariants and
reports the worst observed value against the documented tolerance. The
manifold suite draws each dimension's instances as one n-by-instances bundle
of unit columns and evaluates each property with one kernel call over all of
them. The suites call the kernels through their modules, so fault injection
(e.g. monkeypatching ``manifold.geodesic_columns``) is visible to them.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import gradcheck, manifold, regularizer
from .data import gen_blobs, normalize
from .errors import PreconditionError
from .nn import Trainer, build_mlp

__all__ = ["CheckResult", "run_manifold_suite", "run_regularizer_suite",
           "run_gradcheck_suite", "run_all", "format_report"]

MANIFOLD_DIMS = (2, 3, 16, 257)


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    worst: float
    tolerance: float
    count: int

    def line(self) -> str:
        status = "ok " if self.passed else "FAIL"
        return (
            f"  [{status}] {self.suite}.{self.name}: worst {self.worst:.3e} "
            f"(tol {self.tolerance:.0e}, {self.count} instances)"
        )


MANIFOLD_TOLERANCES = {
    "tangency": 1e-12,
    "unit_norm_closure": 1e-12,
    "periodicity": 1e-9,
    "translation_isometry": 1e-12,
    "transported_tangency": 1e-9,
    "geodesic_consistency": 1e-9,
    "self_translation_identity": 1e-12,
}


def _unit_columns(n, p, rng):
    y = rng.standard_normal((n, p))
    return y / np.linalg.norm(y, axis=0)


def _col_norm(a):
    return np.linalg.norm(a, axis=0)


def _random_tangents(y, rng, norms=None):
    """Projected Gaussians at the columns of ``y``, rescaled to ``norms`` if given."""
    h = manifold.project_columns(y, rng.standard_normal(y.shape))
    if norms is None:
        return h
    nh = _col_norm(h)
    return h * np.divide(norms, nh, out=np.zeros_like(nh), where=nh >= 1e-12)


def run_manifold_suite(seed=0, instances=1000, dims=MANIFOLD_DIMS) -> list[CheckResult]:
    """Tangency, unit-norm closure, periodicity, isometry, transported tangency,
    geodesic consistency, and the self-translation identity, over random sweeps.

    For each dimension n the instances are the columns of one (n, instances)
    bundle, so each kernel call evaluates a property on all of them at once.
    """
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(MANIFOLD_TOLERANCES, 0.0)
    for n in dims:
        y = _unit_columns(n, instances, rng)
        g = rng.standard_normal((n, instances)) * 10.0 ** rng.uniform(-2, 2, instances)
        h = manifold.project_columns(y, g)
        h1 = _random_tangents(y, rng, rng.uniform(0.01, math.pi, instances))
        delta = _random_tangents(y, rng)
        h_small = _random_tangents(y, rng, rng.uniform(0.0, math.pi / 2 * 0.999, instances))

        y1, moved = manifold.geodesic_columns(y, h1, delta)
        y_wrapped, _ = manifold.geodesic_columns(y, (1.0 + 2.0 * math.pi / _col_norm(h1)) * h1)
        angle = manifold.angle_columns(y, manifold.geodesic_columns(y, h_small)[0])
        _, self_t = manifold.geodesic_columns(y, h1)
        _, general = manifold.geodesic_columns(y, h1, h1)

        observed = {
            "tangency": np.abs(np.einsum("ij,ij->j", y, h)) / (1.0 + _col_norm(g)),
            "unit_norm_closure": np.abs(_col_norm(y1) - 1.0),
            "periodicity": np.abs(y1 - y_wrapped),
            "translation_isometry":
                np.abs(_col_norm(moved) - _col_norm(delta)) / (1.0 + _col_norm(delta)),
            "transported_tangency":
                np.abs(np.einsum("ij,ij->j", y1, moved)) / (1.0 + _col_norm(moved)),
            "geodesic_consistency": np.abs(angle - _col_norm(h_small)),
            "self_translation_identity": np.abs(self_t - general),
        }
        for name, values in observed.items():
            worst[name] = max(worst[name], float(np.max(values)))

    total = len(dims) * instances
    return [
        CheckResult("manifold", name, worst[name] < tol, worst[name], tol, total)
        for name, tol in MANIFOLD_TOLERANCES.items()
    ]


def run_regularizer_suite(seed=0, fd_instances=20, minimum_instances=100,
                          descent_instances=150) -> list[CheckResult]:
    """Gradient exactness, the shared-minimum property, and the descent direction."""
    rng = np.random.default_rng(seed)
    results = []

    worst = 0.0
    for _ in range(fd_instances):
        n = int(rng.choice([4, 8]))
        p = int(rng.integers(2, n))  # p = 1 has an exactly-zero gradient, nothing to compare
        y = _unit_columns(n, p, rng)
        analytic = regularizer.ortho_grad(y, 0.1).ravel()

        def loss_flat(flat, shape=(n, p), alpha=0.1):
            y = flat.reshape(shape)
            gram = y.T @ y
            off = gram - np.eye(shape[1])
            return 0.5 * alpha * float(np.sum(off * off))

        numeric = gradcheck.fd_gradient(loss_flat, y.ravel(), eps=1e-6)
        # Vector-relative: per-coordinate ratios blow up on near-zero entries.
        scale = max(float(np.max(np.abs(analytic))), float(np.max(np.abs(numeric))), 1e-8)
        worst = max(worst, float(np.max(np.abs(analytic - numeric))) / scale)
    results.append(CheckResult("regularizer", "ortho_grad_fd", worst < 1e-6, worst, 1e-6, fd_instances))

    worst_gap = -np.inf
    count = 0
    for sigma in (1e-2, 1e-3, 1e-4):
        for _ in range(minimum_instances):
            count += 1
            n = int(rng.choice([4, 8, 16]))
            p = int(rng.integers(1, n))
            y = _unit_columns(n, p, rng)
            q = np.linalg.qr(y)[0][:, :p]
            lc_y = regularizer.complexity_loss(y, 0.1, sigma)
            lc_q = regularizer.complexity_loss(q, 0.1, sigma)
            worst_gap = max(worst_gap, lc_q - lc_y)
    results.append(
        CheckResult("regularizer", "orthonormal_minimum", worst_gap <= 0.0, worst_gap, 0.0, count)
    )

    worst_ip = np.inf
    for _ in range(descent_instances):
        n = int(rng.choice([4, 8, 32]))
        p = int(rng.integers(1, n))
        y = _unit_columns(n, p, rng)
        if np.linalg.matrix_rank(y) < p:
            continue
        worst_ip = min(worst_ip, regularizer.descent_check(y, 0.1, int(rng.integers(p))))
    results.append(
        CheckResult("regularizer", "descent_direction", worst_ip >= -1e-8, worst_ip, -1e-8,
                    descent_instances)
    )
    return results


class _ColumnObjective:
    """The trainer's objective (CE loss + ortho penalty) as a function of one unit column."""

    def __init__(self, trainer: Trainer, layer_index: int, column: int, batch_x, batch_y):
        self.trainer = trainer
        self.layer_index = layer_index
        self.column = column
        self.batch_x = batch_x
        self.batch_y = batch_y
        self.wname = trainer.net.layers[layer_index].weight_name

    def _matrix(self):
        return self.trainer.net.layers[self.layer_index].weight_matrix()

    def _objective_at(self, y: np.ndarray):
        """``Trainer.objective`` on the batch, with the column set to ``y``."""
        wm = self._matrix()
        saved = wm[:, self.column].copy()
        wm[:, self.column] = y
        try:
            return self.trainer.objective(self.batch_x, self.batch_y)
        finally:
            wm[:, self.column] = saved

    def f(self, y: np.ndarray) -> float:
        loss, penalty, _, _ = self._objective_at(y)
        return loss + penalty

    def grad(self, y: np.ndarray) -> np.ndarray:
        grads = self._objective_at(y)[2]
        return grads[self.layer_index][self.wname].reshape(self._matrix().shape)[:, self.column]


def network_checkpoint_objectives(seed=0, checkpoints=20, steps_between=5):
    """Train a toy BN network; return (column objective, unit column) at each checkpoint."""
    rng = np.random.default_rng(seed)
    ds = normalize(gen_blobs(seed, n_per_class=40, classes=3, dim=12, spread=0.6))
    net = build_mlp(12, (6, 4), 3, rng)
    trainer = Trainer(net, "sgd-g", rng=rng, alpha=0.1)
    columns = [(s.layer_index, j) for s in trainer.layer_states for j in range(s.tau.shape[1])]
    batch = (ds.train_x[:32], ds.train_y[:32])
    objectives = []
    for c in range(checkpoints):
        for _ in range(steps_between):
            trainer.train_epoch(ds.train_x, ds.train_y, 32, 0.2, 0.01)
        k, j = columns[c % len(columns)]
        wm = trainer.net.layers[k].weight_matrix()
        objectives.append((_ColumnObjective(trainer, k, j, *batch), wm[:, j].copy()))
    return objectives


def run_gradcheck_suite(seed=0, checkpoints=20) -> list[CheckResult]:
    """Analytic manifold objectives and the full BN-network objective."""
    rng = np.random.default_rng(seed)
    results = []

    n = 16
    basis = rng.standard_normal((n, n))
    a = basis + basis.T
    y = _unit_columns(n, 1, rng)[:, 0]
    errors = gradcheck.riemannian_fd_check(
        lambda pt: float(pt @ a @ pt), lambda pt: 2.0 * (a @ pt), y,
        trials=100, rng=rng,
    )
    worst = float(errors.max())
    results.append(CheckResult("gradcheck", "quadratic_objective", worst < 1e-5, worst, 1e-5, errors.size))

    c = rng.standard_normal(n)
    errors = gradcheck.riemannian_fd_check(
        lambda pt: float(c @ pt) ** 2, lambda pt: 2.0 * float(c @ pt) * c, y,
        trials=100, rng=rng,
    )
    worst = float(errors.max())
    results.append(CheckResult("gradcheck", "linear_squared_objective", worst < 1e-5, worst, 1e-5,
                               errors.size))

    worst = 0.0
    count = 0
    for objective, point in network_checkpoint_objectives(seed=seed, checkpoints=checkpoints):
        errors = gradcheck.riemannian_fd_check(objective.f, objective.grad, point,
                                               trials=5, rng=rng)
        worst = max(worst, float(errors.max()))
        count += errors.size
    results.append(CheckResult("gradcheck", "bn_network_objective", worst < 1e-4, worst, 1e-4, count))
    return results


def run_all(seed=0) -> list[CheckResult]:
    if seed < 0:
        raise PreconditionError(f"seed must be nonnegative, got {seed}")
    results = run_manifold_suite(seed)
    results += run_regularizer_suite(seed)
    results += run_gradcheck_suite(seed)
    return results


def format_report(results) -> str:
    lines = []
    suites = []
    for r in results:
        if r.suite not in suites:
            suites.append(r.suite)
    for suite in suites:
        chunk = [r for r in results if r.suite == suite]
        passed = sum(r.passed for r in chunk)
        lines.append(f"{suite}: {passed}/{len(chunk)} properties passed")
        lines.extend(r.line() for r in chunk)
    total_passed = sum(r.passed for r in results)
    lines.append(f"total: {total_passed}/{len(results)} properties passed")
    return "\n".join(lines)
