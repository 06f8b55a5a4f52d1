import numpy as np
import pytest

from qrcvol.errors import EvaluationError, InputShapeError
from qrcvol.readout import (
    Standardizer,
    _path_scores,
    _rownorm,
    _sigmoid,
    average_precision,
    evaluate,
    evaluate_path,
    fit_logistic,
    fit_logistic_path,
    fit_ridge,
    fit_ridge_path,
    logistic_loss_grad,
    predict_scores,
    ridge_solve,
)

from conftest import reference_average_precision, reference_fit_logistic, reference_sigmoid


def separable_1d(n=40, seed=0):
    rng = np.random.default_rng(seed)
    x_neg = rng.uniform(-2.0, -0.2, size=(n // 2, 1))
    x_pos = rng.uniform(0.2, 2.0, size=(n // 2, 1))
    x = np.vstack([x_neg, x_pos])
    y = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
    return x, y


class TestLogistic:
    def test_separable_training_accuracy(self):
        x, y = separable_1d()
        model = fit_logistic(x, y, l2=1e-6)
        preds = (predict_scores(model, x) > 0.5).astype(int)
        assert np.array_equal(preds, y.astype(int))

    def test_all_zero_features_majority(self):
        x = np.zeros((10, 3))
        y = np.array([1, 1, 1, 1, 1, 1, 1, 0, 0, 0])
        model = fit_logistic(x, y, l2=1e-2)
        scores = predict_scores(model, x)
        assert np.all((scores > 0.5) == 1)  # majority class is 1

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(30, 4))
        y = (rng.uniform(size=30) > 0.5).astype(float)
        wb = rng.normal(size=5) * 0.5
        l2 = 0.1
        _, grad = logistic_loss_grad(wb, x, y, l2)
        eps = 1e-6
        for k in range(5):
            up = wb.copy()
            dn = wb.copy()
            up[k] += eps
            dn[k] -= eps
            fd = (logistic_loss_grad(up, x, y, l2)[0] - logistic_loss_grad(dn, x, y, l2)[0]) / (2 * eps)
            assert abs(fd - grad[k]) < 1e-5 * max(1.0, abs(grad[k]))

    def test_loss_non_increasing_in_iterations(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(60, 5))
        y = (x @ rng.normal(size=5) + 0.3 * rng.normal(size=60) > 0).astype(float)
        losses = []
        scaler = Standardizer.fit(x)
        xs = scaler.transform(x)
        for iters in (1, 2, 3, 5, 10, 30):
            model = fit_logistic(x, y, l2=1e-3, max_iter=iters)
            wb = np.concatenate([model.weights, [model.bias]])
            losses.append(logistic_loss_grad(wb, xs, y, 1e-3)[0])
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_single_class_degenerate(self):
        x = np.random.default_rng(4).normal(size=(8, 2))
        model = fit_logistic(x, np.ones(8), l2=1e-2)
        assert model.degenerate
        assert np.all(predict_scores(model, x) > 0.5)
        model0 = fit_logistic(x, np.zeros(8), l2=1e-2)
        assert np.all(predict_scores(model0, x) < 0.5)

    def test_constant_feature_weight_zero(self):
        x, y = separable_1d()
        x = np.hstack([x, np.full((len(x), 1), 3.7)])
        model = fit_logistic(x, y, l2=1e-4)
        assert model.weights[1] == 0.0


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: -0.0 differs from 0.0 and NaN equals itself."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_path_case(rng, case):
    """Seeded features, labels, a regularization path of 1-12 values and
    a max_iter.  Every fourth case holds one class, every third a constant
    column, every fifth separable classes, and every seventh labels -1/+1:
    on those the Newton direction disagrees with the loss, so line
    searches run out of halvings and fail."""
    m = int(rng.integers(2, 70))
    d = int(rng.integers(1, 56))
    x = rng.normal(size=(m, d)) * rng.uniform(0.1, 5.0, size=d)
    y = (rng.uniform(size=m) < rng.uniform(0.1, 0.9)).astype(float)
    y[: 1 + m // 4] = rng.integers(0, 2)
    if case % 4 == 0:
        y[:] = case % 8 // 4
    if case % 3 == 0:
        x[:, rng.integers(d)] = rng.normal()
    if case % 5 == 0:
        x[:, 0] += 4.0 * (2.0 * y - 1.0)
    values = [0.0, 1e-8, 1e-4, 1e-2, 0.3, 1.0, 100.0, float(rng.uniform(0, 2))]
    if case % 7 == 0:
        y = 2.0 * y - 1.0
    path = [values[k] for k in rng.integers(0, len(values), size=int(rng.integers(1, 13)))]
    return x, y, path, int(rng.choice([0, 1, 3, 100, 100]))


class TestLogisticPath:
    def test_each_model_equals_its_own_fit_bit_for_bit(self):
        rng = np.random.default_rng(15)
        flags = set()  # (converged, degenerate) seen, so the cases keep every branch
        for case in range(1000):
            x, y, path, max_iter = random_path_case(rng, case)
            models = fit_logistic_path(x, y, path, max_iter=max_iter)
            assert len(models) == len(path)
            for model, l2 in zip(models, path):
                weights, bias, converged, degenerate, reg = reference_fit_logistic(
                    x, y, l2=l2, max_iter=max_iter)
                assert same_bits(model.weights, weights), (case, l2)
                assert same_bits(model.bias, bias), (case, l2)
                assert (model.converged, model.degenerate) == (converged, degenerate), (case, l2)
                assert model.regularization == reg and model.kind == "logistic"
                flags.add((converged, degenerate))
        assert flags == {(True, False), (False, False), (True, True)}

    @pytest.mark.parametrize("l2", [-1.0, -1e-12, float("nan")])
    def test_negative_or_nan_l2_rejected(self, l2):
        x, y = separable_1d()
        with pytest.raises(InputShapeError, match="l2"):
            fit_logistic_path(x, y, [1.0, l2])
        with pytest.raises(InputShapeError, match="l2"):
            fit_logistic(x, y, l2=l2)


class TestRidgePath:
    def test_each_model_equals_ridge_solve_bit_for_bit(self):
        rng = np.random.default_rng(16)
        for case in range(1000):
            x, y, path, _ = random_path_case(rng, case)
            alphas = [a for a in path if a > 0] or [1.0]
            models = fit_ridge_path(x, y, alphas)
            scaler = Standardizer.fit(x)
            xs = scaler.transform(x)
            for model, alpha in zip(models, alphas):
                weights = np.where(scaler.constant, 0.0, ridge_solve(xs, 2.0 * y - 1.0, alpha))
                assert same_bits(model.weights, weights), (case, alpha)
                assert model.bias == float(np.mean(2.0 * y - 1.0))
                assert model.regularization == alpha and model.kind == "ridge"
            assert len(models) == len(alphas)

    def test_nonpositive_alpha_anywhere_rejected(self):
        with pytest.raises(InputShapeError):
            fit_ridge_path(np.eye(2), np.array([0, 1]), [1.0, 0.0])


def test_sigmoid_of_a_batch_equals_reference_bit_for_bit():
    edges = [0.0, -0.0, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0]
    rng = np.random.default_rng(17)
    z = np.concatenate([edges, rng.normal(0.0, 30.0, size=400), rng.normal(0.0, 1e-3, size=100)])
    assert same_bits(_sigmoid(z), reference_sigmoid(z))
    batch = z[rng.permutation(len(z))].reshape(4, -1)
    assert same_bits(_sigmoid(batch), np.array([reference_sigmoid(row) for row in batch]))


def test_row_norms_of_a_batch_equal_linalg_norm():
    rng = np.random.default_rng(18)
    for case in range(300):
        g = rng.normal(size=(int(rng.integers(1, 12)), int(rng.integers(1, 70))))
        g *= 10.0 ** rng.uniform(-150, 150, size=(len(g), 1))
        g[rng.random(g.shape) < 0.1] = 0.0
        norms = _rownorm(g)
        for row, norm in zip(g, norms):
            assert same_bits(norm, np.linalg.norm(row)), case


def unusable_inputs():
    x, y = separable_1d()
    nan_x, inf_x, nan_y = x.copy(), x.copy(), y.copy()
    nan_x[3, 0], inf_x[5, 0], nan_y[7] = np.nan, np.inf, np.nan
    return {
        "1-D x": (x[:, 0], y),
        "3-D x": (x[None], y),
        "fewer labels": (x, y[:-1]),
        "more labels": (x[:-1], y),
        "NaN feature": (nan_x, y),
        "inf feature": (inf_x, y),
        "NaN label": (x, nan_y),
    }


@pytest.mark.parametrize("fit_path, reg", [(fit_logistic_path, 1e-2), (fit_ridge_path, 1.0)])
@pytest.mark.parametrize("case", list(unusable_inputs()))
def test_fit_paths_reject_unusable_input(fit_path, reg, case):
    x, y = unusable_inputs()[case]
    with pytest.raises(InputShapeError):
        fit_path(x, y, [reg])


class TestRidge:
    def test_identity_small_alpha(self):
        w = ridge_solve(np.eye(2), np.array([1.0, -1.0]), alpha=1e-10)
        assert np.max(np.abs(w - np.array([1.0, -1.0]))) < 1e-8

    def test_large_alpha_majority_fallback(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(20, 3))
        y = np.array([1] * 13 + [0] * 7)
        model = fit_ridge(x, y, alpha=1e12)
        assert np.max(np.abs(model.weights)) < 1e-9
        scores = predict_scores(model, x)
        assert np.all(scores > 0)  # majority class 1

    def test_balanced_zero_margin_tiebreak_to_zero(self):
        x = np.zeros((4, 2))
        y = np.array([0, 1, 0, 1])
        model = fit_ridge(x, y, alpha=1.0)
        scores = predict_scores(model, x)
        assert np.all((scores > model.threshold) == 0)

    def test_matches_independent_solver(self):
        import scipy.linalg

        rng = np.random.default_rng(6)
        x = rng.normal(size=(20, 5))
        y = rng.normal(size=20)
        alpha = 0.37
        w = ridge_solve(x, y, alpha)
        augmented = np.vstack([x, np.sqrt(alpha) * np.eye(5)])
        target = np.concatenate([y, np.zeros(5)])
        oracle, *_ = scipy.linalg.lstsq(augmented, target)
        assert np.max(np.abs(w - oracle)) < 1e-8

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.normal(size=(30, 6))
            y = rng.choice([-1.0, 1.0], size=30)
            alpha = float(rng.uniform(0.01, 10))
            w = ridge_solve(x, y, alpha)
            lhs = (x.T @ x + alpha * np.eye(6)) @ w
            rhs = x.T @ y
            assert np.linalg.norm(lhs - rhs) < 1e-8 * np.linalg.norm(rhs)

    def test_alpha_nonpositive_rejected(self):
        with pytest.raises(InputShapeError):
            fit_ridge(np.eye(2), np.array([0, 1]), alpha=0.0)


class TestPredictScores:
    def test_zero_model_logistic_half(self):
        x, y = separable_1d()
        model = fit_logistic(x, y, l2=1e-2, max_iter=0)
        assert np.max(np.abs(predict_scores(model, x) - 0.5)) < 1e-12

    def test_ridge_sign_flip(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(15, 3))
        y = (rng.uniform(size=15) > 0.5).astype(int)
        model = fit_ridge(x, y, alpha=1.0)
        scores = predict_scores(model, x)
        model.weights = -model.weights
        model.bias = -model.bias
        assert np.max(np.abs(predict_scores(model, x) + scores)) < 1e-12

    def test_logistic_monotone_in_margin(self):
        x, y = separable_1d()
        model = fit_logistic(x, y, l2=1e-2)
        grid = np.linspace(-3, 3, 50).reshape(-1, 1)
        scores = predict_scores(model, grid)
        diffs = np.diff(scores) * np.sign(model.weights[0])
        assert np.all(diffs > 0) or np.all(diffs < 0)

    def test_dimension_mismatch(self):
        x, y = separable_1d()
        model = fit_logistic(x, y)
        with pytest.raises(InputShapeError):
            predict_scores(model, np.zeros((3, 2)))


class TestEvaluate:
    def test_perfect_ranking_ap_one(self):
        ap, defined = average_precision([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert defined and abs(ap - 1.0) < 1e-12

    def test_pr_fixture(self):
        ap, _ = average_precision([0.9, 0.8, 0.7], [1, 0, 1])
        assert abs(ap - (1.0 + 2.0 / 3.0) / 2.0) < 1e-9

    def test_all_correct_accuracy(self):
        res = evaluate([0.9, 0.1, 0.8], [1, 0, 1], threshold=0.5)
        assert res.accuracy == 1.0
        assert res.confusion == (2, 0, 1, 0)

    def test_tied_scores_one_block(self):
        # both orderings of a tied pair give the same AP
        ap1, _ = average_precision([0.5, 0.5, 0.1], [1, 0, 0])
        ap2, _ = average_precision([0.5, 0.5, 0.1], [0, 1, 0])
        assert ap1 == ap2 == 0.5

    def test_no_positives_flagged(self):
        res = evaluate([0.4, 0.6], [0, 0], threshold=0.5)
        assert res.average_precision == 0.0
        assert not res.ap_defined

    def test_ap_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(9)
        scores = rng.uniform(size=30)
        labels = (rng.uniform(size=30) > 0.6).astype(int)
        ap1, _ = average_precision(scores, labels)
        ap2, _ = average_precision(np.exp(5 * scores) + 2, labels)
        assert abs(ap1 - ap2) < 1e-12

    def test_invariant_under_row_permutation(self):
        rng = np.random.default_rng(10)
        scores = rng.uniform(size=25)
        labels = (rng.uniform(size=25) > 0.5).astype(int)
        perm = rng.permutation(25)
        a = evaluate(scores, labels, 0.5)
        b = evaluate(scores[perm], labels[perm], 0.5)
        assert a.accuracy == b.accuracy
        assert abs(a.average_precision - b.average_precision) < 1e-12

    def test_empty_input(self):
        with pytest.raises(EvaluationError):
            evaluate([], [], 0.5)

    def test_matches_reference_loop_bit_for_bit(self):
        rng = np.random.default_rng(14)
        for case in range(1200):
            n = int(rng.integers(1, 120))
            labels = (rng.uniform(size=n) < rng.uniform(0.05, 0.95)).astype(int)
            labels[rng.integers(n)] = 1
            scores = [
                rng.normal(size=n),
                rng.integers(0, 5, size=n).astype(float),  # many ties
                1.0 / (1.0 + np.exp(-rng.normal(0.0, 40.0, size=n))),  # saturated at 0 and 1
            ][case % 3]
            ap, defined = average_precision(scores, labels)
            assert defined and ap == reference_average_precision(scores, labels)

    @pytest.mark.parametrize("labels", [[1, 0, 2], [1, 0, -1], [1.7, 0.2, 0.9]])
    def test_non_binary_labels_rejected(self, labels):
        # a fractional label is rejected, not truncated to an integer
        with pytest.raises(EvaluationError, match="binary"):
            evaluate([0.9, 0.1, 0.8], labels, 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        with pytest.raises(EvaluationError, match="finite"):
            evaluate([bad, 0.5], [1, 0], 0.5)

    def test_matches_sklearn_ap(self):
        sklearn = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(11)
        for _ in range(20):
            scores = rng.normal(size=40)  # distinct scores w.p. 1
            labels = (rng.uniform(size=40) > 0.5).astype(int)
            ap, _ = average_precision(scores, labels)
            assert abs(ap - sklearn.average_precision_score(labels, scores)) < 1e-10


def random_evaluation_case(rng, case):
    """Training and test rows of one (embedding, ticker) and a path of each
    readout kind.  Integer-valued test features tie scores; every fifth case
    has scaled separable classes and l2 = 0, so sigmoid scores saturate at
    exactly 0 and 1; every sixth has only constant training features and
    balanced labels, so ridge margins are exactly 0; every fourth test split
    has no positive label, every third holds one row, and every seventh has
    a constant column."""
    m, n, d = int(rng.integers(4, 60)), int(rng.integers(1, 40)), int(rng.integers(1, 30))
    if case % 3 == 0:
        n = 1
    x = rng.normal(size=(m + n, d))
    if case % 2:
        x = np.round(x)
    y = (rng.uniform(size=m + n) < rng.uniform(0.1, 0.9)).astype(float)
    y[: m // 2] = np.arange(m // 2) % 2
    if case % 5 == 0:
        x[:, 0] = 50.0 * (2.0 * y - 1.0) + rng.normal(size=m + n)
    if case % 6 == 0:
        x[:m] = rng.normal(size=d)
        y[:m] = np.arange(m) % 2
        m -= m % 2
        x, y = np.vstack([x[:m], x[-n:]]), np.concatenate([y[:m], y[-n:]])
    if case % 7 == 0:
        x[:, rng.integers(d)] = 2.5
    if case % 4 == 0:
        y[m:] = 0.0
    l2s = [0.0 if case % 5 == 0 else float(v) for v in rng.choice([1e-4, 1e-2, 1.0, 30.0], size=3)]
    alphas = [float(v) for v in rng.choice([1e-3, 1.0, 1e3], size=int(rng.integers(1, 4)))]
    return x[:m], y[:m], x[m:], y[m:], l2s, alphas


def reference_evaluation(model, x, labels):
    """(accuracy, AP or None, confusion) of one model by plain loops."""
    z = model.scaler.transform(x) @ model.weights + model.bias
    scores = reference_sigmoid(z) if model.kind == "logistic" else z
    counts = {(p, t): 0 for p in (0, 1) for t in (0, 1)}
    for score, label in zip(scores, labels):
        counts[int(score > model.threshold), int(label)] += 1
    tp, fp, tn, fn = counts[1, 1], counts[1, 0], counts[0, 0], counts[0, 1]
    ap = reference_average_precision(scores, labels) if labels.any() else None
    return (tp + tn) / len(labels), ap, (tp, fp, tn, fn), scores


class TestEvaluatePath:
    def test_batch_equals_per_model_evaluation_bit_for_bit(self):
        rng = np.random.default_rng(19)
        seen = set()
        for case in range(1200):
            x_tr, y_tr, x_te, y_te, l2s, alphas = random_evaluation_case(rng, case)
            for models in (fit_logistic_path(x_tr, y_tr, l2s), fit_ridge_path(x_tr, y_tr, alphas)):
                batch = evaluate_path(models, x_te, y_te)
                assert len(batch) == len(models)
                batch_scores = _path_scores(models, models[0].scaler.transform(x_te))
                for model, res, row in zip(models, batch, batch_scores):
                    assert res == evaluate(predict_scores(model, x_te), y_te, model.threshold), case
                    accuracy, ap, confusion, scores = reference_evaluation(model, x_te, y_te)
                    assert same_bits(row, scores) and same_bits(predict_scores(model, x_te), scores), case
                    assert (res.accuracy, res.confusion) == (accuracy, confusion), case
                    assert res.ap_defined == (ap is not None), case
                    assert same_bits(res.average_precision, 0.0 if ap is None else ap), case
                    seen.add(("no positive", ap is None))
                    seen.add(("one row", len(y_te) == 1))
                    seen.add(("tie", len(np.unique(scores)) < len(scores)))
                    if model.kind == "logistic":
                        seen.add(("saturated", bool(np.any((scores == 0.0) | (scores == 1.0)))))
                    else:
                        seen.add(("zero margin", bool(np.any(scores == 0.0))))
        assert {what for what, hit in seen if hit} == {
            "no positive", "one row", "tie", "saturated", "zero margin"}

    def test_models_must_share_one_scaler(self):
        x, y = separable_1d()
        models = [fit_ridge(x, y, alpha=1.0), fit_ridge(x, y, alpha=2.0)]
        with pytest.raises(InputShapeError, match="Standardizer"):
            evaluate_path(models, x, y)
        assert evaluate_path([], x, y) == []

    def test_feature_count_checked(self):
        x, y = separable_1d()
        models = fit_logistic_path(x, y, [1e-2, 1.0])
        with pytest.raises(InputShapeError):
            evaluate_path(models, np.zeros((3, 2)), [0, 1, 0])


class TestStandardizer:
    def test_train_rows_standardized(self):
        rng = np.random.default_rng(12)
        x = rng.normal(3.0, 2.5, size=(100, 4))
        s = Standardizer.fit(x)
        xs = s.transform(x)
        assert np.max(np.abs(xs.mean(axis=0))) < 1e-8
        assert np.max(np.abs(xs.std(axis=0) - 1.0)) < 1e-8

    def test_constant_feature_flagged(self):
        x = np.hstack([np.random.default_rng(13).normal(size=(10, 1)), np.ones((10, 1))])
        s = Standardizer.fit(x)
        assert not s.constant[0] and s.constant[1]
        assert s.std[1] == 1.0
