"""Finite-difference gradient checking shared by the model/align/acceptance tests."""

import numpy as np

from listalign import model


def per_tensor_fd_errors(loss_builder, params, h=1e-5):
    """Compare analytic gradients to central differences, tensor by tensor.

    loss_builder() must rebuild the loss graph from the current parameter
    values and return (loss Var, tape); params maps each tensor name to its
    Var. Returns {tensor name: relative error}
    where the error is ||analytic - numeric|| / max(||analytic||, ||numeric||, 1e-5).
    The 1e-5 floor handles tensors whose true gradient is exactly zero by
    symmetry (the attention key bias: softmax is invariant to per-row shifts),
    where both sides are pure rounding noise; it sits above the central
    difference roundoff level at the step sizes used here, and a genuinely
    wrong gradient still towers over it.
    """
    loss, tape = loss_builder()
    analytic = model.backward(tape, loss, params)

    errors = {}
    for name, var in params.items():
        flat = var.value.ravel()
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = float(loss_builder()[0].value)
            flat[i] = orig - h
            lo = float(loss_builder()[0].value)
            flat[i] = orig
            numeric[i] = (hi - lo) / (2.0 * h)
        numeric = numeric.reshape(var.value.shape)
        ga = analytic[name]
        scale = max(np.linalg.norm(ga), np.linalg.norm(numeric), 1e-5)
        errors[name] = float(np.linalg.norm(ga - numeric) / scale)
    return errors
