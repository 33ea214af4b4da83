"""The numpy inference plan against the autograd forward pass, per system.

On each standard system's validation set the plan must give bit-identical
pattern bits and argmax to the autograd forward pass with an activation
hook (the oracle), and logits within 1e-10.  The timed part is the forward
pass per image at the served batch size (8, one coalesced classify batch)
and at the extraction batch size (256).
"""

import time

import numpy as np
import pytest

from benchutil import record, record_perf
from repro.nn import inference
from repro.nn.data import stack_dataset
from repro.nn.hooks import ActivationTap
from repro.nn.inference import compile_inference
from repro.nn.tensor import Tensor

BATCHES = (8, 256)


def _autograd(model, tap, inputs, batch_size=256):
    logits = []
    with ActivationTap(tap) as recorder:
        for start in range(0, len(inputs), batch_size):
            logits.append(model(Tensor(inputs[start : start + batch_size])).data)
    return recorder.concatenated(), np.concatenate(logits, axis=0)


def _ms_per_image(run, inputs, batch_size):
    inputs = inputs[: max(batch_size, 256)]
    run(inputs[:batch_size], batch_size)  # warm-up
    start = time.perf_counter()
    run(inputs, batch_size)
    return (time.perf_counter() - start) * 1e3 / len(inputs)


@pytest.mark.parametrize("name", ["mnist", "gtsrb", "frontcar"])
def test_inference_plan_matches_autograd(name, request):
    system = request.getfixturevalue(f"{name}_system")
    model, tap = system.spec.model, system.spec.monitored_module
    model.eval()
    inputs, _ = stack_dataset(system.val_dataset)
    before = dict(inference.FALLBACKS)
    plan = compile_inference(model, tap)
    activations, logits = plan(inputs)
    assert dict(inference.FALLBACKS) == before
    ref_activations, ref_logits = _autograd(model, tap, inputs)

    flipped = int(((activations > 0) != (ref_activations > 0)).sum())
    argmax_diff = int((logits.argmax(axis=1) != ref_logits.argmax(axis=1)).sum())
    max_logit_diff = float(np.abs(logits - ref_logits).max())
    rows = [
        f"{name}: {len(inputs)} validation images, {activations[0].size} monitored neurons",
        f"  pattern bits differing: {flipped}",
        f"  argmax differing:       {argmax_diff}",
        f"  largest logit diff:     {max_logit_diff:.3g}",
    ]
    timings = {}
    for batch in BATCHES:
        plan_ms = _ms_per_image(plan, inputs, batch)
        autograd_ms = _ms_per_image(
            lambda x, b: _autograd(model, tap, x, b), inputs, batch
        )
        timings[f"batch{batch}"] = {
            "plan_ms_per_image": plan_ms,
            "autograd_ms_per_image": autograd_ms,
            "speedup": autograd_ms / plan_ms,
        }
        rows.append(
            f"  batch {batch:>3}: plan {plan_ms:.3f} ms/image, autograd "
            f"{autograd_ms:.3f} ms/image ({autograd_ms / plan_ms:.2f}x)"
        )
    record(f"inference-plan-{name}", "\n".join(rows))
    record_perf(
        f"nn.inference_plan.{name}",
        {
            "pattern_bits_differing": flipped,
            "argmax_differing": argmax_diff,
            "max_logit_diff": max_logit_diff,
            **timings,
        },
    )
    assert flipped == 0
    assert argmax_diff == 0
    assert max_logit_diff < 1e-10
