"""Table I — architectures and train/validation accuracies of both networks.

Regenerates the two rows of the paper's Table I on the synthetic datasets.
Absolute numbers differ from the paper (different data, shorter training);
the shape to check: both networks reach high train accuracy, MNIST's
validation gap is small, GTSRB's is clearly larger.

The timed kernel is single-image inference latency — the cost a deployed
system pays per frame before the monitor is even consulted.
"""

from benchutil import is_smoke, record
from repro.analysis import render_table1, table1_row
from repro.nn import Tensor

MNIST_ARCH = (
    "ReLU(Conv(40)), MaxPool, ReLU(Conv(20)), MaxPool, ReLU(fc(320)), "
    "ReLU(fc(160)), ReLU(fc(80)), ReLU(fc(40))*, fc(10)"
)
GTSRB_ARCH = (
    "ReLU(BN(Conv(40))), MaxPool, ReLU(BN(Conv(20))), MaxPool, "
    "ReLU(fc(240)), ReLU(fc(84))*, fc(43)"
)


def test_table1_accuracies(mnist_system, gtsrb_system):
    rows = [
        table1_row(1, "MNIST(synthetic)", MNIST_ARCH,
                   mnist_system.train_accuracy, mnist_system.val_accuracy),
        table1_row(2, "GTSRB(synthetic)", GTSRB_ARCH,
                   gtsrb_system.train_accuracy, gtsrb_system.val_accuracy),
    ]
    record("table1", render_table1(rows) + "\n(* = monitored layer)")

    # Shape assertions mirroring the paper's Table I (full scale only:
    # smoke-mode systems train for seconds and land below this regime).
    if not is_smoke():
        assert mnist_system.train_accuracy > 0.95
        assert mnist_system.val_accuracy > 0.90
        assert gtsrb_system.train_accuracy > 0.90
        # GTSRB has the larger generalisation gap (paper: 99.98 vs 96.73).
        mnist_gap = mnist_system.train_accuracy - mnist_system.val_accuracy
        gtsrb_gap = gtsrb_system.train_accuracy - gtsrb_system.val_accuracy
        assert gtsrb_gap > mnist_gap


def test_bench_mnist_inference_latency(benchmark, mnist_system):
    image = mnist_system.train_dataset.inputs[:1]
    model = mnist_system.spec.model
    model.eval()
    benchmark(lambda: model(Tensor(image)).data)


def test_bench_gtsrb_inference_latency(benchmark, gtsrb_system):
    image = gtsrb_system.train_dataset.inputs[:1]
    model = gtsrb_system.spec.model
    model.eval()
    benchmark(lambda: model(Tensor(image)).data)
