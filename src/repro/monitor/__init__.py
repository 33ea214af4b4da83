"""Runtime neuron-activation-pattern monitoring — the paper's contribution.

Workflow (Fig. 1 of the paper)::

    # (a) after training, create the monitor from the training data
    monitor = NeuronActivationMonitor.build(model, spec.monitored_module,
                                            train_dataset, gamma=2)

    # choose the abstraction coarseness on validation data
    result = GammaCalibrator().calibrate(monitor, model,
                                         spec.monitored_module, val_dataset)

    # (b) in deployment, supplement every decision with a verdict
    guarded = MonitoredClassifier(model, spec.monitored_module, monitor)
    verdict = guarded.classify_one(image)
    if verdict.warning:
        ...  # decision not supported by training data
"""

from repro.monitor.patterns import (
    binarize,
    extract_patterns,
    hamming_distance,
    pack_patterns,
    unpack_patterns,
)
from repro.monitor.backends import (
    BDDZoneBackend,
    BitsetZoneBackend,
    ZoneBackend,
    available_backends,
    make_backend,
)
from repro.monitor.zone import ComfortZone
from repro.monitor.monitor import NeuronActivationMonitor
from repro.monitor.selection import (
    gradient_sensitivity,
    select_random_neurons,
    select_top_neurons,
    weight_sensitivity,
)
from repro.monitor.metrics import (
    MonitorEvaluation,
    evaluate_monitor,
    evaluate_patterns,
    evaluate_sweep,
)
from repro.monitor.calibration import CalibrationResult, GammaCalibrator
from repro.monitor.runtime import MonitoredClassifier, Verdict
from repro.monitor.shift import (
    DistanceShiftDetector,
    DistanceShiftState,
    DistributionShiftDetector,
    ShiftState,
)
from repro.monitor.drift import (
    DriftResponder,
    StagingZone,
    ZoneSnapshot,
    partition_payloads,
)
from repro.monitor.boxes import BoxMonitor, BoxZone
from repro.monitor.detection import CellVerdict, DetectionMonitor

__all__ = [
    "binarize",
    "extract_patterns",
    "hamming_distance",
    "pack_patterns",
    "unpack_patterns",
    "ZoneBackend",
    "BDDZoneBackend",
    "BitsetZoneBackend",
    "available_backends",
    "make_backend",
    "ComfortZone",
    "NeuronActivationMonitor",
    "weight_sensitivity",
    "gradient_sensitivity",
    "select_top_neurons",
    "select_random_neurons",
    "MonitorEvaluation",
    "evaluate_monitor",
    "evaluate_patterns",
    "evaluate_sweep",
    "GammaCalibrator",
    "CalibrationResult",
    "MonitoredClassifier",
    "Verdict",
    "DistributionShiftDetector",
    "ShiftState",
    "DistanceShiftDetector",
    "DistanceShiftState",
    "DriftResponder",
    "StagingZone",
    "ZoneSnapshot",
    "partition_payloads",
    "BoxMonitor",
    "BoxZone",
    "DetectionMonitor",
    "CellVerdict",
]
