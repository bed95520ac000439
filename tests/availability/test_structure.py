"""One Monte Carlo estimator per question, and nothing to choose between.

The vector *dynamic* estimator ran at 0.02-0.73x the scalar bitmask
estimator everywhere a caller used it, and it was the only caller of the
batch kernels' epoch rebind; ``repro simulate --engine`` and the fan-out's
``engine`` only picked between it and two bit-identical scalar paths.
These assertions keep the three from growing back.
"""

import inspect

import pytest

import repro.availability
from repro.availability import simulate_availability_parallel
from repro.cli import main


def test_no_vector_dynamic_estimator():
    assert not hasattr(repro.availability,
                       "simulate_dynamic_availability_vector")
    assert "simulate_dynamic_availability_vector" not in \
        repro.availability.__all__


def test_batch_kernels_do_not_rebind():
    pytest.importorskip("numpy")
    from repro.coteries.batch import (
        BatchEvaluator,
        ScalarFallbackBatchEvaluator,
    )
    from repro.lint.coterie_check import COTERIE_FAMILIES

    classes, pending = [], [BatchEvaluator]
    while pending:
        cls = pending.pop()
        classes.append(cls)
        pending.extend(cls.__subclasses__())
    assert len(classes) > 5
    # the voting and fallback kernels used to set the flag per instance
    instances = []
    for rule, sizes in COTERIE_FAMILIES.values():
        coterie = rule([f"n{i:03d}" for i in range(sizes[0])])
        instances += [coterie.compile_batch(),
                      ScalarFallbackBatchEvaluator(coterie)]
    for thing in classes + instances:
        for name in ("rebind_epoch", "supports_rebind"):
            assert not hasattr(thing, name), (thing, name)


def test_fan_out_has_no_engine_parameter():
    assert "engine" not in \
        inspect.signature(simulate_availability_parallel).parameters


def test_simulate_has_no_engine_flag(capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "--n", "6", "--horizon", "300", "--engine", "set"])
    assert "unrecognized arguments" in capsys.readouterr().err
