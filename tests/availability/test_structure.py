"""One Monte Carlo estimator per question, and one epoch-change path.

The vector *dynamic* estimator ran at 0.02-0.73x the scalar bitmask
estimator everywhere a caller used it, and it was the only caller of the
batch kernels' epoch rebind; ``repro simulate --engine`` and the fan-out's
``engine`` only picked between it and two bit-identical scalar paths.
The scalar evaluators' own ``rebind_epoch`` served two families, while
the other five took an LRU of per-epoch compiles; the dynamic estimator
now addresses every family's epoch by rank, one evaluator per member
count.  These assertions keep all of it from growing back.
"""

import ast
import inspect

import pytest

import repro.availability
from repro.availability import montecarlo, simulate_availability_parallel
from repro.cli import main
from repro.coteries.base import QuorumEvaluator
from repro.lint.coterie_check import COTERIE_FAMILIES

REBIND_NAMES = ("rebind_epoch", "supports_rebind")


def _subclasses(root):
    classes, pending = [], [root]
    while pending:
        cls = pending.pop()
        classes.append(cls)
        pending.extend(cls.__subclasses__())
    return classes


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

    classes = _subclasses(BatchEvaluator)
    assert len(classes) > 5
    # the voting and fallback kernels used to set the flag per instance
    instances = []
    for rule, sizes in COTERIE_FAMILIES.values():
        coterie = rule([f"n{i:03d}" for i in range(sizes[0])])
        instances += [coterie.compile_batch(),
                      ScalarFallbackBatchEvaluator(coterie)]
    for thing in classes + instances:
        for name in REBIND_NAMES:
            assert not hasattr(thing, name), (thing, name)


def test_scalar_evaluators_do_not_rebind():
    classes = _subclasses(QuorumEvaluator)
    assert len(classes) > 7
    # the voting evaluator used to set the flag per instance
    instances = [rule([f"n{i:03d}" for i in range(sizes[0])]).compile()
                 for rule, sizes in COTERIE_FAMILIES.values()]
    for thing in classes + instances:
        for name in REBIND_NAMES:
            assert not hasattr(thing, name), (thing, name)


def test_dynamic_estimator_keeps_no_epoch_cache():
    source = inspect.getsource(montecarlo)
    assert "lru_cache" not in source
    assert "EPOCH_CACHE_SIZE" not in source
    assert "rebind" not in source
    # the initial epoch and one epoch change, both the same lookup
    tree = ast.parse(source)
    estimator = next(node for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef)
                     and node.name == "simulate_dynamic_availability")
    swaps = [node for node in ast.walk(estimator)
             if isinstance(node, ast.Assign)
             and [ast.unparse(t) for t in node.targets] == ["evaluator"]]
    assert [ast.unparse(node.value) for node in swaps] == [
        "evaluator_for(epoch_mask)", "evaluator_for(epoch_mask)"]


def test_fan_out_has_no_engine_parameter():
    assert "engine" not in \
        inspect.signature(simulate_availability_parallel).parameters


def test_simulate_has_no_engine_flag(capsys):
    with pytest.raises(SystemExit):
        main(["simulate", "--n", "6", "--horizon", "300", "--engine", "set"])
    assert "unrecognized arguments" in capsys.readouterr().err
