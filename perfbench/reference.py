"""Fixed reference kernels that calibrate the benchmark's clock.

On a shared host the machine switches between a fast and a slow state: the
same fixed loop takes 15 or 28 ms, because other tenants contend for caches,
memory and cores.  A run of 30 s sees a different mix of the two states each
time, so raw wall times of the same code spread by more than any useful
regression bound from one run to the next.

The benchmark therefore times the workload's kernel between every two tasks
and divides each task's wall time by the mean of the four kernel runs
nearest it.  The kernels never call manlp and live only in the benchmark, so
a change to manlp moves the task times and not the kernel.  Multiplied by
the kernel's nominal time, a task time reads as milliseconds on a machine on
which the kernel takes exactly its nominal time (unit ``ref_ms``).  Each
workload uses the kernel whose work resembles its own: a miniature
consequence operator for the engine and the CLI, vectorized numpy for the
grid oracle.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class _Unit:
    value: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("truth value out of [0, 1]")


def _body(rng: random.Random, atoms: list[str], depth: int):
    if depth == 0 or rng.random() < 0.3:
        atom = rng.choice(atoms)
        return ("not", atom) if rng.random() < 0.3 else atom
    return (rng.choice(("*", "min", "luk")), _body(rng, atoms, depth - 1), _body(rng, atoms, depth - 1))


def _program(n_atoms: int, n_rules: int, seed: int):
    rng = random.Random(seed)
    atoms = [f"a{i}" for i in range(n_atoms)]
    return atoms, [(rng.choice(atoms), _body(rng, atoms, 3), _Unit(rng.uniform(0.1, 0.9))) for _ in range(n_rules)]


def _evaluate(node, interp: dict) -> _Unit:
    if isinstance(node, str):
        return interp[node]
    if node[0] == "not":
        return _Unit(1.0 - interp[node[1]].value)
    x, y = _evaluate(node[1], interp), _evaluate(node[2], interp)
    if node[0] == "*":
        return _Unit(x.value * y.value)
    if node[0] == "min":
        return x if x.value <= y.value else y
    return _Unit(max(0.0, x.value + y.value - 1.0))


_ATOMS, _RULES = _program(300, 900, 7)


def python_kernel() -> dict:
    """Six rounds of a consequence operator over a fixed 300-atom, 900-rule
    program: recursive body evaluation, small frozen dataclasses with
    validation, dict interpretations.  A miniature of the scalar engine."""
    bottom = _Unit(0.0)
    interp = dict.fromkeys(_ATOMS, bottom)
    for _ in range(6):
        raised = dict.fromkeys(_ATOMS, bottom)
        for head, body, weight in _RULES:
            value = _Unit(_evaluate(body, interp).value * weight.value)
            if value.value > raised[head].value:
                raised[head] = value
        interp = raised
    return interp


_AXIS = np.linspace(0.0, 1.0, 700)


def numpy_kernel() -> float:
    """Grid enumeration, element-wise lattice arithmetic and a masked
    reduction over a few hundred thousand points: the grid oracle's work."""
    acc = 0.0
    for k in range(3):
        grid = np.stack(np.meshgrid(_AXIS, _AXIS[:600] + k * 1e-3, indexing="ij"), axis=-1).reshape(-1, 2)
        value = np.minimum(grid[:, 0] * grid[:, 1], 1.0 - grid[:, 0])
        gap = np.abs(value - grid[:, 1])
        acc += float(gap[gap < 0.01].sum())
    return acc


# name -> (kernel, nominal milliseconds); a nominal time is the kernel's
# typical time on a 2-vCPU Xeon VM, so ref_ms read close to real ms there
KERNELS = {
    "python": (python_kernel, 30.0),
    "numpy": (numpy_kernel, 30.0),
}


def time_kernel(name: str) -> float:
    """Wall seconds of one call of the named kernel.

    The cyclic garbage collector is off during the call: the kernels make no
    cycles, and a collection triggered inside one would time the caller's
    heap, not the machine."""
    kernel = KERNELS[name][0]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        kernel()
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


def nominal_s(name: str) -> float:
    return KERNELS[name][1] / 1000.0
