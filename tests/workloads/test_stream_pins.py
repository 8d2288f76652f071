"""Pinned address streams of every SPEC model.

Each model's :class:`WorkloadInstance` is driven at seed 0 the way
:meth:`repro.arch.core.Core.run` drives it: per phase chunk, batches
taken as lists (the bulk kernel) or arrays (the stream path), a prefix
of each executed and the rest pushed back, a declined array batch
returned whole and retaken as a list, then one ``account`` per chunk.
A fixed schedule, independent of the program, picks the batch sizes,
the forms and the cut points.  The digest of the executed addresses is
pinned per model.

The phases of a model share one ``Generator``, so a pattern that draws
from it earlier or later than a one-address-at-a-time walk would shifts
every later phase's stream: ``429.mcf``, ``483.xalancbmk`` and
``403.gcc`` run through at least two full phase rotations to catch it.
Only a deliberate change of the simulated streams may re-pin these
(``PYTHONPATH=src python -m tests.workloads.test_stream_pins`` prints
the digests), and it moves every pinned outcome with them.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.workloads.spec2006 import benchmark, benchmark_names

#: Length the models are built at: short phases, so a few tens of
#: thousands of accesses cross several phase boundaries.
LENGTH = 0.05
#: Accesses driven per model, unless it finishes first.
ACCESSES = 40_000
#: Models driven to completion instead, with the phase rotations
#: they must reach (each rotation returns to the first phase).
ROTATING = {"429.mcf": 2, "483.xalancbmk": 2, "403.gcc": 2}
#: Largest batch the schedule asks for (Core.run's cap is 4096).
MAX_BATCH = 1500
#: Smallest batch Core.run offers the stream path.
VECTOR_MIN_BATCH = 8

#: First 32 hex digits of the sha256 of each model's executed
#: addresses (int64, in order).
PINNED = {
    "400.perlbench": "416562dc6f62ff26edae731f3315104d",
    "401.bzip2": "9693951afa8349e4ac7ef3e401c2badd",
    "403.gcc": "0715e14a9d36eabf9c344f8fe807bb25",
    "429.mcf": "75ea22335179f4f8aa789ea99e42ebba",
    "445.gobmk": "590ff9fb3d2434805bc33e3d4d7be22d",
    "456.hmmer": "574c9cd59ac12ba78ea57bd3dab7f36c",
    "458.sjeng": "74ce4edd310b62ffa99a153d8af0fffe",
    "462.libquantum": "85effce3824adb6de15a19576ae8e43e",
    "464.h264ref": "7b3bed87b125e0e7905d9e503cf87a10",
    "471.omnetpp": "46d57e7e63e96c50a61dea8f8e0b64d2",
    "473.astar": "a14f1a1f4f90f0038ae0b7cece10a2d2",
    "483.xalancbmk": "3a6a347b2ea9642e28fd5855cf3c50c8",
    "433.milc": "52629915fbc1edb393130da3ddb954f2",
    "435.gromacs": "c2e7f8576910193719ea907ea4fafe86",
    "444.namd": "2341de2ed50e0729b83057d9f82abe6a",
    "447.dealII": "70f17f1e87cda91e4ffb729ce4ed3586",
    "450.soplex": "5709def9f5e88b4f135819a382dfae84",
    "453.povray": "b741d274d09b14afc06bcae0d81703d6",
    "454.calculix": "c774b121ceb8eaa04d3b26ced35d5e41",
    "470.lbm": "74b67db782e767b27f4a98c5e35a710a",
    "482.sphinx3": "c6bc8328083cb61945d4454bb76994ea",
}


class _Schedule:
    """A fixed pseudo-random schedule (a 64-bit LCG, no numpy)."""

    def __init__(self, seed: int):
        self._x = seed

    def below(self, n: int) -> int:
        self._x = (
            self._x * 6364136223846793005 + 1442695040888963407
        ) & 0xFFFFFFFFFFFFFFFF
        return (self._x >> 33) % n


def drive(name: str) -> tuple[str, int, int]:
    """(digest, accesses served, phase rotations) of one model."""
    instance = benchmark(name, length=LENGTH).instantiate(
        seed=0, base=1 << 34
    )
    schedule = _Schedule(sum(map(ord, name)))
    digest = hashlib.sha256()
    cap = None if name in ROTATING else ACCESSES
    served = 0
    rotations = 0
    first = instance.current_phase()
    last = first
    while not instance.finished and (cap is None or served < cap):
        phase = instance.current_phase()
        if phase is not last:
            rotations += phase is first
            last = phase
        chunk = instance.accesses_left_in_phase()
        vector = schedule.below(2) == 0
        done = 0
        while done < chunk:
            batch = min(chunk - done, 1 + schedule.below(MAX_BATCH))
            # Most batches run whole; the rest stop where a budget
            # would, after at least one access.
            n_exec = batch
            if not schedule.below(3):
                n_exec = 1 + schedule.below(batch)
            if vector and batch >= VECTOR_MIN_BATCH:
                addrs = phase.take_addresses_array(batch)
                if schedule.below(4) == 0:
                    # A classify decline: the whole batch goes back and
                    # the rest of the chunk runs on lists.
                    phase.push_back_array(addrs, 0)
                    vector = False
                    continue
                digest.update(addrs[:n_exec].astype(np.int64).tobytes())
                phase.push_back_array(addrs, n_exec)
            else:
                addrs = phase.take_addresses(batch)
                digest.update(
                    np.asarray(addrs[:n_exec], np.int64).tobytes()
                )
                phase.push_back(addrs, n_exec)
            done += n_exec
            if n_exec < batch:
                break
        instance.account(done)
        served += done
    return digest.hexdigest()[:32], served, rotations


@pytest.mark.parametrize("name", benchmark_names())
def test_stream_is_pinned(name):
    digest, served, rotations = drive(name)
    assert served >= min(ACCESSES, 10_000)
    assert rotations >= ROTATING.get(name, 0)
    assert digest == PINNED[name]


def test_every_model_is_pinned():
    assert sorted(PINNED) == sorted(benchmark_names())


if __name__ == "__main__":
    for model in benchmark_names():
        print(f'    "{model}": "{drive(model)[0]}",')
