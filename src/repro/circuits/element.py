"""Circuit-element framework.

Every analog block in the library is a :class:`CircuitElement`: it
consumes a differential :class:`~repro.signals.waveform.Waveform` and
produces a new one.  Elements are *stateless between calls* (each call
simulates a fresh record, as a scope acquisition would) but may hold
configuration (control voltages, select codes) as attributes.

Elements that add noise draw it from a :class:`numpy.random.Generator`.
Each element owns a default generator seeded at construction so results
are reproducible run-to-run, while successive ``process`` calls on the
same element see fresh noise (as successive scope acquisitions would).
Callers who need exact control pass an explicit ``rng``.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence

import numpy as np

from ..errors import CircuitError
from ..signals.waveform import Waveform, WaveformBatch

__all__ = [
    "CircuitElement",
    "Chain",
    "IdealDelay",
    "Gain",
    "Inverter",
    "spawn_rngs",
]


def spawn_rngs(
    rng: np.random.Generator, count: int
) -> List[np.random.Generator]:
    """Derive *count* independent child generators from *rng*.

    This is the batch axis's seeding contract: every lane owns a child
    stream, so a batched run and a lane-by-lane sequential run consume
    identical per-lane noise regardless of processing order (the lanes'
    streams never interleave).
    """
    try:
        return list(rng.spawn(count))
    except AttributeError:  # pragma: no cover - numpy < 1.25
        return [
            np.random.default_rng(int(rng.integers(0, 2**63)))
            for _ in range(count)
        ]


class CircuitElement(abc.ABC):
    """Base class for all behavioural circuit blocks.

    Parameters
    ----------
    seed:
        Seed for the element's private random generator (used when the
        caller does not supply one to :meth:`process`).
    """

    def __init__(self, seed: Optional[int] = None):
        self._rng = np.random.default_rng(seed)

    @abc.abstractmethod
    def process(
        self, waveform: Waveform, rng: Optional[np.random.Generator] = None
    ) -> Waveform:
        """Simulate the block on *waveform* and return the output."""

    def __call__(
        self, waveform: Waveform, rng: Optional[np.random.Generator] = None
    ) -> Waveform:
        return self.process(waveform, rng)

    def _resolve_rng(
        self, rng: Optional[np.random.Generator]
    ) -> np.random.Generator:
        """Return the caller's generator, or this element's private one."""
        return self._rng if rng is None else rng

    def _resolve_lane_rngs(
        self,
        rngs: Optional[Sequence[np.random.Generator]],
        n_lanes: int,
    ) -> List[np.random.Generator]:
        """Per-lane generators: the caller's, or spawned from the private one."""
        if rngs is None:
            return spawn_rngs(self._rng, n_lanes)
        if len(rngs) != n_lanes:
            raise CircuitError(
                f"need one generator per lane ({n_lanes}), got {len(rngs)}"
            )
        return list(rngs)

    def _one_lane(
        self, waveform: Waveform, rng: Optional[np.random.Generator]
    ) -> Waveform:
        """*waveform* through :meth:`process_batch` as a one-lane batch.

        Elements whose batch path is the only implementation answer
        :meth:`process` with this; the lane draws its noise from the
        caller's generator, or this element's private one.
        """
        batch = WaveformBatch(
            waveform.values[None, :], waveform.dt, waveform.t0
        )
        return self.process_batch(batch, [self._resolve_rng(rng)]).lane(0)

    def process_batch(
        self,
        batch: WaveformBatch,
        rngs: Optional[Sequence[np.random.Generator]] = None,
    ) -> WaveformBatch:
        """Process every lane of *batch*; returns a new batch.

        The base implementation simply loops :meth:`process` over the
        lanes with per-lane generators — semantically definitive, and
        correct for any element.  Elements whose work vectorises across
        lanes override this with a true batched path.
        """
        rngs = self._resolve_lane_rngs(rngs, batch.n_lanes)
        return WaveformBatch.from_waveforms(
            [
                self.process(batch.lane(index), rngs[index])
                for index in range(batch.n_lanes)
            ]
        )

    def reseed(self, seed: Optional[int]) -> None:
        """Reset the element's private random generator."""
        self._rng = np.random.default_rng(seed)


class Chain(CircuitElement):
    """Series composition of circuit elements.

    ``Chain(a, b, c).process(x)`` is ``c(b(a(x)))``.  The chain passes
    the same ``rng`` down to every element so a single generator can
    drive the whole signal path deterministically.
    """

    def __init__(self, *elements: CircuitElement, seed: Optional[int] = None):
        super().__init__(seed)
        flattened: List[CircuitElement] = []
        for element in elements:
            if isinstance(element, Chain):
                flattened.extend(element.elements)
            elif isinstance(element, CircuitElement):
                flattened.append(element)
            else:
                raise CircuitError(f"not a CircuitElement: {element!r}")
        self._elements = tuple(flattened)

    @property
    def elements(self) -> tuple:
        """The composed elements, in signal order."""
        return self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def process(
        self, waveform: Waveform, rng: Optional[np.random.Generator] = None
    ) -> Waveform:
        rng = self._resolve_rng(rng)
        result = waveform
        for element in self._elements:
            result = element.process(result, rng)
        return result

    def process_batch(
        self,
        batch: WaveformBatch,
        rngs: Optional[Sequence[np.random.Generator]] = None,
    ) -> WaveformBatch:
        rngs = self._resolve_lane_rngs(rngs, batch.n_lanes)
        result = batch
        for element in self._elements:
            result = element.process_batch(result, rngs)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = " -> ".join(type(e).__name__ for e in self._elements)
        return f"Chain({inner})"


class IdealDelay(CircuitElement):
    """A distortion-free pure delay (the idealised comparison element).

    Implemented as an exact time-axis shift, so it adds no interpolation
    error, no jitter, and no bandwidth limit.
    """

    def __init__(self, delay: float):
        super().__init__()
        self.delay = float(delay)

    def process(
        self, waveform: Waveform, rng: Optional[np.random.Generator] = None
    ) -> Waveform:
        return waveform.shifted(self.delay)


class Gain(CircuitElement):
    """Ideal linear gain (or attenuation) block."""

    def __init__(self, gain: float):
        super().__init__()
        if gain == 0:
            raise CircuitError("gain must be non-zero")
        self.gain = float(gain)

    def process(
        self, waveform: Waveform, rng: Optional[np.random.Generator] = None
    ) -> Waveform:
        return waveform * self.gain


class Inverter(CircuitElement):
    """Differential polarity swap (exchange P and N legs)."""

    def process(
        self, waveform: Waveform, rng: Optional[np.random.Generator] = None
    ) -> Waveform:
        return -waveform
