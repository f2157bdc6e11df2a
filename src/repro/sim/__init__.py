"""Deterministic discrete-event simulation (DES) substrate.

This package stands in for the paper's physical testbeds (the UCSD Sysnet
cluster and PlanetLab): processes exchange messages over links with
configurable latency, each process has a CPU occupancy model so closed-loop
throughput saturates realistically, and the whole run is deterministic for
a given seed.

Layering:

* :mod:`repro.sim.kernel` — the event heap and virtual clock.
* :mod:`repro.sim.cpu` — per-process CPU occupancy.
* :mod:`repro.sim.process` — the actor base class and its environment.
* :mod:`repro.sim.world` — registry wiring processes, network and kernel
  together, with crash/recover fault injection.
"""
