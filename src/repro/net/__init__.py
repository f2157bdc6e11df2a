"""Network substrate: latency models, links, site topologies, profiles.

The paper's three experimental configurations (§4) are expressed as
:class:`repro.net.profiles.NetworkProfile` instances:

* ``sysnet()`` — the UCSD Sysnet cluster (Gigabit LAN, fast CPUs);
* ``berkeley_princeton()`` — PlanetLab, clients at Berkeley, all replicas
  co-located at Princeton;
* ``wan()`` — PlanetLab wide-area: leader at UIUC, replicas at Utah and
  Texas, clients at Berkeley and Intel Labs Oregon.
"""
